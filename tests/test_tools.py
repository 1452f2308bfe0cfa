"""The scripts under tools/ run: the timing script compares two trees in one
process, and the trace digest hashes a grid of runs the same way each time."""

import json
import os
import re
import shutil
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def pair_bench(monkeypatch):
    # the script pins OPENBLAS_NUM_THREADS as it loads; later tests see the
    # environment as it was
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import pair_bench

    # one toy shape that still passes a two-weight regularizer and a cache flag
    shape = (dict(n=12, d=3, family="logistic", seed=1, reg=("elastic_net", 1e-3, 1e-3)),
             dict(alpha=1.0, batch_size=3, cache_checkpoint_grads=True), 40)
    monkeypatch.setattr(pair_bench, "SHAPES", {"12x3 toy": shape})
    monkeypatch.setattr(pair_bench, "GRID", {(100, 10): 1, (3 * 2**30, 3): 1})
    monkeypatch.setattr(pair_bench, "GRID_STEP", 0.5)
    monkeypatch.setattr(pair_bench, "T_MAX", 40)
    monkeypatch.setattr(pair_bench, "TEXTS", {"30x5 toy": (30, 5, 0.5), "40x2 toy": (40, 2, 1.0)})
    monkeypatch.setattr(pair_bench, "REFERENCES", {
        "12x3 l1": (dict(n=12, d=3, family="least_squares", seed=1, reg=("l1", 0.05)),
                    dict(tol=1e-10)),
        "12x3 l1 capped": (dict(n=12, d=3, family="least_squares", seed=1, reg=("l1", 0.05)),
                           dict(tol=1e-300, max_iterations=5)),
        "12x3 lstsq": (dict(n=12, d=3, family="least_squares", seed=1), dict(tol=1e-12)),
    })
    monkeypatch.setattr(pair_bench, "REPEATS", dict.fromkeys(pair_bench.REPEATS, 3))
    return pair_bench


def test_step_bench_times_this_tree(pair_bench, capsys):
    pair_bench.main(["step"])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["openblas_threads", "12x3 toy"] and out["openblas_threads"] == 1
    assert len(out["12x3 toy"]["runs"]) == 3 and out["12x3 toy"]["median_us"] > 0


def test_step_bench_records_at_a_shape_s_own_stride(pair_bench, capsys, monkeypatch):
    from katyusha_h import optimizers

    data, config, iterations = pair_bench.SHAPES["12x3 toy"]
    monkeypatch.setattr(pair_bench, "SHAPES", {
        "toy": (data, config, iterations),
        "toy stride=4": (data, dict(config, record_every=4), iterations)})
    counts = []
    real = optimizers.run
    monkeypatch.setattr(optimizers, "run",
                        lambda *args: counts.append(len(real(*args))) or counts[-1])
    pair_bench.main(["step"])
    # per shape, one warm-up run, then the three repeats
    assert counts == [2] * 4 + [iterations // 4 + 1] * 4


def test_step_bench_pairs_against_another_tree(pair_bench, capsys):
    pair_bench.main(["step", "--against", str(ROOT / "src")])
    point = json.loads(capsys.readouterr().out)["12x3 toy"]
    assert set(point) == {"this", "other", "median_ratio", "lower_in"}
    assert point["other"]["q1_us"] <= point["other"]["median_us"] <= point["other"]["q3_us"]
    assert len(point["this"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


def test_draw_bench_times_this_tree(pair_bench, capsys):
    pair_bench.main(["draw"])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == ["100,10", "3221225472,3"]
    assert all(len(point["runs"]) == 3 and point["median_us"] > 0 for point in out.values())


def test_draw_bench_pairs_against_another_tree(pair_bench, capsys):
    # the other tree is this one, loaded again under another module name
    pair_bench.main(["draw", "--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == ["100,10", "3221225472,3"]
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        assert point["this"]["q1_us"] <= point["this"]["median_us"] <= point["this"]["q3_us"]
        assert len(point["other"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


def test_draw_bench_times_a_tree_from_before_next(pair_bench, monkeypatch):
    # such a tree's stream moves by subset() and reads its coin by random(),
    # one call each per timed iteration, after the first block's subset()
    calls = []

    class Stream:
        _block = 4

        def __init__(self, n, b, seed):
            pass

        def subset(self):
            calls.append("subset")

        def random(self):
            calls.append("random")

    monkeypatch.setitem(sys.modules, "old_tree.estimator", SimpleNamespace(DrawStream=Stream))
    microseconds, _ = pair_bench.draw_cases(SimpleNamespace(__name__="old_tree"))["100,10"](0)
    assert calls == ["subset"] + ["subset", "random"] * Stream._block and microseconds > 0


def test_each_side_warms_each_case_up_once_before_its_repeats(pair_bench, capsys, monkeypatch):
    calls = []

    def cases(package):
        def measure(name, seed):
            calls.append((package.__name__, name, seed))
            return 1.0, None
        return {name: partial(measure, name) for name in ("a", "b")}

    monkeypatch.setitem(pair_bench.SUITES, "step", (cases, "us"))
    pair_bench.main(["step", "--against", str(ROOT / "src")])
    this, other = "katyusha_h", "katyusha_h_against"
    for name in ("a", "b"):
        # the warm-up on seed 0, then repeats that alternate which side goes first
        assert [call for call in calls if call[1] == name] == [
            (this, name, 0), (other, name, 0),
            (this, name, 0), (other, name, 0), (other, name, 1), (this, name, 1),
            (this, name, 2), (other, name, 2)]
    assert json.loads(capsys.readouterr().out)["a"]["this"]["runs"] == [1.0] * 3


SCANS = ["certificate", "growth alpha=0.5", "growth alpha=1", "fault xi=2"]


def test_scan_bench_times_this_tree(pair_bench, capsys):
    pair_bench.main(["scan"])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == SCANS
    assert all(len(point["runs"]) == 3 and point["median_ns"] > 0 for point in out.values())


def test_scan_bench_pairs_against_another_tree(pair_bench, capsys):
    pair_bench.main(["scan", "--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == SCANS
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        assert point["this"]["q1_ns"] <= point["this"]["median_ns"] <= point["this"]["q3_ns"]
        assert len(point["other"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


def test_scan_bench_exits_one_when_the_reports_differ(pair_bench, capsys, tmp_path):
    # the other tree certifies c <= 5.5 where this one certifies c <= 5
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "katyusha_h", other / "katyusha_h")
    schedule = other / "katyusha_h" / "schedule.py"
    schedule.write_text(schedule.read_text().replace("C_MAX = 5.0", "C_MAX = 5.5"))
    with pytest.raises(SystemExit, match="report differently on certificate, fault xi=2"):
        pair_bench.main(["scan", "--against", str(other)])
    assert list(json.loads(capsys.readouterr().out)) == ["openblas_threads", *SCANS]


TEXTS = ["30x5 toy", "40x2 toy"]


def test_parse_bench_times_this_tree(pair_bench, capsys):
    pair_bench.main(["parse"])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == TEXTS
    assert all(len(point["runs"]) == 3 and point["median_ns"] > 0 for point in out.values())


def test_parse_bench_pairs_against_another_tree(pair_bench, capsys):
    pair_bench.main(["parse", "--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == TEXTS
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        assert point["this"]["q1_ns"] <= point["this"]["median_ns"] <= point["this"]["q3_ns"]
        assert len(point["other"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


def test_parse_bench_text_is_the_workload_s_data_file(pair_bench, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    for name in ("calibration", "workloads"):  # imported here, dropped at teardown
        monkeypatch.setitem(sys.modules, name, None)
        del sys.modules[name]
    from workloads import CliSparseCached

    # the toy workload writes 400 rows of 10 columns at density 0.2
    CliSparseCached().prepare(seed=3, toy=True, workdir=tmp_path)
    written = (tmp_path / "cli" / "data.txt").read_text()
    assert pair_bench.libsvm_text(400, 10, 0.2, 3) == written


@pytest.mark.parametrize("old, new", [
    # the other tree reads one more column, or negates every value
    ("d=int(indices.max(initial=0))", "d=int(indices.max(initial=0)) + 1"),
    ("self.values = np.asarray(", "self.values = -np.asarray("),
])
def test_parse_bench_exits_one_when_the_parses_differ(pair_bench, capsys, tmp_path, old, new):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "katyusha_h", other / "katyusha_h")
    module = other / "katyusha_h" / "problems.py"
    assert old in module.read_text()
    module.write_text(module.read_text().replace(old, new))
    with pytest.raises(SystemExit, match="report differently on 30x5 toy, 40x2 toy"):
        pair_bench.main(["parse", "--against", str(other)])
    assert list(json.loads(capsys.readouterr().out)) == ["openblas_threads", *TEXTS]


REFERENCES = ["12x3 l1", "12x3 l1 capped", "12x3 lstsq"]


def test_ref_bench_times_this_tree(pair_bench, capsys, recwarn):
    pair_bench.main(["ref"])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == REFERENCES
    assert all(len(point["runs"]) == 3 and point["median_ms"] > 0 for point in out.values())
    assert not recwarn.list  # the capped solve's warning is expected, and kept quiet


def test_ref_bench_pairs_against_another_tree(pair_bench, capsys):
    pair_bench.main(["ref", "--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == REFERENCES
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        assert point["this"]["q1_ms"] <= point["this"]["median_ms"] <= point["this"]["q3_ms"]
        assert len(point["other"]["runs"]) == 3 and point["lower_in"].endswith(" of 3")


@pytest.mark.parametrize("module, old, new, differ", [
    # a wider radius proxy moves FISTA's certificate, not the direct solve's
    ("optimizers", "max(1.0, 2.0 *", "max(1.0, 4.0 *", "12x3 l1, 12x3 l1 capped"),
    # the direct solve's point moves by one rounding; FISTA's solves do not
    ("problems", "x_star = Vt.T @ (coef * (U.T @ problem.targets))",
     "x_star = Vt.T @ (coef * (U.T @ problem.targets)) * (1 + 2**-52)", "12x3 lstsq"),
])
def test_ref_bench_exits_one_when_the_solutions_differ(
        pair_bench, capsys, tmp_path, module, old, new, differ):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "katyusha_h", other / "katyusha_h")
    path = other / "katyusha_h" / f"{module}.py"
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(SystemExit, match=f"report differently on {differ}$"):
        pair_bench.main(["ref", "--against", str(other)])
    assert list(json.loads(capsys.readouterr().out)) == ["openblas_threads", *REFERENCES]


def test_ref_bench_cases_are_the_workloads_set_up_solves(monkeypatch):
    # seeds_lyapunov's l1 solve and sweep_crossover's direct one, at full
    # size: the same problem and the same reference, bit for bit
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    for name in ("calibration", "workloads"):  # imported here, dropped at teardown
        monkeypatch.setitem(sys.modules, name, None)
        del sys.modules[name]
    import pair_bench
    import workloads

    import katyusha_h
    from katyusha_h.problems import solve_reference

    for case, workload in (("100x20 l1", workloads.SeedsLyapunov()),
                           ("2000x50 lstsq", workloads.SweepCrossover())):
        data, kwargs = pair_bench.REFERENCES[case]
        theirs = workload.setup(workload.prepare(seed=0, toy=False, workdir=None))["problem"]
        mine = pair_bench.build(katyusha_h, data)
        assert (mine.A.tobytes(), mine.targets.tobytes(), mine.reg) == (
            theirs.A.tobytes(), theirs.targets.tobytes(), theirs.reg)
        ref, expected = solve_reference(mine, **kwargs), theirs.reference
        assert ref.x_star.tobytes() == expected.x_star.tobytes()
        assert (ref.f_star, ref.gap_tolerance, ref.method, ref.iterations) == (
            expected.f_star, expected.gap_tolerance, expected.method, expected.iterations)


def toy_problems(lam1_b=0.01):
    """Two toy problems; ``lam1_b`` sets the second one's l1 weight."""
    from katyusha_h import Regularizer, synthesize, with_reference

    out = {}
    for name, lam1 in (("toy_a", 0.01), ("toy_b", lam1_b)):
        _, problem = synthesize(12, 3, "logistic", seed=2, reg=Regularizer.l1(lam1))
        out[name] = with_reference(problem, tol=1e-10)
    return out


@pytest.fixture
def trace_digest(monkeypatch):
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import trace_digest

    # 2 problems x 2 alphas x 2 batch sizes x cache on/off x 2 stops = 32 runs
    monkeypatch.setattr(trace_digest, "problems", toy_problems)
    monkeypatch.setattr(trace_digest, "ALPHAS", (0.0, 1.0))
    monkeypatch.setattr(trace_digest, "BATCHES", (2, None))
    monkeypatch.setattr(trace_digest, "STOPS", {
        "iterations": dict(iterations=30, record_every=1),
        "epsilon": dict(epsilon=1e-5, max_iterations=2000, record_every=5),
    })
    return trace_digest


DIGEST_LINES = re.compile(
    r"^toy_a: (?P<toy_a>16 runs sha256 [0-9a-f]{64})\n"
    r"toy_b: (?P<toy_b>16 runs sha256 [0-9a-f]{64})\n"
    r"all: (?P<all>32 runs sha256 [0-9a-f]{64}) openblas_threads=1\n$")


def recorded(out: str) -> dict:
    """The digests that ``out`` prints, as the script's RECORDED holds them."""
    return DIGEST_LINES.match(out).groupdict()


def test_trace_digest_line_repeats(trace_digest, capsys):
    assert trace_digest.main([]) == 1  # nothing recorded for the toy grid
    first = capsys.readouterr().out
    trace_digest.main([])
    assert capsys.readouterr().out == first and DIGEST_LINES.match(first)


def test_trace_digest_exit_code_compares_with_the_recorded_line(
        trace_digest, capsys, monkeypatch):
    trace_digest.main([])
    lines = recorded(capsys.readouterr().out)
    monkeypatch.setattr(trace_digest, "RECORDED", lines)
    assert trace_digest.main([]) == 0
    assert capsys.readouterr().err == ""
    last = lines["toy_b"][-1]
    monkeypatch.setattr(trace_digest, "RECORDED",
                        dict(lines, toy_b=lines["toy_b"][:-1] + ("0" if last != "0" else "1")))
    assert trace_digest.main([]) == 1
    assert capsys.readouterr().err == "digest moved: toy_b\n"


def test_trace_digest_names_the_problem_whose_runs_moved(trace_digest, capsys, monkeypatch):
    trace_digest.main([])
    before = recorded(capsys.readouterr().out)
    monkeypatch.setattr(trace_digest, "RECORDED", before)
    monkeypatch.setattr(trace_digest, "problems", lambda: toy_problems(lam1_b=0.02))
    assert trace_digest.main([]) == 1
    out, err = capsys.readouterr()
    after = recorded(out)
    assert after["toy_a"] == before["toy_a"] and after["toy_b"] != before["toy_b"]
    assert err == "digest moved: toy_b, all\n"


def test_trace_digest_verbose_prints_one_line_per_run(trace_digest, capsys):
    trace_digest.main(["--verbose"])
    lines = capsys.readouterr().out.splitlines()
    runs = [line for line in lines if " alpha=" in line]
    assert len(runs) == 32 and len(lines) == 35
    assert runs[0] == f"toy_a alpha=0.0 b=2 cache=0 iterations: {runs[0][-64:]}"
    assert len({run[-64:] for run in runs}) == 32  # every run hashes differently
