"""The scripts under tools/ run: the timing script compares two trees in one
process, and the trace digest hashes a grid of runs the same way each time."""

import dataclasses
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

    from katyusha_h import Regularizer

    # one toy shape that still passes a two-weight regularizer and a cache flag
    shape = (dict(n=12, d=3, family="logistic", seed=1, reg=Regularizer.elastic_net(1e-3, 1e-3)),
             dict(alpha=1.0, batch_size=3, cache_checkpoint_grads=True), 40)
    monkeypatch.setattr(pair_bench, "SHAPES", {"12x3 toy": shape})
    monkeypatch.setattr(pair_bench, "GRID", {(100, 10): 1, (3 * 2**30, 3): 1})
    monkeypatch.setattr(pair_bench, "GRID_STEP", 0.5)
    monkeypatch.setattr(pair_bench, "T_MAX", 40)
    monkeypatch.setattr(pair_bench, "TEXTS", {"30x5 toy": (30, 5, 0.5), "40x2 toy": (40, 2, 1.0)})
    toy = dict(n=12, d=3, family="least_squares", seed=1)
    toy_l1 = dict(toy, reg=Regularizer.l1(0.05))
    monkeypatch.setattr(pair_bench, "REFERENCES", {
        "12x3 l1": (toy_l1, dict(tol=1e-10)),
        "12x3 l1 capped": (toy_l1, dict(tol=1e-300, max_iterations=5)),
        "12x3 lstsq": (toy, dict(tol=1e-12)),
    })
    # toy criteria, each with a second alpha so that a cell picks one by index
    l1 = dict(instance=toy_l1, reference=dict(tol=1e-10))
    monkeypatch.setattr(pair_bench, "CRITERION_CELLS", {
        "05 toy": (dict(l1, config=dict(iterations=30, record_every=30, lyapunov=True),
                        alphas=(0.0, 0.5), batch_sizes=(3,), seeds=range(4)), 1, 0),
        "09 toy": (dict(instance=toy, reference=None,
                        config=dict(iterations=40, record_every=40),
                        alphas=(0.5, 1.0), batch_sizes=(1, 2), seeds=range(3)), 0, 1),
        "10 toy": (dict(l1, config=dict(epsilon=1e-4, record_every=10**9, eval_every=5,
                                        max_iterations=5000),
                        alphas=(0.2, 1.0), batch_sizes=(1,), seeds=range(3)), 0, 0),
    })
    # cli_sparse_cached's toy config
    monkeypatch.setattr(pair_bench, "RUNS", {
        "400x10 toy": ((400, 10, 0.2), dict(b=20, iterations=100, seeds="0 1", stride=10))})
    monkeypatch.setattr(pair_bench, "REPEATS", dict.fromkeys(pair_bench.REPEATS, 3))
    return pair_bench


# suite: its toy cases and the unit that suffixes the keys of their times
SUITE_CASES = {
    "step": (["12x3 toy"], "us"),
    "draw": (["100,10", "3221225472,3"], "us"),
    "scan": (["certificate", "growth alpha=0.5", "growth alpha=1", "fault xi=2"], "ns"),
    "parse": (["30x5 toy", "40x2 toy"], "ns"),
    "ref": (["12x3 l1", "12x3 l1 capped", "12x3 lstsq"], "ms"),
    "seeds": (["05 toy", "09 toy", "10 toy"], "s"),
    "run": (["400x10 toy"], "ms"),
}


@pytest.mark.parametrize("suite", SUITE_CASES)
def test_a_suite_times_this_tree(pair_bench, capsys, recwarn, suite):
    cases, unit = SUITE_CASES[suite]
    pair_bench.main([suite])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == cases
    assert all(len(point["runs"]) == 3 and point[f"median_{unit}"] > 0 for point in out.values())
    assert not recwarn.list  # the ref suite's capped solve warns, and is kept quiet


@pytest.mark.parametrize("suite", SUITE_CASES)
def test_a_suite_pairs_against_another_tree(pair_bench, capsys, suite):
    # the other tree is this one, loaded again under another module name
    cases, unit = SUITE_CASES[suite]
    pair_bench.main([suite, "--against", str(ROOT / "src")])
    out = json.loads(capsys.readouterr().out)
    assert out.pop("openblas_threads") == 1 and list(out) == cases
    for point in out.values():
        assert set(point) == {"this", "other", "median_ratio", "lower_in"}
        for side in (point["this"], point["other"]):
            assert side[f"q1_{unit}"] <= side[f"median_{unit}"] <= side[f"q3_{unit}"]
            assert len(side["runs"]) == 3
        assert point["lower_in"].endswith(" of 3")


@pytest.mark.parametrize("suite, module, old, new, differ", [
    # the other tree certifies c <= 5.5 where this one certifies c <= 5
    ("scan", "schedule", "C_MAX = 5.0", "C_MAX = 5.5", "certificate, fault xi=2"),
    # the other tree reads one more column, or negates every value
    ("parse", "problems", "d=int(indices.max(initial=0))", "d=int(indices.max(initial=0)) + 1",
     "30x5 toy, 40x2 toy"),
    ("parse", "problems", "self.values = np.asarray(", "self.values = -np.asarray(",
     "30x5 toy, 40x2 toy"),
    # a wider radius proxy moves FISTA's certificate, not the direct solve's
    ("ref", "optimizers", "max(1.0, 2.0 *", "max(1.0, 4.0 *", "12x3 l1, 12x3 l1 capped"),
    # the direct solve's point moves by one rounding; FISTA's solves do not
    ("ref", "problems", "x_star = Vt.T @ (coef * (U.T @ problem.targets))",
     "x_star = Vt.T @ (coef * (U.T @ problem.targets)) * (1 + 2**-52)", "12x3 lstsq"),
    # a Lyapunov value that halves its distance term moves only the cell that records them
    ("seeds", "analysis", "float(dz @ dz) / (2.0 * eta)", "float(dz @ dz) / (4.0 * eta)",
     "05 toy"),
    # a looser epsilon test stops only the epsilon-stopped cell earlier
    ("seeds", "optimizers", "<= config.epsilon", "<= 2 * config.epsilon", "10 toy"),
    # a trace that counts one IFO more in its total column
    ("run", "experiment", "str(rec.ifo_total)", "str(rec.ifo_total + 1)", "400x10 toy"),
])
def test_a_suite_exits_one_when_the_trees_report_differently(
        pair_bench, capsys, tmp_path, suite, module, old, new, differ):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "katyusha_h", other / "katyusha_h")
    path = other / "katyusha_h" / f"{module}.py"
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(SystemExit, match=f"report differently on {differ}$"):
        pair_bench.main([suite, "--against", str(other)])
    cases, _ = SUITE_CASES[suite]
    assert list(json.loads(capsys.readouterr().out)) == ["openblas_threads", *cases]


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


def test_run_bench_replaces_the_traces_of_the_repeat_before(pair_bench, capsys, monkeypatch):
    # every repeat writes the same two traces, which the warm-up made first
    from katyusha_h import experiment

    writes = []
    real = experiment.write_utf8
    monkeypatch.setattr(experiment, "write_utf8",
                        lambda p, text: writes.append((p, p.exists())) or real(p, text))
    pair_bench.main(["run"])
    names = ["trace_katyusha_h_seed0.csv", "trace_katyusha_h_seed1.csv"]
    assert [path.name for path, _ in writes] == names * 4
    assert len({path.parent for path, _ in writes}) == 1
    assert [existed for _, existed in writes] == [False] * 2 + [True] * 6


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


def test_seeds_bench_runs_the_seeds_together_on_a_tree_with_run_seeds(pair_bench, monkeypatch):
    # such a tree runs a cell's seeds by one run_seeds call at the alpha and b
    # the cell's indices pick, and its records digest as run's per seed do
    import katyusha_h
    from katyusha_h import optimizers

    calls = []

    def run_seeds(problem, config, seeds):
        calls.append((config.alpha, config.batch_size, config.seed, seeds))
        return [optimizers.run(problem, dataclasses.replace(config, seed=s)) for s in seeds]

    monkeypatch.setitem(sys.modules, "lanes_tree.optimizers", SimpleNamespace(
        RunConfig=optimizers.RunConfig, run_seeds=run_seeds))
    names = ("Regularizer", "synthesize", "with_reference")
    lanes = pair_bench.seeds_cases(SimpleNamespace(
        __name__="lanes_tree", **{name: getattr(katyusha_h, name) for name in names}))
    per_seed = pair_bench.seeds_cases(katyusha_h)
    for name, alpha, b, seeds in (("05 toy", 0.5, 3, 4), ("09 toy", 0.5, 2, 3),
                                  ("10 toy", 0.2, 1, 3)):
        assert lanes[name](0)[1] == per_seed[name](0)[1]
        assert calls.pop(0) == (alpha, b, 0, range(seeds))


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
