"""CLI subcommands, config handling, trace files, and exit codes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from katyusha_h import experiment, optimizers, schedule, verification
from katyusha_h.cli import main
from katyusha_h.experiment import (
    SOLVERS,
    TRACE_COLUMNS,
    TRACE_FORMAT,
    ConfigError,
    ExperimentConfig,
    OutputSpec,
    ProblemSpec,
    ReferenceSpec,
    RunSpec,
    SolverSpec,
    SweepSpec,
    build_problem,
    load_config,
    read_trace,
    run_command,
    run_single,
    sweep_command,
)
from katyusha_h.optimizers import RunConfig
from katyusha_h.problems import dataset_from_dense, serialize_libsvm, synthesize, with_reference

HUGE = str(10**400)  # an integer whose arithmetic would overflow a float

BASE_CONFIG = """\
[problem]
family = least_squares
n = 30
d = 6
seed = 5
reg = l1
lam1 = 0.05
noise = 0.2

[solver]
method = katyusha_h
alpha = 0.5
b = 2

[run]
iterations = 40
seeds = 0 1

[output]
directory = {out}
trace_stride = 1
lyapunov = true

[reference]
tol = 1e-12
"""


@pytest.fixture
def config_path(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG.format(out=out))
    return path


class TestConfig:
    def test_load_round_trip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.problem.n == 30 and cfg.problem.reg == "l1"
        assert cfg.run.seeds == (0, 1)
        assert cfg.reference is not None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\nbogus = 1\n\n[run]\niterations = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_type_error_names_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\niterations = soon\n")
        with pytest.raises(ConfigError, match="iterations"):
            load_config(path)

    def test_epsilon_requires_reference(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nepsilon = 1e-4\n")
        with pytest.raises(ConfigError, match="reference"):
            load_config(path)

    def test_both_stopping_rules_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\niterations = 5\nepsilon = 1e-4\n\n[reference]\ntol = 1e-10\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("text", ["n = 3\n", "[problem]\nn = 3\nn = 4\n"])
    def test_unparsable_file(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"cannot parse {re.escape(str(path))}: "):
            load_config(path)

    def test_readme_example_loads(self, tmp_path):
        # the documented keys are the ones the loader reads
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [example] = [block.removeprefix("ini\n") for block in readme.split("```")[1::2]
                     if block.startswith("ini\n")]
        path = tmp_path / "exp.ini"
        path.write_text(example)
        cfg = load_config(path)
        assert (cfg.solver.b, cfg.run.iterations, cfg.run.seeds) == (10, 1000, (0, 1, 2))
        assert cfg.output.lyapunov and cfg.reference is not None

    @pytest.mark.parametrize(
        "problem, message",
        [
            ("reg = l1\nlam1 = 0.01\nlam2 = 5.0\n", "l1 regularizer has no squared-l2"),
            ("reg = zero\nlam1 = 0.5\n", "zero regularizer takes no weights"),
            ("reg = ridge\n", "unknown regularizer kind"),
            ("reg = squared_l2\nlam1 = 0.1\nlam2 = 0.5\n", "squared-l2 regularizer has no l1"),
        ],
        ids=["l1-with-lam2", "zero-with-lam1", "unknown-kind", "squared_l2-with-lam1"],
    )
    def test_regularizer_built_from_spec(self, tmp_path, capsys, problem, message):
        # a weight the kind cannot carry is an error, not silently dropped
        path = tmp_path / "bad.ini"
        path.write_text(f"[problem]\n{problem}\n[run]\niterations = 1\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            (ProblemSpec(reg="nope"), "unknown regularizer kind 'nope'"),
            (ProblemSpec(reg="zero", lam1=1.0), "zero regularizer takes no weights"),
        ],
        ids=["unknown-kind", "zero-with-lam1"],
    )
    def test_build_problem_reads_the_label(self, spec, message):
        # the label lives only in the config: build_problem checks it as load_config does
        with pytest.raises(ConfigError, match=message):
            build_problem(ExperimentConfig(problem=spec))

    def test_missing_dataset_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[problem]\ndata = nowhere.txt\n\n[run]\niterations = 1\n")
        with pytest.raises(ConfigError, match="nowhere"):
            load_config(path)

    @pytest.mark.parametrize("lam1", ["nan", "inf"])
    def test_non_finite_weight_is_exit_two(self, tmp_path, capsys, lam1):
        path = tmp_path / "bad.ini"
        path.write_text(f"[problem]\nreg = l1\nlam1 = {lam1}\n\n[run]\niterations = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "weights must be nonnegative and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eta", ["auto", "0.01"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_eta_is_an_unknown_key(self, config_path, tmp_path, capsys, command, eta):
        # every run steps at 1/((c+1)*L): a leftover eta line is refused, not skipped
        config_path.write_text(config_path.read_text().replace("b = 2\n", f"b = 2\neta = {eta}\n"))
        args = [command, "--config", str(config_path), "--out", str(tmp_path / "o")]
        if command == "sweep":
            args += ["--alphas", "0,1", "--bs", "1"]
        assert main(args) == 2
        assert "[solver] unknown key 'eta'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("condition", "nan", "condition must be in [1, inf), got nan"),
        ("noise", "-0.5", "noise must be in [0, inf), got -0.5"),
    ])
    def test_generator_parameter_outside_range_is_exit_two(
        self, tmp_path, capsys, key, value, message
    ):
        path = tmp_path / "bad.ini"
        path.write_text(f"[problem]\n{key} = {value}\n\n[run]\niterations = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("n", "500"), ("d", "40"), ("seed", "3"), ("condition", "100"), ("noise", "0.5"),
        ("density", "0.5"), ("consistent", "yes"),
    ])
    def test_synthesis_key_beside_a_data_file_is_exit_two(
        self, tmp_path, capsys, key, value
    ):
        # the data file fixes the problem, so the key would be dropped unread
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5 3:-2\n-1 2:1e-3\n1 1:1\n-1 3:2\n")
        path = tmp_path / "bad.ini"
        path.write_text(f"[problem]\ndata = {data}\n{key} = {value}\n\n[run]\niterations = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"[problem] {key} is not read when [problem] data is set" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synthesis_defaults_spelled_out_beside_a_data_file_run(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5 3:-2\n-1 2:1e-3\n1 1:1\n-1 3:2\n")
        path = tmp_path / "exp.ini"
        path.write_text(f"[problem]\ndata = {data}\nn = 100\nnoise = 0.1\n\n[run]\niterations = 1\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def _write_sections(path, sections: dict[str, dict[str, str]]):
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()
    ))
    return path


class TestConfigKeys:
    """Each section's keys are its spec's fields, parsed as the field's type."""

    SPECS = {"problem": ProblemSpec, "solver": SolverSpec, "run": RunSpec,
             "output": OutputSpec, "reference": ReferenceSpec, "sweep": SweepSpec}
    # (section, key) -> (raw value, parsed value); data is set to a file made per test
    VALUES = {
        ("problem", "family"): ("logistic", "logistic"),
        ("problem", "n"): ("12", 12),
        ("problem", "d"): ("3", 3),
        ("problem", "seed"): ("4", 4),
        ("problem", "condition"): ("2.5", 2.5),
        ("problem", "noise"): ("0.3", 0.3),
        ("problem", "density"): ("0.5", 0.5),
        ("problem", "consistent"): ("yes", True),
        ("problem", "data"): (None, None),
        ("problem", "reg"): ("squared_l2", "squared_l2"),
        ("problem", "lam1"): ("0.01", 0.01),
        ("problem", "lam2"): ("0.02", 0.02),
        ("solver", "method"): ("fista", "fista"),
        ("solver", "alpha"): ("0.25", 0.25),
        ("solver", "b"): ("3", 3),
        ("solver", "cache_checkpoint_grads"): ("on", True),
        ("run", "iterations"): ("7", 7),
        ("run", "epsilon"): ("1e-5", 1e-5),
        ("run", "seeds"): ("3, 4 5", (3, 4, 5)),
        ("run", "eval_every"): ("4", 4),
        ("run", "max_iterations"): ("99", 99),
        ("output", "directory"): ("elsewhere", "elsewhere"),
        ("output", "trace_stride"): ("6", 6),
        ("output", "lyapunov"): ("true", True),
        ("reference", "tol"): ("1e-9", 1e-9),
        ("reference", "max_iterations"): ("500", 500),
        ("sweep", "alphas"): ("0 0.5, 1", (0.0, 0.5, 1.0)),
        ("sweep", "bs"): ("1 2", (1, 2)),
    }

    def test_sections_and_keys_are_the_spec_fields(self):
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} == set(self.SPECS)
        keys = {(name, f.name) for name, spec in self.SPECS.items()
                for f in dataclasses.fields(spec)}
        assert keys == set(self.VALUES)

    @pytest.mark.parametrize("section, key", sorted(VALUES))
    def test_every_field_is_settable(self, tmp_path, section, key):
        raw, want = self.VALUES[section, key]
        if key == "data":
            raw = want = str(tmp_path / "d.txt")
            Path(raw).write_text("1 1:0.5\n")
        sections = {"problem": {"reg": "elastic_net"}, "run": {"iterations": "1"},
                    "reference": {}}
        sections.setdefault(section, {})[key] = raw
        if key in ("epsilon", "eval_every", "max_iterations") and section == "run":
            # keys an epsilon stop reads: an iteration budget leaves them unread
            del sections["run"]["iterations"]
            sections["run"].setdefault("epsilon", "1e-3")
        cfg = load_config(_write_sections(tmp_path / "exp.ini", sections))
        assert getattr(self.SPECS[section](), key) != want  # the default would not pass
        assert getattr(getattr(cfg, section), key) == want

    @pytest.mark.parametrize(
        "section, key, raw, message",
        [(s, "bogus", "1", f"[{s}] unknown key 'bogus'") for s in SPECS] + [
            ("problem", "n", "many", "[problem] n = 'many': expected int"),
            ("problem", "family", "hinge", "unknown problem family 'hinge'"),
            ("problem", "consistent", "maybe", "[problem] consistent = 'maybe': expected bool"),
            ("run", "seeds", "1 x", "[run] seeds = 'x': expected int"),
            ("run", "seeds", ",", "[run] seeds must not be empty"),
            ("run", "seeds", "1 -2",
             "[run] seeds: seed must be an integer in [0, 2**128), got -2"),
            ("problem", "seed", "-1",
             "[problem] seed: seed must be an integer in [0, 2**128), got -1"),
            ("problem", "seed", str(2**128), "[problem] seed: seed must be an integer"),
            ("problem", "seed", "1.5", "[problem] seed = '1.5': expected int"),
            ("output", "lyapunov", "2", "[output] lyapunov = '2': expected bool"),
            ("reference", "tol", "tiny", "[reference] tol = 'tiny': expected float"),
            ("sweep", "bs", "1.5", "[sweep] bs = '1.5': expected int"),
            ("sweep", "alphas", "", "[sweep] alphas must not be empty"),
            ("sweep", "alphas", "0.5 1 .5", "[sweep] alphas = '0.5 1 .5': '.5' repeats a value"),
            ("solver", "b", "0", "[solver] b: batch_size must be at least 1, got 0"),
            ("solver", "alpha", "2", "[solver] alpha: alpha must be in [0, 1], got 2.0"),
            ("solver", "alpha", "nan", "[solver] alpha: alpha must be in [0, 1], got nan"),
            pytest.param("solver", "b", HUGE,
                         "[solver] b: batch_size must be at most 1.79769e+308",
                         id="solver-b-10**400"),
            # numpy's own refusals ("Maximum allowed dimension exceeded") name no key
            pytest.param("problem", "n", HUGE,
                         "[problem] n: an n x d float64 array of more than", id="problem-n-10**400"),
            ("problem", "d", "0", "[problem] d must be at least 1, got 0"),
            ("problem", "n", "-3", "[problem] n must be at least 1, got -3"),
            pytest.param("problem", "d", str(2**60),
                         "[problem] d: an n x d float64 array of more than", id="problem-d-2**60"),
        ],
    )
    def test_bad_key_or_value_is_exit_two(self, tmp_path, capsys, section, key, raw, message):
        sections = {"run": {"iterations": "1"}}
        sections.setdefault(section, {})[key] = raw
        path = _write_sections(tmp_path / "bad.ini", sections)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


class TestRunCommand:
    def test_one_file_per_seed_with_expected_rows(self, config_path, tmp_path):
        paths = run_command(load_config(config_path))
        assert len(paths) == 2
        header, rows = read_trace(paths[0])
        assert len(rows) == 41  # T+1 records at stride 1
        assert [r["t"] for r in rows] == list(range(41))
        assert header["method"] == "katyusha_h"
        assert "f_star" in header
        assert header["trace_format"] == TRACE_FORMAT
        assert header["reference"] == "fista-restart"  # l1 takes the FISTA path

    @pytest.mark.parametrize("cache", ["false", "true"])
    def test_header_writes_the_step_size_and_its_constants(self, config_path, cache):
        config_path.write_text(config_path.read_text().replace(
            "b = 2\n", f"b = 2\ncache_checkpoint_grads = {cache}\n"))
        cfg = load_config(config_path)
        header, _ = read_trace(run_command(cfg)[0])
        keys = list(header)
        assert keys[keys.index("alpha"):keys.index("seed")] == [
            "alpha", "b", "eta", "c", "xi", "L", "cache_checkpoint_grads"]
        problem = build_problem(cfg)
        state = optimizers.init_state(problem, RunConfig(alpha=0.5, batch_size=2))
        assert header["eta"] == repr(state.eta)  # the step the run took
        assert header["c"] == repr(state.params.c) and header["xi"] == repr(state.params.xi)
        assert header["L"] == repr(problem.L)
        # the header alone gives the step, bit for bit
        c, L = float(header["c"]), float(header["L"])
        assert float(header["eta"]) == 1.0 / ((c + 1.0) * L)
        assert header["cache_checkpoint_grads"] == cache

    def test_problem_too_large_to_allocate_is_exit_two(
            self, config_path, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError (its _ArrayMemoryError) when it cannot allocate
        message = "Unable to allocate 22.4 GiB for an array with shape (3000000000, 1)"

        def build_problem(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(experiment, "build_problem", build_problem)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_direct_reference_named_in_header(self, config_path):
        cfg = load_config(config_path)
        cfg.problem.reg = "squared_l2"
        cfg.problem.lam1, cfg.problem.lam2 = 0.0, 0.05
        header, _ = read_trace(run_command(cfg)[0])
        assert header["reference"] == "lstsq"
        assert header["f_star_tolerance"] == repr(1e-12)

    @pytest.mark.parametrize("version", ["1", "2", "3", "4", "5"])
    def test_reads_earlier_formats(self, tmp_path, version):
        path = tmp_path / f"v{version}.csv"
        path.write_text(
            f"# trace_format = {version}\n# method = katyusha_h\n"
            "# reference = fista-restart\n"
            "t,F_y_gap,F_w_gap,p_t,ckpt_updated,ifo_total,lyapunov\n"
            "0,0.5,0.5,,0,30,\n1,0.25,0.5,1.0,1,32,0.75\n"
        )
        header, rows = read_trace(path)
        assert header["trace_format"] == version
        assert [r["t"] for r in rows] == [0, 1]
        assert rows[1]["ifo_total"] == 32 and rows[1]["lyapunov"] == 0.75

    def test_reads_format_6(self, tmp_path):
        # format 6 wrote the columns of today's format; only logistic F values moved
        path = tmp_path / "v6.csv"
        path.write_text(
            "# trace_format = 6\n# method = katyusha_h\n# reference_iterations = 12\n"
            + ",".join(TRACE_COLUMNS) + "\n0,0.5,0.5,,0,30,0,30,\n1,0.25,0.5,1.0,1,62,2,60,0.75\n"
        )
        header, rows = read_trace(path)
        assert header["trace_format"] == "6" and header["reference_iterations"] == "12"
        assert [(r["t"], r["ifo_minibatch"], r["ifo_checkpoint"]) for r in rows] == [
            (0, 0, 30), (1, 2, 60)]
        assert math.isnan(rows[0]["lyapunov"]) and rows[1]["lyapunov"] == 0.75

    def test_reads_the_ifo_split_and_the_reference_iterations(self, config_path):
        cfg = load_config(config_path)
        problem = build_problem(cfg)
        records = run_single(problem, cfg, cfg.run.seeds[0])
        header, rows = read_trace(run_command(cfg)[0])
        assert header["reference_iterations"] == str(problem.reference.iterations)
        assert [(r["ifo_minibatch"], r["ifo_checkpoint"]) for r in rows] == [
            (rec.ifo_minibatch, rec.ifo_checkpoint) for rec in records]
        assert all(r["ifo_total"] == r["ifo_minibatch"] + r["ifo_checkpoint"] for r in rows)

    @pytest.mark.parametrize("version, columns", [
        ("5", TRACE_COLUMNS),  # an earlier format wrote no IFO split
        ("6", ("t", "F_y_gap", "F_w_gap", "p_t", "ckpt_updated", "ifo_total", "lyapunov")),
        (TRACE_FORMAT, ("t", "F_y_gap", "F_w_gap", "p_t", "ckpt_updated", "ifo_total",
                        "lyapunov")),
    ])
    def test_each_format_reads_only_its_own_columns(self, tmp_path, version, columns):
        path = tmp_path / "mixed.csv"
        path.write_text(f"# trace_format = {version}\n" + ",".join(columns) + "\n")
        with pytest.raises(ValueError, match="unexpected trace columns"):
            read_trace(path)

    @pytest.mark.parametrize("version", ["8", "99"])
    def test_refuses_unknown_format(self, tmp_path, version):
        path = tmp_path / f"v{version}.csv"
        path.write_text(
            f"# trace_format = {version}\n"
            "t,F_y_gap,F_w_gap,p_t,ckpt_updated,ifo_total,lyapunov\n"
            "0,0.5,0.5,,0,30,\n"
        )
        with pytest.raises(ValueError, match=f"trace_format '{version}'"):
            read_trace(path)

    @pytest.mark.parametrize("body, message", [
        ("t,F_y_gap,F_w_gap\n", "unexpected trace columns ['t', 'F_y_gap', 'F_w_gap']"),
        (",".join(TRACE_COLUMNS) + "\n0,0.5,0.5,,0,30,0,30,\n1,0.25\n", ":4: malformed row"),
        ("", "empty trace file"),
    ])
    def test_refuses_a_malformed_trace(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# trace_format = {TRACE_FORMAT}\n{body}")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_trace(path)

    def test_seeds_diverge(self, config_path):
        p0, p1 = run_command(load_config(config_path))
        assert p0.read_bytes() != p1.read_bytes()

    def test_rerun_byte_identical(self, config_path):
        cfg = load_config(config_path)
        first = {p.name: p.read_bytes() for p in run_command(cfg)}
        second = {p.name: p.read_bytes() for p in run_command(load_config(config_path))}
        assert first == second

    def test_ifo_monotone_and_gaps_finite(self, config_path):
        paths = run_command(load_config(config_path))
        _, rows = read_trace(paths[0])
        ifo = [r["ifo_total"] for r in rows]
        assert all(b >= a for a, b in zip(ifo, ifo[1:]))
        assert all(np.isfinite(r["F_w_gap"]) for r in rows)
        assert all(np.isfinite(r["lyapunov"]) for r in rows)

    def test_main_exit_zero(self, config_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0

    def test_non_finite_objective_exits_two(self, config_path, monkeypatch, capsys):
        # a nan estimate makes the iterates nan; the first refresh puts nan in
        # w, and the epsilon test reading F(w) stops the run
        from katyusha_h import optimizers

        config_path.write_text(config_path.read_text().replace(
            "iterations = 40", "epsilon = 1e-9\nmax_iterations = 5000"))
        monkeypatch.setattr(optimizers, "svrg_estimate", lambda x, *rest: np.full_like(x, np.nan))
        assert main(["run", "--config", str(config_path)]) == 2
        assert "objective is nan at t=" in capsys.readouterr().err

    def test_seeds_flag_overrides_config(self, config_path, tmp_path, capsys):
        out = tmp_path / "override"
        assert main(["run", "--config", str(config_path), "--out", str(out),
                     "--seeds", "7"]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["trace_katyusha_h_seed7.csv"]

    def test_batch_above_n_writes_no_trace(self, config_path, tmp_path, capsys):
        cfg = config_path.read_text().replace("b = 2", "b = 40")  # n = 30
        config_path.write_text(cfg)
        out = tmp_path / "b_out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert "[solver] b: need 1 <= b <= n, got b=40, n=30" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_grid_rows(self, config_path):
        cfg = load_config(config_path)
        cfg.sweep = SweepSpec(alphas=(0.0, 0.5, 1.0), bs=(1,))
        rows, path = sweep_command(cfg)
        assert len(rows) == 3
        assert [r.alpha for r in rows] == [0.0, 0.5, 1.0]
        text = path.read_text().strip().splitlines()
        assert len(text) == 4 and text[0].startswith("alpha,b,")

    def test_aggregation_is_mean_of_final_ifo(self, config_path):
        cfg = load_config(config_path)
        cfg.sweep = SweepSpec(alphas=(0.5,), bs=(2,))
        rows, _ = sweep_command(cfg)
        problem = build_problem(cfg)
        cell = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, alpha=0.5, b=2))
        finals = [run_single(problem, cell, seed)[-1].ifo_total for seed in cfg.run.seeds]
        assert rows[0].mean_ifo == pytest.approx(float(np.mean(finals)))

    def test_main_prints_the_summary_rows(self, config_path, tmp_path, capsys):
        # each flag overrides its key: [output] directory, [run] seeds, [sweep]
        out = tmp_path / "flag_out"
        args = ["sweep", "--config", str(config_path), "--alphas", "0,1", "--bs", "1,2",
                "--seeds", "3", "--out", str(out)]
        assert main(args) == 0
        printed = capsys.readouterr().out.splitlines()
        path = out / "sweep_summary.csv"
        assert printed[0].split() == ["alpha", "b", "reached", "mean_ifo", "mean_final_gap"]
        assert printed[-1] == f"summary written to {path}"
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        assert len(printed) == len(rows) + 2 == 6
        for line, row in zip(printed[1:-1], rows):
            cell = dict(zip(header, row))
            alpha, b, reached, mean_ifo, gap = line.split()
            assert (float(alpha), int(b)) == (float(cell["alpha"]), int(cell["b"]))
            assert reached == f"{cell['reached_target']}/{cell['seeds']}" == "1/1"
            assert float(mean_ifo) == pytest.approx(float(cell["mean_ifo"]), rel=1e-5)
            assert float(gap) == pytest.approx(float(cell["mean_final_gap"]), rel=1e-5)
        assert [(r[0], r[1]) for r in rows] == [("0.0", "1"), ("0.0", "2"), ("1.0", "1"),
                                                ("1.0", "2")]

    def test_baseline_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_sections(tmp_path / "exp.ini", {
            "solver": {"method": "fista"}, "run": {"iterations": "5"},
            "output": {"directory": str(out)}, "sweep": {"alphas": "1", "bs": "1"}})
        assert main(["sweep", "--config", str(path)]) == 2
        assert "sweep supports only the katyusha_h solver" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_required(self, config_path):
        with pytest.raises(ConfigError):
            sweep_command(load_config(config_path))

    @pytest.mark.parametrize("alphas, bs, message", [
        ("0,1", "1,40", "sweep b: need 1 <= b <= n, got b=40, n=30"),
        ("0,2", "1", "sweep alpha: alpha must be in [0, 1], got 2.0"),
        ("0,1", "1,0", "sweep b: batch_size must be at least 1, got 0"),
        pytest.param("0,1", f"1,{HUGE}", "sweep b: batch_size must be at most 1.79769e+308",
                     id="0,1-1,10**400"),
    ])
    def test_bad_cell_fails_before_any_run(self, config_path, tmp_path, capsys, monkeypatch,
                                           alphas, bs, message):
        calls, built = [], []
        monkeypatch.setattr(experiment, "run_single", lambda *args: calls.append(args))
        build = experiment.build_problem
        monkeypatch.setattr(experiment, "build_problem", lambda cfg: built.append(cfg) or build(cfg))
        out = tmp_path / "sweep_out"
        args = ["sweep", "--config", str(config_path), "--alphas", alphas, "--bs", bs,
                "--out", str(out)]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not out.exists()
        assert len(built) == ("n=30" in message)  # only b <= n needs the problem

    def test_epsilon_mode_aggregates_cost_to_target(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "exp.ini"
        path.write_text(
            "[problem]\nfamily = least_squares\nn = 40\nd = 6\nseed = 2\n\n"
            "[solver]\nmethod = katyusha_h\n\n"
            "[run]\nepsilon = 1e-4\nseeds = 0 1 2\n\n"
            f"[output]\ndirectory = {out}\n\n"
            "[reference]\ntol = 1e-12\n"
        )
        cfg = load_config(path)
        cfg.sweep = SweepSpec(alphas=(1.0,), bs=(4,))
        rows, _ = sweep_command(cfg)
        assert rows[0].reached_target == 3
        assert rows[0].mean_final_gap <= 1e-4
        assert rows[0].mean_ifo > 0


class TestVerifyCommand:
    def test_default_scope_passes(self, capsys):
        code = main(["verify", "--t-max", "500", "--alpha-step", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out

    def test_fault_injection_fails(self, capsys):
        code = main([
            "verify", "--t-max", "500", "--alpha-step", "0.1",
            "--inject-fault", "xi=2",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_fault_spec_is_config_error(self, capsys):
        assert main(["verify", "--inject-fault", "tau=2"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_fault_is_exit_two(self, capsys, value):
        assert main(["verify", "--t-max", "100", "--inject-fault", f"xi={value}"]) == 2
        captured = capsys.readouterr()
        assert "--inject-fault" in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-0.1", "1.5", "nan", "inf"])
    def test_bad_alpha_step_is_exit_two(self, capsys, value):
        assert main(["verify", "--t-max", "100", "--alpha-step", value]) == 2
        captured = capsys.readouterr()
        assert "--alpha-step" in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["5e-324", "1e-12"])
    def test_alpha_step_below_the_probe_offset_is_exit_two(self, capsys, monkeypatch, value):
        def range(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(verification, "range", range, raising=False)
        assert main(["verify", "--t-max", "18", "--alpha-step", value]) == 2
        captured = capsys.readouterr()
        assert "--alpha-step: alpha grid step must be at least 1e-06" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "1.5", "0.5 -1"])
    def test_bad_growth_alpha_is_refused_before_the_certificate_scan(
        self, capsys, monkeypatch, value
    ):
        def scan_schedule(**kwargs):
            raise AssertionError("the certificate scan ran")

        monkeypatch.setattr(verification, "scan_schedule", scan_schedule)
        assert main(["verify", "--t-max", "200", "--growth-alphas", value]) == 2
        captured = capsys.readouterr()
        assert "with --t-max 200: growth scan needs alpha in (0, 1]" in captured.err
        assert captured.err.startswith("error: --growth-alphas ") and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--t-max", "17", "--t-max must be at least 18, got 17"),
            ("--t-max", "20000000", "--t-max above 1e7 risks accumulation error"),
            ("--batch-sizes", "0", "--batch-sizes must be at least 1, got 0"),
            ("--batch-sizes", "2 0", "--batch-sizes must be at least 1, got 0"),
            pytest.param("--batch-sizes", f"1,{HUGE}",
                         "--batch-sizes must be at most 1.79769e+308",
                         id="--batch-sizes-1,10**400"),
        ],
    )
    def test_bad_scan_range_is_refused_before_any_scan(
        self, capsys, monkeypatch, flag, value, message
    ):
        def scan(*args, **kwargs):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(verification, "scan_schedule", scan)
        monkeypatch.setattr(verification, "scan_denominator_growth", scan)
        assert main(["verify", "--alpha-step", "0.5", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.out == ""

    def test_coupling_range_fails_at_its_open_boundary(self, capsys):
        # xi = 0 puts the open claim xi in (0, 1) at a slack of exactly 0
        code = main(["verify", "--inject-fault", "xi=0", "--t-max", "100", "--alpha-step", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        coupling = next(line for line in out.splitlines() if line.startswith("coupling-range"))
        assert "min_slack=0.000000e+00" in coupling and coupling.endswith("| FAIL")
        failing = [line.split(" |")[0] for line in out.splitlines() if line.endswith("FAIL")]
        assert failing == ["coupling-range"]
        assert out.endswith("overall: FAIL (11 claims)\n")

    @pytest.mark.parametrize("growth_alphas", ["", "0.5,1"])
    def test_c_above_the_cap_is_a_c_bound_fail(self, capsys, monkeypatch, growth_alphas):
        # the scans record a c that compute_constants would refuse: exit 1, not 2
        monkeypatch.setattr(schedule, "growth_coefficient", lambda alpha: 1.01 / 17.0 ** alpha)
        code = main(["verify", "--alpha-step", "0.5", "--t-max", "100",
                     "--growth-alphas", growth_alphas])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        bound = next(line for line in captured.out.splitlines() if line.startswith("c-bound"))
        assert bound.endswith("at (alpha=0, b=1) | FAIL")

    def test_non_numeric_fault_is_exit_two(self, capsys):
        assert main(["verify", "--t-max", "100", "--inject-fault", "xi=abc"]) == 2
        captured = capsys.readouterr()
        assert "--inject-fault expects a number, got 'abc'" in captured.err
        assert captured.out == ""

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "cert.txt"
        code = main([
            "verify", "--t-max", "200", "--alpha-step", "0.25",
            "--growth-alphas", "1", "--report", str(report),
        ])
        assert code == 0
        assert "denominator-growth" in report.read_text()


class TestListFlags:
    """List flags parse like list config keys: an empty or malformed list is
    a usage error that names the flag."""

    @pytest.mark.parametrize(
        "command, flag, value, rest",
        [
            ("run", "--seeds", ",", []),
            ("run", "--seeds", "x", []),
            ("sweep", "--seeds", ",", ["--alphas", "1", "--bs", "1"]),
            ("sweep", "--alphas", ",", ["--bs", "1"]),
            ("sweep", "--bs", "1.5", ["--alphas", "1"]),
            ("run", "--seeds", "0,0", []),
            ("run", "--seeds", "1,-2", []),
            ("run", "--seeds", str(2**128), []),
            ("sweep", "--seeds", "0 -1", ["--alphas", "1", "--bs", "1"]),
            ("run", "--seeds", "", []),
            ("sweep", "--seeds", "", ["--alphas", "1", "--bs", "1"]),
            ("sweep", "--alphas", "", ["--bs", "1"]),
            ("sweep", "--bs", "", ["--alphas", "1"]),
        ],
    )
    def test_bad_list_is_exit_two(
        self, config_path, tmp_path, capsys, command, flag, value, rest
    ):
        out = tmp_path / "flag_out"
        args = [command, "--config", str(config_path), "--out", str(out), flag, value]
        assert main(args + rest) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_writes_no_trace(self, config_path, tmp_path, capsys):
        # numpy would refuse -2 only when its run starts, after seed 1's trace
        out = tmp_path / "seed_out"
        args = ["run", "--config", str(config_path), "--out", str(out), "--seeds", "1,-2"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "--seeds: seed must be an integer in [0, 2**128), got -2" in err
        assert not out.exists() and not list(tmp_path.rglob("trace_*.csv"))

    @pytest.mark.parametrize("flag", ["--batch-sizes", "--growth-alphas"])
    def test_verify_empty_list_is_exit_two(self, capsys, flag):
        assert main(["verify", "--t-max", "200", "--alpha-step", "0.5", flag, ","]) == 2
        assert flag in capsys.readouterr().err

    def test_verify_repeated_batch_size_is_exit_two(self, capsys):
        args = ["verify", "--t-max", "200", "--alpha-step", "0.5", "--batch-sizes", "1,1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "--batch-sizes" in captured.err and captured.out == ""

    def test_empty_growth_alphas_skips_the_growth_scan(self, capsys):
        code = main(["verify", "--t-max", "200", "--alpha-step", "0.5", "--growth-alphas", ""])
        assert code == 0
        assert "denominator-growth" not in capsys.readouterr().out


class TestSelectAlphaCommand:
    def test_reference_values(self, capsys):
        assert main(["select-alpha", "10000", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 0.502127" in out
        assert "[0.445604, 0.55865]" in out

    def test_infeasible_is_exit_two(self, capsys):
        assert main(["select-alpha", "10000", "1e-3"]) == 2
        assert "n < 1/epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("n, epsilon, alpha", [("1000", "1e-6", "0.333333"), ("1", "0.07", "1")])
    def test_single_point_interval_is_exit_zero(self, capsys, n, epsilon, alpha):
        # c1 = c2 = 1 leaves one feasible alpha, where both slacks are 0 up to rounding
        assert main(["select-alpha", n, epsilon, "--c1", "1", "--c2", "1"]) == 0
        assert f"alpha = {alpha}\n" in capsys.readouterr().out

    def test_n_too_close_to_one_over_epsilon_is_exit_two(self, capsys):
        # n * epsilon < 1, but log n / log(1/epsilon) rounds to 1
        assert main(["select-alpha", "1000000000000000", "9.99999999999999e-16",
                     "--c1", "1", "--c2", "1"]) == 2
        captured = capsys.readouterr()
        assert "n=1000000000000000 is too close to 1/epsilon" in captured.err
        assert "c2" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("n, epsilon, message", [
        ("2", "5e-309", "epsilon must be at least 1/1.79769e+308, got 5e-309"),
        ("2", "4e-324", "epsilon must be at least 1/1.79769e+308"),
        pytest.param(HUGE, "1e-6", "n must be at most 1.79769e+308, the largest float",
                     id="10**400-1e-6"),
    ])
    def test_number_beyond_float_range_is_exit_two(self, capsys, n, epsilon, message):
        # 1/epsilon or n * epsilon would overflow
        assert main(["select-alpha", n, epsilon]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_smallest_epsilon_whose_reciprocal_fits_is_exit_zero(self, capsys):
        assert main(["select-alpha", "2", "6e-309"]) == 0
        assert "alpha = " in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--c1", "--c2"])
    def test_non_finite_constant_is_exit_two(self, capsys, flag, value):
        assert main(["select-alpha", "100", "1e-4", flag, value]) == 2
        captured = capsys.readouterr()
        assert "must be finite" in captured.err and captured.out == ""


class TestSolveRefCommand:
    def test_writes_reference(self, config_path, tmp_path, capsys):
        out = tmp_path / "ref.txt"
        assert main(["solve-ref", "--config", str(config_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("f_star = ")
        assert "x_star = " in text
        assert "method = fista-restart" in text
        assert "method = fista-restart" in capsys.readouterr().out

    def test_tol_flag_is_applied(self, config_path, capsys):
        # the config asks 1e-12; the certificate recorded is never below the tol used
        assert main(["solve-ref", "--config", str(config_path), "--tol", "1e-6"]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert float(printed["gap_tolerance"]) >= 1e-6

    def test_config_without_reference_is_exit_two(self, config_path, capsys):
        config_path.write_text(config_path.read_text().replace("[reference]\ntol = 1e-12\n", "")
                               .replace("lyapunov = true", "lyapunov = false"))
        assert main(["solve-ref", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert "config has no [reference] section" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tol_that_cannot_certify_names_the_flag(self, config_path, tmp_path, capsys, tol):
        out = tmp_path / "ref.txt"
        args = ["solve-ref", "--config", str(config_path), "--tol", tol, "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "error: --tol must be positive and finite" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["solve-ref", "run"])
    def test_separable_logistic_is_exit_two(self, tmp_path, capsys, command):
        path = tmp_path / "sep.ini"
        path.write_text(
            "[problem]\nfamily = logistic\nn = 30\nd = 5\nseed = 17\n\n"
            "[run]\nepsilon = 1e-6\n\n[reference]\ntol = 1e-10\n\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main([command, "--config", str(path)]) == 2
        assert "no minimizer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve-ref", "run"])
    def test_zero_l1_weight_on_separable_logistic_is_exit_two(self, tmp_path, capsys, command):
        # reg = l1 with lam1 = 0 is no regularizer: refused as reg = zero is
        path = tmp_path / "sep.ini"
        path.write_text(
            "[problem]\nfamily = logistic\nn = 30\nd = 5\nseed = 17\nnoise = 0.0\n"
            "reg = l1\nlam1 = 0\n\n"
            "[run]\nepsilon = 1e-6\n\n[reference]\ntol = 1e-10\n\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main([command, "--config", str(path)]) == 2
        assert "no minimizer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command, stop", [
        ("solve-ref", "iterations = 40"), ("run", "iterations = 40"), ("run", "epsilon = 1e-6")])
    def test_an_overflowing_f_star_is_exit_two(self, tmp_path, capsys, command, stop):
        # targets near 1e200 with an l1 weight: F is inf at 0 and after
        # FISTA's first step, so no F* exists to measure gaps against
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 3))
        data = tmp_path / "d.txt"
        data.write_text(serialize_libsvm(dataset_from_dense(A, rng.standard_normal(20) * 1e200)))
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[problem]\nfamily = least_squares\ndata = {data}\nreg = l1\nlam1 = 0.1\n\n"
            f"[run]\n{stop}\n\n[reference]\nmax_iterations = 500\n\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: reference solve (fista-restart): objective is inf at "
                                "t=1: the run cannot reach its target\n")
        assert captured.out == "" and not (tmp_path / "out").exists()


class TestNonFiniteInputs:
    def test_non_finite_data_file_is_exit_two(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5 2:1\n-1 1:nan\n")
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[problem]\nfamily = logistic\ndata = {data}\n\n"
            f"[run]\niterations = 5\n\n[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err
        assert main(["parse-data", str(data)]) == 2


class TestRunCadenceValidation:
    def _config(self, tmp_path, run="", output="", stop="epsilon = 1e-6",
                reference="tol = 1e-10\n"):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[problem]\nfamily = least_squares\nn = 20\nd = 4\nseed = 3\n\n"
            "[solver]\nmethod = fista\n\n"
            f"[run]\n{stop}\n{run}\n[reference]\n{reference}\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n{output}"
        )
        return path

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_eval_every_below_one_is_exit_two(self, tmp_path, capsys, value):
        path = self._config(tmp_path, run=f"eval_every = {value}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "eval_every" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_trace_stride_below_one_is_exit_two(self, tmp_path, capsys, value):
        path = self._config(tmp_path, output=f"trace_stride = {value}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "trace_stride" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "stop, run, key",
        [
            pytest.param("iterations = -3", "", "iterations", id="iterations=-3"),
            pytest.param("epsilon = -1e-3", "", "epsilon", id="epsilon=-1e-3"),
            pytest.param("epsilon = nan", "", "epsilon", id="epsilon=nan"),
            pytest.param("epsilon = 1e-6", "max_iterations = -1", "max_iterations",
                         id="max_iterations=-1"),
            pytest.param("iterations = 10", "max_iterations = 0", "max_iterations",
                         id="max_iterations=0"),
        ],
    )
    def test_stopping_rule_out_of_range_is_exit_two(
        self, tmp_path, capsys, command, stop, run, key
    ):
        path = self._config(tmp_path, run=run, stop=stop)
        assert main([command, "--config", str(path)]) == 2
        assert f"[run] {key} must" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "reference, key",
        [
            pytest.param("max_iterations = 0\n", "max_iterations", id="max_iterations=0"),
            pytest.param("max_iterations = -5\n", "max_iterations", id="max_iterations=-5"),
            pytest.param("tol = 0\n", "tol", id="tol=0"),
            pytest.param("tol = -1e-9\n", "tol", id="tol=-1e-9"),
            pytest.param("tol = nan\n", "tol", id="tol=nan"),
            pytest.param("tol = inf\n", "tol", id="tol=inf"),
        ],
    )
    def test_reference_that_cannot_certify_is_exit_two(
        self, tmp_path, capsys, command, reference, key
    ):
        path = self._config(tmp_path, reference=reference)
        assert main([command, "--config", str(path)]) == 2
        assert f"[reference] {key} must" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("eval_every", "5"), ("max_iterations", "3")])
    def test_epsilon_key_beside_an_iteration_budget_is_exit_two(
        self, tmp_path, capsys, key, value
    ):
        # an iteration budget reads neither, so the key would be dropped unread
        path = self._config(tmp_path, run=f"{key} = {value}\n", stop="iterations = 10")
        assert main(["run", "--config", str(path)]) == 2
        assert f"[run] {key} is not read when [run] iterations is set" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_valid_cadence_runs(self, tmp_path):
        path = self._config(tmp_path, run="eval_every = 5\n", output="trace_stride = 3\n")
        assert main(["run", "--config", str(path)]) == 0


# Out-of-range run values: the RunConfig fields set, whether the problem has a
# reference, and the field the engine names as the config layer names the key.
RUN_RULE_CASES = {
    "iterations=-1": (dict(iterations=-1), True, "iterations", "[run] iterations"),
    "epsilon=0": (dict(epsilon=0.0), True, "epsilon", "[run] epsilon"),
    "epsilon=nan": (dict(epsilon=math.nan), True, "epsilon", "[run] epsilon"),
    "epsilon=inf": (dict(epsilon=math.inf), True, "epsilon", "[run] epsilon"),
    "max_iterations=0": (dict(epsilon=1e-3, max_iterations=0), True,
                         "max_iterations", "[run] max_iterations"),
    "eval_every=0": (dict(epsilon=1e-3, eval_every=0), True, "eval_every", "[run] eval_every"),
    "trace_stride=0": (dict(iterations=5, record_every=0), True,
                       "record_every", "[output] trace_stride"),
    "both-stops": (dict(iterations=5, epsilon=1e-3), True,
                   "iterations / epsilon", "[run] iterations / [run] epsilon"),
    "no-stop": ({}, True, "iterations / epsilon", "[run] iterations / [run] epsilon"),
    "epsilon-without-reference": (dict(epsilon=1e-3), False, "epsilon", "[run] epsilon"),
    "lyapunov-without-reference": (dict(iterations=5, lyapunov=True), False,
                                   "lyapunov", "[output] lyapunov"),
}


class TestRunRules:
    """The engine and the config layer refuse the same run values with the
    same message, one naming the field and the other its key."""

    @pytest.mark.parametrize("case", sorted(RUN_RULE_CASES))
    def test_engine_and_config_refuse_alike(self, tmp_path, case):
        values, has_reference, field_name, key = RUN_RULE_CASES[case]
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        if has_reference:
            with_reference(prob)
        messages = set()
        for solver in SOLVERS.values():
            with pytest.raises(ValueError) as refused:
                getattr(optimizers, solver)(prob, RunConfig(**values))
            messages.add(str(refused.value))
        (message,) = messages
        assert field_name in message

        sections = {"run": {}, **({"reference": {}} if has_reference else {})}
        for name, value in values.items():
            section, config_key = experiment.RUN_KEYS[name]
            sections.setdefault(section, {})[config_key] = str(value).lower()
        with pytest.raises(ConfigError) as refused:
            load_config(_write_sections(tmp_path / "exp.ini", sections))
        assert str(refused.value) == message.replace(field_name, key)


class TestParseDataCommand:
    def test_happy_path_and_canonical_output(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5 3:-2\n-1 2:1e-3\n")
        canon = tmp_path / "c.txt"
        assert main(["parse-data", str(data), "--out", str(canon)]) == 0
        assert canon.read_text() == "1.0 1:0.5 3:-2.0\n-1.0 2:0.001\n"

    def test_summary_counts(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5 3:-2\n\n-1 2:1e-3 7:4\n0.5\n")
        assert main(["parse-data", str(data)]) == 0
        assert capsys.readouterr().out == (
            "rows = 3\ndimension = 7\nnonzeros = 4\nlabel range = [-1, 1]\n"
        )

    def test_malformed_is_exit_two_with_line(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5\n1 5:1 2:2\n")
        assert main(["parse-data", str(data)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["parse-data", str(tmp_path / "ghost.txt")]) == 2

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_empty_file_is_refused_before_any_output(self, tmp_path, capsys, text):
        data = tmp_path / "d.txt"
        data.write_text(text)
        assert main(["parse-data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert str(data) in err and "no data rows" in err


class TestBadDataFile:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "text, message",
        [("", "empty dataset"), ("1 1:1\n-1 2:a\n", "line 2: bad feature value 'a'")],
    )
    def test_error_names_the_file(self, tmp_path, capsys, command, text, message):
        data = tmp_path / "d.txt"
        data.write_text(text)
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[problem]\nfamily = least_squares\ndata = {data}\n\n[run]\niterations = 5\n\n"
            f"[sweep]\nalphas = 0.5\nbs = 1\n\n[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {data}: {message}\n"


class TestDataFileEncoding:
    @pytest.mark.parametrize("command", ["run", "parse-data"])
    @pytest.mark.parametrize("raw, line, position", [
        (b"1 1:0.5\n\xff1 2:1\n", 2, 8),
        (b"1 1:\xff\n", 1, 4),
        # form feed and \r\n end lines as str.splitlines counts them
        (b"1 1:1\x0c-1 2:1\r\n1 3:\xff\n", 3, 18),
    ])
    def test_a_byte_that_is_not_utf8_names_the_file_and_line(
            self, tmp_path, capsys, command, raw, line, position):
        data = tmp_path / "d.txt"
        data.write_bytes(raw)
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[problem]\nfamily = logistic\ndata = {data}\n\n[run]\niterations = 5\n\n"
            f"[output]\ndirectory = {tmp_path / 'out'}\n"
        )
        args = ["run", "--config", str(path)] if command == "run" else [command, str(data)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: line {line}: 'utf-8' codec can't decode byte 0xff "
            f"in position {position}: invalid start byte\n")
        assert not (tmp_path / "out").exists()

    def test_the_locale_does_not_change_what_a_file_parses_to(self, tmp_path):
        # under the C locale a text-mode read would decode as ASCII and refuse
        # the Arabic-Indic one
        data = tmp_path / "d.txt"
        data.write_text("1 ١:0.5\n", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-m", "katyusha_h.cli", "parse-data", str(data)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert "dimension = 1\nnonzeros = 1\n" in done.stdout


class TestConfigFileEncoding:
    @pytest.mark.parametrize("raw, line, fault", [
        # é in Latin-1; a byte no UTF-8 sequence starts with, on a \r\n line
        (b"[problem]\nfamily = logistic\n# caf\xe9\n",
         3, "byte 0xe9 in position 33: invalid continuation byte"),
        (b"[run]\r\niterations = 5\xff\r\n", 2, "byte 0xff in position 21: invalid start byte"),
    ])
    def test_a_byte_that_is_not_utf8_names_the_config_and_line(
            self, tmp_path, capsys, raw, line, fault):
        path = tmp_path / "exp.ini"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: 'utf-8' codec can't decode {fault}\n")

    def test_the_locale_does_not_change_what_a_config_reads(self, tmp_path):
        # under the C locale a text-mode read would decode as ASCII and refuse
        # the é of the data path, and the filesystem would name the file by
        # its UTF-8 bytes escaped
        data = tmp_path / "donnée.txt"
        data.write_text("1 1:0.5\n-1 2:1\n", encoding="utf-8")
        traces = {}
        for locale in ("C", "C.UTF-8"):
            out = tmp_path / f"sortie é {locale}"
            path = tmp_path / f"{locale}.ini"
            path.write_text(f"[problem]\nfamily = logistic\ndata = {data}  # é\n\n"
                            f"[run]\niterations = 5\n\n[output]\ndirectory = {out}\n",
                            encoding="utf-8")
            env = dict(os.environ, LC_ALL=locale, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                       PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
            done = subprocess.run([sys.executable, "-m", "katyusha_h.cli", "run", "--config",
                                   str(path)], env=env, capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, b"")
            traces[locale] = (out / "trace_katyusha_h_seed0.csv").read_bytes()
        assert f"# source = {data}\n".encode() in traces["C"]
        assert traces["C"] == traces["C.UTF-8"]


class TestRunSingle:
    @pytest.mark.parametrize("method", sorted(SOLVERS))
    def test_solver_is_looked_up_at_call_time(self, config_path, monkeypatch, method):
        # a wrapper installed on the optimizers module, as a tracer installs
        # one, sees the run
        name, calls = SOLVERS[method], []
        real = getattr(optimizers, name)
        monkeypatch.setattr(optimizers, name,
                            lambda problem, config: calls.append(config) or real(problem, config))
        cfg = load_config(config_path)
        cfg.solver.method = method
        records = run_single(build_problem(cfg), cfg, seed=5)
        assert [c.seed for c in calls] == [5] and records[-1].t == cfg.run.iterations


class TestBaselineMethods:
    @pytest.mark.parametrize("method", ["fista"])
    def test_baselines_run_from_config(self, tmp_path, method):
        out = tmp_path / "out"
        path = tmp_path / "exp.ini"
        path.write_text(
            "[problem]\nfamily = least_squares\nn = 20\nd = 4\nseed = 3\n\n"
            f"[solver]\nmethod = {method}\n\n"
            "[run]\niterations = 10\nseeds = 0\n\n"
            f"[output]\ndirectory = {out}\n"
        )
        paths = run_command(load_config(path))
        header, rows = read_trace(paths[0])
        assert header["method"] == method
        assert len(rows) == 11
        assert not {"alpha", "b", "eta", "c", "xi", "L", "cache_checkpoint_grads"} & set(header)

    def test_fista_runs_once_for_every_seed(self, tmp_path, monkeypatch):
        # FISTA reads no seed: one run writes each seed's file, and the files
        # differ only in their seed line
        calls, real = [], optimizers.fista_run
        monkeypatch.setattr(optimizers, "fista_run",
                            lambda problem, config: calls.append(config) or real(problem, config))
        sections = self._sections(tmp_path, "fista")
        sections["run"]["seeds"] = "0 1 2"
        paths = run_command(load_config(_write_sections(tmp_path / "exp.ini", sections)))
        assert len(calls) == 1
        assert [p.name for p in paths] == [f"trace_fista_seed{s}.csv" for s in (0, 1, 2)]
        texts = [p.read_text().splitlines() for p in paths]
        for seed, lines in enumerate(texts):
            diff = [(a, b) for a, b in zip(texts[0], lines) if a != b]
            assert len(lines) == len(texts[0])
            assert diff == ([] if seed == 0 else [("# seed = 0", f"# seed = {seed}")])

    @staticmethod
    def _sections(tmp_path, method):
        return {
            "problem": {"family": "least_squares", "n": "20", "d": "4", "seed": "3"},
            "solver": {"method": method},
            "run": {"iterations": "10"},
            "output": {"directory": str(tmp_path / "out")},
            "reference": {"tol": "1e-10"},
        }

    @pytest.mark.parametrize("method", ["fista"])
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver", "alpha", "0.5"),
            ("solver", "b", "5"),
            ("solver", "cache_checkpoint_grads", "true"),
            ("output", "lyapunov", "true"),
        ],
    )
    def test_katyusha_h_setting_is_exit_two(
        self, tmp_path, capsys, method, section, key, value
    ):
        # a baseline would ignore the setting, so the run is refused
        sections = self._sections(tmp_path, method)
        sections[section][key] = value
        path = _write_sections(tmp_path / "exp.ini", sections)
        assert main(["run", "--config", str(path)]) == 2
        assert f"[{section}] {key} applies only to katyusha_h" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["fista"])
    def test_lyapunov_without_reference_is_refused_as_unread(self, tmp_path, capsys, method):
        # not as lacking a reference: adding one would only be refused again
        sections = self._sections(tmp_path, method)
        del sections["reference"]
        sections["output"]["lyapunov"] = "true"
        path = _write_sections(tmp_path / "exp.ini", sections)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"[output] lyapunov applies only to katyusha_h, not {method}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["pgd", "psgd"])
    def test_method_outside_solvers_is_exit_two(self, tmp_path, capsys, method):
        path = _write_sections(tmp_path / "exp.ini", self._sections(tmp_path, method))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown solver method {method!r} (methods: fista, katyusha_h)" in err
        assert not (tmp_path / "out").exists()

    def test_katyusha_h_defaults_spelled_out_run(self, tmp_path):
        sections = self._sections(tmp_path, "fista")
        sections["solver"].update(alpha="1.0", b="1", cache_checkpoint_grads="false")
        sections["output"]["lyapunov"] = "false"
        path = _write_sections(tmp_path / "exp.ini", sections)
        assert main(["run", "--config", str(path)]) == 0
