"""Golden traces: fixed configs must reproduce the committed files byte for byte.

An unchanged config gives byte-identical traces unless ``trace_format``
changes; that is the behaviour contract refactors are held to.  The files
under ``tests/data/golden/`` were written by the configs below.  After a bump
of ``experiment.TRACE_FORMAT``, regenerate them with

    PYTHONPATH=src python tests/test_golden_traces.py

which writes the files of a config that has none and overwrites only those
whose ``trace_format`` differs from ``TRACE_FORMAT``.  The sweep summary has
no header: it is written when missing and rewritten with a format bump.  The
``verify`` outputs under ``verify/`` carry no format and are written only
when missing.

Floating-point results can differ in the last bits between BLAS builds or
CPU families, so a mismatch on a new machine should first be checked
against a regeneration there before it is read as a behaviour change.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from katyusha_h.cli import main
from katyusha_h.experiment import (
    TRACE_FORMAT,
    load_config,
    read_trace,
    run_command,
    sweep_command,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

LEAST_SQUARES = """\
[problem]
family = least_squares
n = 30
d = 5
seed = 11
reg = l1
lam1 = 0.02
[reference]
tol = 1e-12
"""

KATYUSHA_H = LEAST_SQUARES + """\
[solver]
method = katyusha_h
alpha = {alpha}
b = {b}
cache_checkpoint_grads = {cache}
[run]
epsilon = 1e-6
seeds = 0 1
[output]
trace_stride = 7
lyapunov = true
"""

# 9000 iterations cross several of the schedule's tables
KATYUSHA_H_LONG = LEAST_SQUARES + """\
[solver]
method = katyusha_h
alpha = 0.75
b = 1
[run]
iterations = 9000
seeds = 0 1
[output]
trace_stride = 1000
lyapunov = true
"""

LOGISTIC_ELASTIC_NET = """\
[problem]
family = logistic
n = 30
d = 5
seed = 12
reg = elastic_net
lam1 = 0.01
lam2 = 0.02
[reference]
tol = 1e-12
[solver]
method = katyusha_h
alpha = 0.75
b = 3
cache_checkpoint_grads = true
[run]
iterations = 400
seeds = 0 1
[output]
trace_stride = 13
lyapunov = true
"""

BASELINE = LEAST_SQUARES + """\
[solver]
method = {method}
[run]
iterations = {iterations}
seeds = 3
[output]
trace_stride = {stride}
"""

# eval_every is left unset so the method's own test cadence is pinned
BASELINE_EPSILON = LEAST_SQUARES + """\
[solver]
method = {method}
[run]
epsilon = {epsilon}
seeds = 3
[output]
trace_stride = {stride}
"""

RUNS = {
    "katyusha_h_cached": KATYUSHA_H.format(alpha=0.5, b=2, cache="true"),
    "katyusha_h_uncached": KATYUSHA_H.format(alpha=0.5, b=2, cache="false"),
    "katyusha_h_cached_b10": KATYUSHA_H.format(alpha=1, b=10, cache="true"),
    "katyusha_h_long": KATYUSHA_H_LONG,
    "katyusha_h_logistic_enet_cached_b3": LOGISTIC_ELASTIC_NET,
    "katyusha_h_full_batch": KATYUSHA_H.format(alpha=0.5, b=30, cache="false"),
    "fista": BASELINE.format(method="fista", iterations=40, stride=3),
    "fista_epsilon": BASELINE_EPSILON.format(method="fista", epsilon=1e-8, stride=5),
}

SWEEP = LEAST_SQUARES + """\
[solver]
method = katyusha_h
[run]
epsilon = 1e-4
seeds = 0 1
[sweep]
alphas = 0 1
bs = 1 3
"""

# `katyusha-h verify` arguments and the file holding their standard output
VERIFY = {
    "t40000_step0.05": ["--t-max", "40000", "--alpha-step", "0.05"],
    "t40000_step0.05_xi2": ["--t-max", "40000", "--alpha-step", "0.05",
                            "--inject-fault", "xi=2"],
}


def _verify_output(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", *args])
    return out.getvalue()


def _config(directory: Path, text: str, out: Path):
    """The config of ``text``, writing into ``out``."""
    path = directory / "exp.ini"
    path.write_text(text)
    cfg = load_config(path)
    cfg.output.directory = str(out)
    return cfg


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(tmp_path, name):
    paths = sorted(run_command(_config(tmp_path, RUNS[name], tmp_path / name)))
    expected = sorted((GOLDEN / name).iterdir())
    assert [p.name for p in paths] == [p.name for p in expected]
    for got, want in zip(paths, expected):
        assert got.read_bytes() == want.read_bytes(), f"{name}/{got.name} differs"


def test_sweep_matches_golden(tmp_path):
    _, path = sweep_command(_config(tmp_path, SWEEP, tmp_path / "sweep"))
    assert path.read_bytes() == (GOLDEN / "sweep" / path.name).read_bytes()


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_matches_golden(name):
    want = (GOLDEN / "verify" / f"{name}.txt").read_text()
    assert _verify_output(VERIFY[name]) == want


def _formats(directory: Path) -> set[str]:
    """The trace formats of the golden traces in ``directory`` (empty if none)."""
    return {read_trace(f)[0]["trace_format"] for f in directory.glob("*.csv")}


def regenerate() -> None:
    formats = {name: _formats(GOLDEN / name) for name in RUNS}
    stale = [name for name, found in formats.items() if found != {TRACE_FORMAT}]
    bumped = any(found - {TRACE_FORMAT} for found in formats.values())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in stale:
            run_command(_config(tmp, RUNS[name], GOLDEN / name))
        if bumped or not (GOLDEN / "sweep" / "sweep_summary.csv").exists():
            sweep_command(_config(tmp, SWEEP, GOLDEN / "sweep"))
    for name, args in VERIFY.items():  # no trace format: written only when missing
        path = GOLDEN / "verify" / f"{name}.txt"
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            path.write_text(_verify_output(args))
            stale.append(f"verify/{name}")
    print(f"regenerated: {', '.join(stale) or 'nothing'}")

if __name__ == "__main__":
    regenerate()
