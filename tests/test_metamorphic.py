"""Relations the engine keeps with itself, bit for bit.

Each relation transforms a problem so that the transformed run's output is
known exactly from the base run's:

* *sign flip*: negating half of the feature rows together with their
  targets leaves every component value and gradient as it was, since
  negation is exact.  Every record is the base run's.
* *column doubling*: A -> 2A with lam1 x 2, lam2 x 4 and the optimum x*/2.
  Powers of two commute with rounding, so the iterates are the base run's
  halved, L is 4L, and every record (F, gaps, Lyapunov values) is the base
  run's.
* *row doubling* (least squares): A -> 2A and targets -> 2*targets with
  both weights x 4.  The iterates are the base run's and every objective,
  F* and epsilon are 4 times the base run's.

Unlike the golden traces, these compare the engine with itself, so they
hold across a ``trace_format`` bump and on paths that have no golden file.
They run through ``optimizers.run`` and ``optimizers.fista_run`` for both
losses, the zero, l1 and elastic-net weights, three (alpha, b) cells, and
both stopping rules.  The reference solve is not scale-equivariant bit for
bit (its SVD rounds differently on 2A), so the reference of a transformed
problem is the base reference transformed; a separate test holds
``solve_reference`` to the relations within its certified tolerance.  Once
more they run through ``katyusha-h run`` on libsvm files without a
reference, whose traces' gap columns then hold raw objective values.
"""

import dataclasses
import functools

import numpy as np
import pytest

from katyusha_h import cli
from katyusha_h.experiment import read_trace
from katyusha_h.optimizers import RunConfig, fista_run, run
from katyusha_h.problems import (
    FiniteSumProblem,
    dataset_from_dense,
    serialize_libsvm,
    solve_reference,
    synthesize,
)
from katyusha_h.proximal import Regularizer

LOSSES = ("least_squares", "logistic")
REGS = {
    "zero": Regularizer.zero(),
    "l1": Regularizer.l1(0.02),
    "elastic_net": Regularizer.elastic_net(0.01, 0.02),
}
CELLS = ((0.0, 1), (0.5, 3), (1.0, 10))  # (alpha, b)
STOPS = {
    "iterations": dict(iterations=120, record_every=7),
    "epsilon": dict(epsilon=1e-3, max_iterations=3000, record_every=11),
}


@functools.cache
def base(loss: str, reg: str) -> FiniteSumProblem:
    """A small instance with a reference; noise keeps the unregularized
    logistic one inseparable, so it has a minimizer."""
    _, problem = synthesize(30, 5, loss, seed=3, reg=REGS[reg], noise=1.0)
    problem.reference = solve_reference(problem, tol=1e-10)
    return problem


def _problem(A, targets, loss, reg, ref, x_scale=1.0, f_scale=1.0) -> FiniteSumProblem:
    """A problem on (A, targets) whose reference is ``ref`` with x* scaled
    by ``x_scale`` and F* by ``f_scale``."""
    problem = FiniteSumProblem(A, targets, loss, reg)
    if ref is not None:
        problem.reference = dataclasses.replace(
            ref, x_star=ref.x_star * x_scale, f_star=ref.f_star * f_scale,
            gap_tolerance=ref.gap_tolerance * f_scale)
    return problem


def sign_flip(problem: FiniteSumProblem) -> FiniteSumProblem:
    flip = np.where(np.arange(problem.n) % 2 == 1, -1.0, 1.0)  # every second row
    return _problem(problem.A * flip[:, None], problem.targets * flip, problem.loss,
                    problem.reg, problem.reference)


def column_doubling(problem: FiniteSumProblem) -> FiniteSumProblem:
    reg = Regularizer(2.0 * problem.reg.lam1, 4.0 * problem.reg.lam2)
    return _problem(2.0 * problem.A, problem.targets, problem.loss, reg, problem.reference,
                    x_scale=0.5)


def row_doubling(problem: FiniteSumProblem) -> FiniteSumProblem:
    reg = Regularizer(4.0 * problem.reg.lam1, 4.0 * problem.reg.lam2)
    return _problem(2.0 * problem.A, 2.0 * problem.targets, problem.loss, reg,
                    problem.reference, f_scale=4.0)


# name -> (transform, start-point scale, objective scale, losses it holds for)
RELATIONS = {
    "sign_flip": (sign_flip, 1.0, 1.0, LOSSES),
    "column_doubling": (column_doubling, 0.5, 1.0, LOSSES),
    "row_doubling": (row_doubling, 1.0, 4.0, ("least_squares",)),
}
CASES = [(rel, loss, reg) for rel, (*_, losses) in RELATIONS.items()
         for loss in losses for reg in REGS]


def start(problem: FiniteSumProblem) -> np.ndarray:
    """A start point off the origin, so the start point's scaling is tested."""
    return np.random.default_rng(7).standard_normal(problem.d) / 4.0


def scaled(records, f_scale: float) -> list[str]:
    """Each record as a string, its objective fields times ``f_scale``;
    NaN fields read 'nan', so records compare field by field, bits included."""
    return [repr(dataclasses.astuple(dataclasses.replace(
        rec, f_y=rec.f_y * f_scale, f_w=rec.f_w * f_scale, lyapunov=rec.lyapunov * f_scale)))
        for rec in records]


def assert_relation(solver, problem, relation: str, config: RunConfig) -> None:
    transform, x_scale, f_scale, _ = RELATIONS[relation]
    got = solver(transform(problem), dataclasses.replace(
        config, x0=config.x0 * x_scale,
        epsilon=None if config.epsilon is None else config.epsilon * f_scale))
    assert scaled(got, 1.0) == scaled(solver(problem, config), f_scale)


@pytest.mark.parametrize("relation, loss, reg", CASES)
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_katyusha_h_keeps_the_relation(relation, loss, reg, stop):
    problem = base(loss, reg)
    for alpha, b in CELLS:
        config = RunConfig(alpha=alpha, batch_size=b, seed=b, lyapunov=True,
                           cache_checkpoint_grads=b == 3, x0=start(problem), **STOPS[stop])
        assert_relation(run, problem, relation, config)


@pytest.mark.parametrize("relation, loss, reg", CASES)
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_fista_keeps_the_relation(relation, loss, reg, stop):
    problem = base(loss, reg)
    assert_relation(fista_run, problem, relation, RunConfig(x0=start(problem), **STOPS[stop]))


def test_epsilon_stops_end_before_the_cap():
    # the epsilon cases test the stopping rule only if some of them reach it
    for loss in LOSSES:
        for reg in REGS:
            problem = base(loss, reg)
            config = RunConfig(alpha=0.5, batch_size=3, x0=start(problem), **STOPS["epsilon"])
            assert run(problem, config)[-1].t < STOPS["epsilon"]["max_iterations"]


@pytest.mark.parametrize("relation, loss, reg", CASES)
def test_reference_solve_keeps_the_relation_to_its_tolerance(relation, loss, reg):
    transform, _, f_scale, _ = RELATIONS[relation]
    problem = base(loss, reg)
    moved = solve_reference(transform(problem), tol=1e-10)
    ref = problem.reference
    tolerance = (ref.gap_tolerance + moved.gap_tolerance / f_scale) * f_scale
    assert abs(moved.f_star - ref.f_star * f_scale) <= tolerance


# katyusha-h run: (loss, [problem] reg, cache_checkpoint_grads)
CLI_CONFIGS = (("least_squares", "l1", False), ("logistic", "elastic_net", False),
               ("least_squares", "elastic_net", True))
CLI_CASES = [(rel, *config) for rel, (*_, losses) in RELATIONS.items()
             for config in CLI_CONFIGS if config[0] in losses]


def cli_trace(tmp_path, name: str, problem: FiniteSumProblem, reg: str, cache: bool):
    """The header and rows of ``katyusha-h run`` on ``problem`` written as a
    libsvm file, with no [reference]."""
    data = tmp_path / f"{name}.txt"
    data.write_text(serialize_libsvm(dataset_from_dense(problem.A, problem.targets)))
    config = tmp_path / f"{name}.cfg"
    config.write_text(
        f"[problem]\nfamily = {problem.loss}\ndata = {data}\nreg = {reg}\n"
        f"lam1 = {problem.reg.lam1!r}\nlam2 = {problem.reg.lam2!r}\n\n"
        f"[solver]\nalpha = 0.5\nb = 3\ncache_checkpoint_grads = {str(cache).lower()}\n\n"
        f"[run]\niterations = 120\nseeds = 5\n\n"
        f"[output]\ndirectory = {tmp_path / name}\ntrace_stride = 7\n")
    assert cli.main(["run", "--config", str(config)]) == 0
    (trace,) = (tmp_path / name).iterdir()
    header, rows = read_trace(trace)
    del header["source"]  # the data file's path
    return header, rows


@pytest.mark.parametrize("relation, loss, reg, cache", CLI_CASES)
def test_cli_run_keeps_the_relation(tmp_path, relation, loss, reg, cache):
    # a sparse file, so its zeros are left out of the text and stay +0.0
    dataset, _ = synthesize(30, 5, loss, seed=4, noise=1.0, density=0.6)
    problem = FiniteSumProblem(dataset.to_dense(), dataset.labels, loss, REGS[reg])
    transform, x_scale, f_scale, _ = RELATIONS[relation]
    head, rows = cli_trace(tmp_path, "base", problem, reg, cache)
    got_head, got_rows = cli_trace(tmp_path, relation, transform(problem), reg, cache)
    assert head["reference"].startswith("none") and head["f_star"] == "0.0"
    scale = f_scale / x_scale**2  # L is a curvature: x 4 under both doublings
    assert float(got_head.pop("L")) == float(head.pop("L")) * scale
    assert float(got_head.pop("eta")) == float(head.pop("eta")) / scale
    assert got_head == head
    for row in rows:
        row["F_y_gap"] *= f_scale
        row["F_w_gap"] *= f_scale
    assert len(rows) == 19 and repr(got_rows) == repr(rows)
