"""The Katyusha-H iteration and its FISTA baseline.

One iteration of the main method:

  1. couple   x <- tau*z + xi*w + (1 - xi - tau)*y
  2. sample   a uniform size-b subset
  3. estimate the variance-reduced gradient at the new x
  4. prox     z-step with step length alpha_t * eta
  5. momentum y <- x + tau*(z_new - z)
  6. maybe replace the checkpoint by the PRE-update y with probability p_t

The checkpoint candidate is the pre-update y: the per-step Lyapunov
coefficients telescope only when a checkpoint hit lands on y_t, so replacing
with the post-update y would break the descent guarantee.

Every solver, the reference solve ``fista_solve`` too, runs in one loop,
``_drive``, which owns the budget, the test cadence, the refusal of a
non-finite F and the records; a method supplies its step, stop test and cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import analysis
from .estimator import (
    Checkpoint,
    DrawStream,
    IfoLedger,
    make_checkpoint,
    maybe_update_checkpoint,
    svrg_estimate,
)
from .proximal import prox
from .schedule import (
    CHUNK,
    ScheduleParams,
    Table,
    advance,
    compute_constants,
    step_size,
)


@dataclass
class TraceRecord:
    """Per-iteration observables; objective fields are NaN when not evaluated."""

    t: int
    f_y: float
    f_w: float
    p: float
    checkpoint_updated: bool
    ifo_minibatch: int
    ifo_checkpoint: int
    lyapunov: float = math.nan

    @property
    def ifo_total(self) -> int:
        return self.ifo_minibatch + self.ifo_checkpoint


@dataclass
class RunConfig:
    """Solver run configuration: schedule knobs, stopping rule, seeding.

    Every solver takes one and refuses what ``check_run`` refuses; FISTA
    reads only the stopping rule and ``x0``.  Exactly one of ``iterations``
    / ``epsilon`` is set; an epsilon target or Lyapunov values need a
    reference solution.  Every run steps at the largest allowable step size,
    ``schedule.step_size``.  Objective evaluations for stopping and traces
    are instrumentation and never charged as IFO.
    """

    alpha: float = 1.0
    batch_size: int = 1
    iterations: int | None = None
    epsilon: float | None = None
    seed: int = 0
    record_every: int = 1
    eval_every: int | None = None  # None: the method's own cadence
    lyapunov: bool = False
    cache_checkpoint_grads: bool = False  # charge b IFO per estimate, not 2b
    max_iterations: int = 10_000_000
    x0: np.ndarray | None = None


@dataclass
class KatyushaHState:
    """All mutable state of one run; never shared across runs."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    ckpt: Checkpoint
    t: int  # the next iteration's index
    table: Table  # the schedule rows that cover t
    params: ScheduleParams
    eta: float
    rng: DrawStream  # each iteration's subset, then its checkpoint coin
    ledger: IfoLedger
    anchor: tuple[np.ndarray, np.ndarray]  # (w, xi * w), kept per checkpoint
    p: float = math.nan  # p_t of the last iteration's checkpoint draw
    checkpoint_updated: bool = False  # whether that draw hit
    # tau_t, 1 - xi - tau_t, alpha_t * eta: 0-d operands, faster than floats
    weights: tuple[np.ndarray, ...] = field(
        default_factory=lambda: (np.zeros(()), np.zeros(()), np.zeros(())))


FIRST_TABLES = 16  # most distinct ScheduleParams whose first table is kept


@lru_cache(maxsize=FIRST_TABLES)
def _first_table(params: ScheduleParams) -> Table:
    """``advance(None, params)``, built once per params: tables are never mutated."""
    return advance(None, params)


def init_state(problem, config: RunConfig) -> KatyushaHState:
    """Initial state with w = x = y = z; charges the initial full gradient (n).

    y is the checkpoint's own w array, so the first step's checkpoint draw,
    whose candidate is y, can keep the checkpoint at no IFO.  No step writes
    into y, so that first candidate is the only one that is w.
    """
    params = compute_constants(config.alpha, config.batch_size)
    x0 = _start(problem, config.x0)
    ledger = IfoLedger(per_sample=1 if config.cache_checkpoint_grads else 2)
    rng = DrawStream(problem.n, config.batch_size, config.seed)
    ckpt = make_checkpoint(x0.copy(), problem, ledger)
    return KatyushaHState(
        x=x0.copy(),
        y=ckpt.w,
        z=x0.copy(),
        ckpt=ckpt,
        t=1,
        table=_first_table(params),
        params=params,
        eta=step_size(problem.L, params),
        rng=rng,
        ledger=ledger,
        anchor=(ckpt.w, params.xi * ckpt.w),
    )


def katyusha_h_step(state: KatyushaHState, problem) -> None:
    """Execute one iteration in place, leaving its p_t and draw outcome on the state."""
    t, table, params = state.t, state.table, state.params
    # the row's tau_t = 1/alpha_t and p_t are tau_at's and p_at's, bit for bit
    _, alpha_t, _, _, p = table.rows[t - table.start]
    xi, tau_t, step_len = params.xi, 1.0 / alpha_t, alpha_t * state.eta
    tau, mix, step = state.weights
    tau[()], mix[()], step[()] = tau_t, 1.0 - xi - tau_t, step_len
    ckpt, rng, ledger, y, z = state.ckpt, state.rng, state.ledger, state.y, state.z
    # xi * w changes only when w does, so it is formed once per checkpoint.
    w, xi_w = state.anchor
    if w is not ckpt.w:
        xi_w = xi * ckpt.w
        state.anchor = (ckpt.w, xi_w)

    x_next = tau * z + xi_w + mix * y
    coin = rng.next()  # move the stream to this iteration's subset and coin
    g = svrg_estimate(x_next, ckpt, problem, ledger, rng)
    z_next = prox(problem.reg, z - step * g, step_len, overwrite=True)
    y_next = x_next + tau * (z_next - z)

    # Checkpoint candidate is the pre-update y.
    state.ckpt, state.checkpoint_updated = maybe_update_checkpoint(
        ckpt, y, p, coin, problem, ledger)
    state.x, state.y, state.z, state.p, state.t = x_next, y_next, z_next, p, t + 1
    if t + 1 == table.start + CHUNK:  # t+1 opens the next chunk's rows
        state.table = advance(table, params)


def lyapunov_weights(state: KatyushaHState) -> tuple[float, float]:
    """alpha_{t-1} and D_{t-1}, the schedule row's weights of F(y) and F(w)
    in the Lyapunov value of a state whose next iteration is t."""
    alpha_prev, _, den_prev, _, _ = state.table.rows[state.t - state.table.start]
    return alpha_prev, den_prev


def check_run(config: RunConfig, has_reference: bool, name=str) -> None:
    """Refuse a run configuration no run can carry out, by a ValueError that
    names each field as ``name(field)``: the config layer passes a callable
    that names the config key the field is read from."""
    epsilon = config.epsilon
    if (config.iterations is None) == (epsilon is None):
        raise ValueError(f"exactly one of {name('iterations')} / {name('epsilon')} must be set")
    for field_name, used in (("epsilon", epsilon is not None), ("lyapunov", config.lyapunov)):
        if used and not has_reference:
            raise ValueError(f"{name(field_name)} requires a reference solution")
    if epsilon is not None and not 0.0 < epsilon < math.inf:  # also refuses nan
        raise ValueError(f"{name('epsilon')} must be positive and finite, got {epsilon}")
    minimums = {"record_every": 1, "eval_every": 1, "iterations": 0, "max_iterations": 1}
    for field_name, least in minimums.items():
        value = getattr(config, field_name)
        if value is not None and value < least:
            raise ValueError(f"{name(field_name)} must be at least {least}, got {value}")


def _drive(problem, config: RunConfig, steps, test, record,
           eval_every: int) -> list[TraceRecord]:
    """The loop of every solver: budget, stop test, recording.

    ``steps(first, last)`` performs iterations first..last in place, so only
    the iterations that are tested, recorded or last pay for the checks
    between them.  ``test()``, if not None, returns F at the point it reads
    and whether the run is done, read every ``config.eval_every`` iterations
    (else ``eval_every``, the method's cadence) and at the last; a non-finite
    F raises ValueError, since no later iteration can pass.  ``record(t, f)``
    builds the record after iteration t, ``f`` being the F the test just read
    or None, so no F is evaluated twice; it may leave fields for the solver
    to fill later.  The budget is ``config.iterations``, else
    ``max_iterations``.  Returns the initial record plus one per
    ``record_every`` iterations, and always the last.
    """
    check_run(config, problem.reference is not None)  # so eval_every is None or >= 1
    record_every, eval_every = config.record_every, config.eval_every or eval_every
    budget = config.max_iterations if config.iterations is None else config.iterations
    records = [record(0, None)]
    t = 0
    while t < budget:
        # run straight to the next iteration that is tested, recorded or last
        last = min(budget, (t // record_every + 1) * record_every)
        if test is not None:
            last = min(last, (t // eval_every + 1) * eval_every)
        steps(t + 1, last)
        t = last
        done = t == budget
        f = None
        if test is not None and (done or t % eval_every == 0):
            f, met = test()
            if not math.isfinite(f):
                raise ValueError(f"objective is {f} at t={t}: the run cannot reach its target")
            done = done or met
        if done or t % record_every == 0:
            records.append(record(t, f))
        if done:
            break
    return records


def _epsilon_test(problem, config: RunConfig, objective):
    """The epsilon rule F - F* <= epsilon as a stop test that reads F from
    ``objective()``; None for a run that stops on iterations."""
    if config.epsilon is not None:
        return lambda: (f := objective(), f - problem.reference.f_star <= config.epsilon)
    return None


def run(problem, config: RunConfig) -> list[TraceRecord]:
    """Run Katyusha-H until the iteration budget or the target gap is reached.

    Deterministic given the seed.  The epsilon test reads the checkpoint w,
    by default every iteration while n*d <= 50,000 and every 10th beyond.
    Returns the initial record plus one record per ``record_every``
    iterations (the final iteration is always recorded).  A record's F(y),
    and its Lyapunov value, are filled once ``problem.block_rows`` records
    wait for them, and for the rest after the loop: ``problem.values``
    evaluates a block of points by one product, and a point's value does not
    depend on its block, so a record's fields do not depend on the run's
    length, ``record_every`` or stopping rule.
    """
    state = init_state(problem, config)
    # w changes only when a refresh replaces the checkpoint object, so F(w)
    # is evaluated once per checkpoint, from the margins the refresh kept.
    evaluated: tuple[Checkpoint | None, float] = (None, math.nan)

    def checkpoint_value() -> float:
        nonlocal evaluated
        if evaluated[0] is not state.ckpt:
            evaluated = state.ckpt, problem.value(state.ckpt.w, state.ckpt.margins)
        return evaluated[1]

    # (record, y, z, alpha_{t-1}, D_{t-1}) of each record whose F(y) waits;
    # y and z are kept, not copied, since no step writes into them.
    pending: list[tuple[TraceRecord, np.ndarray, np.ndarray, float, float]] = []

    def fill() -> None:
        f_ys = problem.values([y for _, y, *_ in pending])
        for (rec, _, z, alpha_prev, den_prev), f_y in zip(pending, f_ys):
            rec.f_y = f_y
            if config.lyapunov:
                f_star = problem.reference.f_star
                rec.lyapunov = analysis.lyapunov(f_y - f_star, rec.f_w - f_star, z,
                                                 alpha_prev, den_prev, state.eta, problem)
        pending.clear()

    def record(t: int, _: float | None) -> TraceRecord:
        rec = TraceRecord(
            t=t,
            f_y=math.nan,
            f_w=checkpoint_value(),
            p=state.p,
            checkpoint_updated=state.checkpoint_updated,
            ifo_minibatch=state.ledger.minibatch_calls,
            ifo_checkpoint=state.ledger.checkpoint_calls,
        )
        pending.append((rec, state.y, state.z, *lyapunov_weights(state)))
        if len(pending) == problem.block_rows:
            fill()
        return rec

    def steps(first: int, last: int) -> None:
        # katyusha_h_step is looked up at each call, so a wrapper installed
        # on the module attribute sees every step.
        for _ in range(first, last + 1):
            katyusha_h_step(state, problem)

    records = _drive(problem, config, steps, _epsilon_test(problem, config, checkpoint_value),
                     record, eval_every=1 if problem.n * problem.d <= 50_000 else 10)
    fill()
    return records


# -- the FISTA baseline and the reference solver -------------------------


def _start(problem, x0: np.ndarray | None) -> np.ndarray:
    """A fresh start point: zeros, or a copy of ``x0``, which must be finite
    and of shape (d,)."""
    if x0 is None:
        return np.zeros(problem.d)
    x0 = np.asarray(x0, float).copy()
    if x0.shape != (problem.d,):
        raise ValueError(f"x0 must have shape ({problem.d},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return x0


def _prox_grad(problem, y: np.ndarray, L: float) -> np.ndarray:
    """The proximal-gradient step from y with step length 1/L (n IFO)."""
    return prox(problem.reg, y - problem.full_grad(y) / L, 1.0 / L, overwrite=True)


def _extrapolate(x_next: np.ndarray, x: np.ndarray, theta: float):
    """FISTA momentum: the next extrapolated point and theta."""
    theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
    return x_next + (theta - 1.0) / theta_next * (x_next - x), theta_next


def fista_run(problem, config: RunConfig) -> list[TraceRecord]:
    """Accelerated proximal gradient with step 1/L; costs n IFO per iteration.

    The epsilon test and the records read x, whose F is both f_y and f_w;
    the test reads it every iteration unless the config sets a cadence.
    """
    x = _start(problem, config.x0)
    y, theta = x.copy(), 1.0

    def steps(first: int, last: int) -> None:
        nonlocal x, y, theta
        for _ in range(first, last + 1):
            x_next = _prox_grad(problem, y, problem.L)
            y, theta = _extrapolate(x_next, x, theta)
            x = x_next

    def record(t: int, f: float | None) -> TraceRecord:
        f = problem.value(x) if f is None else f
        return TraceRecord(t, f, f, math.nan, False, problem.n * t, 0)

    test = _epsilon_test(problem, config, lambda: problem.value(x))
    return _drive(problem, config, steps, test, record, eval_every=1)


def fista_solve(problem, L: float, tol: float,
                max_iterations: int) -> tuple[np.ndarray, float, float, int]:
    """Over-solve with function-restarted FISTA from 0 for reference solutions.

    A ``_drive`` run of at most ``max_iterations`` steps of length 1/L, ``L``
    bounding the smoothness of the average f (not of each component).  A step
    keeps the best point and drops the momentum where F rises; the test is the
    gradient-mapping certificate ||G|| * radius <= tol, with radius proxy
    max(1, 2*||x_best||).  Returns (x_best, f_best, gap_estimate, iterations).
    """
    x = y = x_best = np.zeros(problem.d)
    theta, radius, gap_est = 1.0, 1.0, math.inf
    f_best = f_val = problem.value(x)

    def steps(first: int, last: int) -> None:
        # no step writes into a point, so points are kept, not copied
        nonlocal x, y, theta, f_val, f_best, x_best, radius, gap_est
        for _ in range(first, last + 1):
            x_next = _prox_grad(problem, y, L)
            step = y - x_next  # norms as np.linalg.norm takes them, without its checks
            mapping_norm = L * math.sqrt(step.dot(step))
            f_prev, f_val = f_val, problem.value(x_next)
            if f_val < f_best:
                f_best, x_best = f_val, x_next
                radius = max(1.0, 2.0 * math.sqrt(x_best.dot(x_best)))
            gap_est = mapping_norm * radius
            # function restart: drop the momentum where F rises
            y, theta = (x_next, 1.0) if f_val > f_prev else _extrapolate(x_next, x, theta)
            x = x_next

    config = RunConfig(iterations=max_iterations, record_every=max_iterations)
    return _drive(problem, config, steps, lambda: (f_val, gap_est <= tol),
                  lambda t, _: (x_best, f_best, gap_est, t), eval_every=1)[-1]
