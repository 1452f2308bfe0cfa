"""Momentum schedule and checkpoint-probability sequences.

Everything here is determined by the growth exponent ``alpha`` in [0, 1] and
the mini-batch size ``b``; no quantity depends on problem data.  The momentum
parameters are constant (= 6) for the first seventeen indices and then grow
like ``a_alpha * t**alpha``.  The coupling weight is ``tau_t = 1/alpha_t``,
the checkpoint-anchor weight is ``xi = 1/(b*c)``, and the checkpoint update
probability ``p_t`` ties the amount of variance reduction to the momentum
growth rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALPHA0 = 6.0  # alpha_t for t <= 16; also the anchor weight alpha_0
GROWTH_START = 17  # first index where alpha_t = a_alpha * t**alpha
C_MAX = 5.0  # uniform cap on c, independent of alpha and b


def growth_coefficient(alpha: float) -> float:
    """Bucketed growth coefficient a_alpha.  Buckets are closed on the right."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return 6.0
    if alpha <= 0.5:
        return 1.0 + math.sqrt(2.0) / 4.0
    if alpha <= 0.75:
        return 1.0 / 3.0
    return 0.25 * (17.0 / 16.0) ** (alpha - 1.0)


@dataclass(frozen=True)
class ScheduleConfig:
    """User-facing schedule knobs: growth exponent, batch size, component count."""

    alpha: float
    batch_size: int
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 1 <= self.batch_size <= self.n:
            raise ValueError(
                f"batch_size must be in [1, n={self.n}], got {self.batch_size}"
            )


@dataclass(frozen=True)
class ScheduleParams:
    """Derived schedule constants, fixed for the whole run."""

    alpha: float
    batch_size: int
    a_alpha: float
    c: float
    xi: float  # 1/(b*c), weight of the checkpoint anchor in the coupling
    alpha_tilde0: float  # xi * alpha_1^2 = 36*xi


def compute_constants(config: ScheduleConfig) -> ScheduleParams:
    """Derive (a_alpha, c, xi, alpha_tilde0) from the schedule config.

    ``c = max{2, b^-1 * max{6/5, (1 - 1/alpha_17)^-1}} + 1``; the inverse-gap
    term keeps ``xi < 1 - tau_t`` even at t = 17 where alpha_t is smallest.
    """
    a = growth_coefficient(config.alpha)
    alpha17 = a * 17.0 ** config.alpha
    inner = max(6.0 / 5.0, 1.0 / (1.0 - 1.0 / alpha17))
    c = max(2.0, inner / config.batch_size) + 1.0
    xi = 1.0 / (config.batch_size * c)
    if not c <= C_MAX:
        raise ValueError(f"c = {c} exceeds the uniform cap {C_MAX}")
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi = {xi} must lie in (0, 1)")
    return ScheduleParams(
        alpha=config.alpha,
        batch_size=config.batch_size,
        a_alpha=a,
        c=c,
        xi=xi,
        alpha_tilde0=xi * ALPHA0 ** 2,
    )


def alpha_at(t: int, params: ScheduleParams) -> float:
    """Momentum parameter alpha_t: 6 for t <= 16, a_alpha * t**alpha after."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t < GROWTH_START:
        return ALPHA0
    return params.a_alpha * float(t) ** params.alpha


def max_step_size(L: float, params: ScheduleParams) -> float:
    """Largest allowable step size, 1/((c+1)*L)."""
    if L <= 0.0:
        raise ValueError(f"smoothness constant must be positive, got {L}")
    return 1.0 / ((params.c + 1.0) * L)


@dataclass(frozen=True)
class ScheduleCursor:
    """Incremental view of the schedule at index t.

    Carries alpha_t, alpha_{t-1} and the running sum of alpha_1..alpha_t so
    each iteration costs O(1) instead of re-summing the sequence.
    """

    t: int
    alpha_t: float
    alpha_prev: float
    cum_sum: float


def initial_cursor(params: ScheduleParams) -> ScheduleCursor:
    # alpha_prev at t=0 is a placeholder; p_t is only defined for t >= 1.
    return ScheduleCursor(t=0, alpha_t=ALPHA0, alpha_prev=ALPHA0, cum_sum=0.0)


def advance(cursor: ScheduleCursor, params: ScheduleParams) -> ScheduleCursor:
    """Move the cursor from t to t+1; matches recomputation from scratch."""
    t_next = cursor.t + 1
    a_next = alpha_at(t_next, params)
    return ScheduleCursor(
        t=t_next,
        alpha_t=a_next,
        alpha_prev=cursor.alpha_t,
        cum_sum=cursor.cum_sum + a_next,
    )


def cursor_at(t: int, params: ScheduleParams) -> ScheduleCursor:
    """Cursor at index t built by repeated advances from t=0."""
    cur = initial_cursor(params)
    for _ in range(t):
        cur = advance(cur, params)
    return cur


def _denominator(alpha_t, cum_sum, params: ScheduleParams):
    """Lyapunov weight D_t = alpha_tilde0 + alpha_0^2 - alpha_t^2 + sum_{j<=t} alpha_j.

    The one expression of D_t: the scalar forms pass floats, the vectorized
    forms arrays.
    """
    return params.alpha_tilde0 + ALPHA0 ** 2 - alpha_t ** 2 + cum_sum


def _p_ratio(alpha_prev, alpha_t, den, xi: float):
    """p_t = (alpha_{t-1}^2 - alpha_t^2 + alpha_t + xi * alpha_t^2) / D_t, unclamped.

    The one expression of p_t, for floats and arrays alike.
    """
    return (alpha_prev ** 2 - alpha_t ** 2 + alpha_t + xi * alpha_t ** 2) / den


def denominator_at(cursor: ScheduleCursor, params: ScheduleParams) -> float:
    """D_t at the cursor's index."""
    return _denominator(cursor.alpha_t, cursor.cum_sum, params)


def prev_denominator_at(cursor: ScheduleCursor, params: ScheduleParams) -> float:
    """D_{t-1} recovered from a cursor at t (t >= 1)."""
    if cursor.t < 1:
        raise ValueError("no predecessor denominator at t = 0")
    return _denominator(cursor.alpha_prev, cursor.cum_sum - cursor.alpha_t, params)


def p_at(cursor: ScheduleCursor, params: ScheduleParams) -> float:
    """Checkpoint update probability p_t, guaranteed to lie in [0, 1] for t >= 1."""
    if cursor.t < 1:
        raise ValueError("p_t is defined for t >= 1")
    den = denominator_at(cursor, params)
    # D_t >= xi * alpha_{t+1}^2 > 0 for t >= 1, so only a corrupt cursor gets here.
    if not den > 0.0:
        raise ValueError(f"denominator D_{cursor.t} = {den} must be positive")
    # At t=1 numerator and denominator are equal terms summed in different
    # orders; rounding can land an ulp outside [0, 1], so clamp.
    p = _p_ratio(cursor.alpha_prev, cursor.alpha_t, den, params.xi)
    return min(max(p, 0.0), 1.0)


def tau_at(cursor: ScheduleCursor) -> float:
    """Coupling weight tau_t = 1/alpha_t for t >= 1."""
    if cursor.t < 1:
        raise ValueError("tau_t is defined for t >= 1")
    return 1.0 / cursor.alpha_t


# -- vectorized forms used by the verification scans --------------------------


def alpha_sequence(t_max: int, params: ScheduleParams) -> np.ndarray:
    """alpha_t for t = 0..t_max as a single array."""
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    seq = np.full(t_max + 1, ALPHA0)
    if t_max >= GROWTH_START:
        t = np.arange(GROWTH_START, t_max + 1, dtype=np.float64)
        seq[GROWTH_START:] = params.a_alpha * t ** params.alpha
    return seq


def denominator_sequence(alpha_seq: np.ndarray, params: ScheduleParams) -> np.ndarray:
    """D_t for t = 0..t_max given alpha_seq = (alpha_0, ..., alpha_tmax)."""
    csum = np.concatenate(([0.0], np.cumsum(alpha_seq[1:])))
    return _denominator(alpha_seq, csum, params)


def p_sequence(alpha_seq: np.ndarray, params: ScheduleParams) -> np.ndarray:
    """p_t for t = 1..t_max; entry i holds p_{i+1}."""
    den = denominator_sequence(alpha_seq, params)[1:]
    return _p_ratio(alpha_seq[:-1], alpha_seq[1:], den, params.xi)
