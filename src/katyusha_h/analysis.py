"""Lyapunov tracking, convergence-bound checking, cost prediction, and the
accuracy-driven growth-exponent selector.

Predicted IFO costs are order estimates: each addend carries an implicit
constant of exactly 1 because the underlying complexity statement fixes none.
Ratio and order checks are meaningful; absolute counts are not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

ALPHA_BRANCH_CAP = 0.1  # the small-alpha branch applies below min(alpha_hat, this)
BOUND_MIN_SEEDS = 30  # fewest seeds check_lyapunov_bound takes
BOUND_SLACK_SIGMAS = 2.0  # its slack, in standard errors of the seed mean
SELECT_RTOL = 1e-12  # select_alpha's rounding allowance, relative to sqrt(n)/sqrt(epsilon)


class InfeasibleAccuracyError(ValueError):
    """The selector needs n < 1/epsilon."""


class InadmissibleConstantError(ValueError):
    """The chosen C2 makes the upper interval endpoint's denominator nonpositive."""


def alpha_hat(epsilon: float) -> float:
    """Threshold exponent log(2)/log(ceil(1/epsilon))."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if 1.0 / epsilon == math.inf:
        raise ValueError(f"epsilon must be at least 1/{sys.float_info.max:.6g}, got {epsilon}")
    return math.log(2.0) / math.log(math.ceil(1.0 / epsilon))


def lyapunov(
    gap_y: float,
    gap_w: float,
    z: np.ndarray,
    alpha_prev: float,
    den_prev: float,
    eta: float,
    problem,
) -> float:
    """Lyapunov value for a state at the start of iteration t.

    L_t = alpha_{t-1}^2 (F(y_t) - F*) + D_{t-1} (F(w_t) - F*)
          + ||z_t - x*||^2 / (2 eta),

    with alpha_prev = alpha_{t-1} and den_prev = D_{t-1}, the schedule row
    at t; at t = 0 they are the start-of-run weights alpha_0 and
    alpha_tilde0.  The caller passes the gaps F(y_t) - F* and F(w_t) - F*,
    which it has already evaluated, so this costs one norm; instrumentation
    only, never charged to the IFO ledger.
    """
    ref = problem.reference
    if ref is None:
        raise ValueError("Lyapunov evaluation requires a reference solution")
    dz = np.asarray(z) - ref.x_star
    return alpha_prev ** 2 * gap_y + den_prev * gap_w + float(dz @ dz) / (2.0 * eta)


@dataclass(frozen=True)
class BoundReport:
    """Seed-averaged anytime-bound check: mean final LHS vs initial value."""

    initial: float
    mean_final: float
    std_error: float
    n_seeds: int
    margin: float
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"lyapunov-bound | seeds={self.n_seeds} | initial={self.initial:.6g} | "
            f"mean_final={self.mean_final:.6g} +- {self.std_error:.2g} | "
            f"margin={self.margin:.6g} | {verdict}"
        )


def check_lyapunov_bound(traces: list[list]) -> BoundReport:
    """Verify mean-over-seeds of the final bound LHS <= initial Lyapunov value.

    ``traces`` holds one record list per independent seed, at least
    ``BOUND_MIN_SEEDS`` of them; records must carry Lyapunov values at t=0
    and at the final step.  The statistical slack is ``BOUND_SLACK_SIGMAS``
    standard errors of the seed mean.
    """
    if len(traces) < BOUND_MIN_SEEDS:
        raise ValueError(f"need at least {BOUND_MIN_SEEDS} seeds, got {len(traces)}")
    initials = np.array([tr[0].lyapunov for tr in traces], dtype=np.float64)
    finals = np.array([tr[-1].lyapunov for tr in traces], dtype=np.float64)
    if np.any(np.isnan(initials)) or np.any(np.isnan(finals)):
        raise ValueError("traces lack Lyapunov instrumentation")
    if not np.allclose(initials, initials[0], rtol=1e-9, atol=0.0):
        raise ValueError("seeds disagree on the initial state")
    initial = float(initials[0])
    mean_final = float(np.mean(finals))
    std_error = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
    allowance = initial + BOUND_SLACK_SIGMAS * std_error
    margin = allowance - mean_final
    return BoundReport(
        initial=initial,
        mean_final=mean_final,
        std_error=std_error,
        n_seeds=len(traces),
        margin=margin,
        passed=mean_final <= allowance * (1.0 + 1e-12),
    )


@dataclass(frozen=True)
class PredictedCost:
    """Order-level IFO cost with one entry per addend (unit constants)."""

    terms: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.terms.values())


def predict_ifo(alpha: float, b: int, n: int, epsilon: float) -> PredictedCost:
    """Expected IFO cost to reach accuracy epsilon, split into addends.

    The small-alpha branch (alpha <= min(alpha_hat, 0.1)) drops the
    checkpoint power term: its harmonic-style sum collapses into the log
    term there.  The threshold is positive, so the general branch's alpha
    is too.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    small = alpha <= min(alpha_hat(epsilon), ALPHA_BRANCH_CAP)
    log_term = n * math.log(1.0 / epsilon)
    iter_term = b * epsilon ** (-1.0 / (alpha + 1.0))
    terms = {"minibatch": iter_term, "checkpoint_log": log_term}
    if not small:
        terms["checkpoint_power"] = (
            (n / b) * (1.0 / alpha) * epsilon ** (-alpha / (alpha + 1.0))
        )
    return PredictedCost(terms)


@dataclass(frozen=True)
class AlphaInterval:
    """Feasible growth-exponent interval for near-optimal total cost."""

    delta1: float
    delta2: float
    alpha_hat: float
    feasible_lo: float
    feasible_hi: float


def feasible_alpha_interval(
    n: int, epsilon: float, c1: float = 2.0, c2: float = 2.0
) -> AlphaInterval:
    """Exponent interval [delta1, delta2] and its clip to the branch structure.

    Requires n < 1/epsilon and finite constants c1, c2 >= 1 with c2 small enough to
    keep delta2's denominator positive.  All logarithms are natural; the
    ratios are base-invariant.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > sys.float_info.max:  # n * epsilon would overflow
        raise ValueError(f"n must be at most {sys.float_info.max:.6g}, the largest float")
    if not (1.0 <= c1 < math.inf and 1.0 <= c2 < math.inf):  # also refuses nan
        raise ValueError(f"c1 and c2 must be finite and >= 1, got c1={c1}, c2={c2}")
    if n * epsilon >= 1.0:
        raise InfeasibleAccuracyError(
            f"need n < 1/epsilon, got n={n}, 1/epsilon={1.0 / epsilon:.6g}"
        )
    log_acc = math.log(1.0 / epsilon)
    r = math.log(n) / log_acc
    s1 = 2.0 * math.log(c1) / log_acc
    s2 = 2.0 * math.log(c2) / log_acc
    delta1 = (1.0 - r - s1) / (1.0 + r + s1)
    den2 = 1.0 + r - s2
    if den2 <= 0.0:
        raise InadmissibleConstantError(
            f"c2={c2} too large: upper endpoint denominator {den2:.6g} <= 0"
        )
    delta2 = (1.0 - r + s2) / den2
    if delta2 <= 0.0:  # 1 - r + s2 > 0 for every c2 >= 1 unless r rounds up to 1
        raise InfeasibleAccuracyError(
            f"n={n} is too close to 1/epsilon={1.0 / epsilon:.6g}: log n / log(1/epsilon) "
            f"rounds to {r:.17g}, so the upper endpoint is not positive (delta2={delta2:.6g})"
        )
    a_hat = alpha_hat(epsilon)  # refuses an epsilon whose 1/epsilon overflows
    threshold = min(a_hat, ALPHA_BRANCH_CAP)
    if delta2 <= threshold:
        lo, hi = max(0.0, delta1), delta2
    else:
        lo, hi = max(threshold, delta1), min(1.0, delta2)
    return AlphaInterval(
        delta1=delta1, delta2=delta2, alpha_hat=a_hat, feasible_lo=lo, feasible_hi=hi
    )


def selector_inequalities(
    alpha: float, n: int, epsilon: float, c1: float, c2: float
) -> tuple[float, float]:
    """Slacks of the two target inequalities at alpha (nonnegative = satisfied).

    1/eps^(1/(alpha+1)) <= c1 sqrt(n)/sqrt(eps)  and
    n/eps^(alpha/(alpha+1)) <= c2 sqrt(n)/sqrt(eps).
    """
    budget = math.sqrt(n) / math.sqrt(epsilon)
    first = c1 * budget - epsilon ** (-1.0 / (alpha + 1.0))
    second = c2 * budget - n * epsilon ** (-alpha / (alpha + 1.0))
    return first, second


def select_alpha(n: int, epsilon: float, c1: float = 2.0, c2: float = 2.0) -> float:
    """Midpoint of the feasible exponent interval, re-verified before return.

    The midpoint maximizes margin against both constraints; any feasible
    point would satisfy them.  At c1 = c2 = 1 the interval is one point,
    where both hold with equality, so each slack may fall a few roundings
    below 0: the check allows ``SELECT_RTOL`` times sqrt(n)/sqrt(epsilon).
    """
    interval = feasible_alpha_interval(n, epsilon, c1, c2)
    alpha = 0.5 * (interval.feasible_lo + interval.feasible_hi)
    first, second = selector_inequalities(alpha, n, epsilon, c1, c2)
    allowance = -SELECT_RTOL * math.sqrt(n) / math.sqrt(epsilon)
    if first < allowance or second < allowance:
        raise RuntimeError(
            f"selected alpha={alpha} violates a target inequality "
            f"(slacks {first:.3g}, {second:.3g})"
        )
    return alpha


def accuracy_free_config(n: int) -> tuple[float, int]:
    """(alpha, b) pair that is near-optimal without knowing epsilon:
    full acceleration with batch size ceil(sqrt(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    root = math.isqrt(n)
    b = root if root * root == n else root + 1
    return 1.0, b
