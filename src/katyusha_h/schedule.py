"""Momentum schedule and checkpoint-probability sequences.

Everything here is determined by the growth exponent ``alpha`` in [0, 1] and
the mini-batch size ``b``; no quantity depends on problem data.  The momentum
parameters are constant (= 6) for the first seventeen indices and then grow
like ``a_alpha * t**alpha``.  The coupling weight is ``tau_t = 1/alpha_t``,
the checkpoint-anchor weight is ``xi = 1/(b*c)``, and the checkpoint update
probability ``p_t`` ties the amount of variance reduction to the momentum
growth rate.

``alpha_sequence``, ``_denominator``, ``_p_core`` and ``_p_ratio`` hold the
only arithmetic of alpha_t, D_t and p_t.  The verification scans assemble
them block by block and certify the result, and ``advance`` assembles them
into tables of ``CHUNK`` rows, one row per index.  ``denominator_sequence``
and ``p_sequence`` assemble them over a whole range: no run, scan or CLI
command calls them, and they are the forms the tests compare the tables and
scans against.  The table is the schedule's only reader: the solver's step
and the Lyapunov values index its rows, and ``p_at`` and ``tau_at`` read p_t
and tau_t from row t for the oracles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

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
class ScheduleParams:
    """Derived schedule constants, fixed for the whole run."""

    alpha: float
    batch_size: int
    a_alpha: float
    c: float
    xi: float  # 1/(b*c), weight of the checkpoint anchor in the coupling

    @property
    def alpha_tilde0(self) -> float:
        """xi * alpha_1^2 = 36*xi, the start-of-run weight of F(w); follows xi."""
        return self.xi * ALPHA0 ** 2


def compute_constants(alpha: float, batch_size: int) -> ScheduleParams:
    """Derive (a_alpha, c, xi) from alpha in [0, 1] and b >= 1.

    ``c = max{2, b^-1 * max{6/5, (1 - 1/alpha_17)^-1}} + 1``; the inverse-gap
    term keeps ``xi < 1 - tau_t`` even at t = 17 where alpha_t is smallest.
    As c >= 3, ``xi = 1/(b*c)`` lies in (0, 1/3]; c > ``C_MAX`` is refused.
    """
    params = _derive_constants(alpha, batch_size)
    if not params.c <= C_MAX:
        raise ValueError(f"c = {params.c} exceeds the uniform cap {C_MAX}")
    return params


def _derive_constants(alpha: float, batch_size: int) -> ScheduleParams:
    """``compute_constants`` without its cap on c, for the scans that certify the cap."""
    a = growth_coefficient(alpha)
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if batch_size > sys.float_info.max:  # inner / batch_size would overflow
        raise ValueError(f"batch_size must be at most {sys.float_info.max:.6g}, the largest float")
    alpha17 = a * 17.0 ** alpha
    inner = max(6.0 / 5.0, 1.0 / (1.0 - 1.0 / alpha17))
    c = max(2.0, inner / batch_size) + 1.0
    xi = 1.0 / (batch_size * c)
    return ScheduleParams(alpha=alpha, batch_size=batch_size, a_alpha=a, c=c, xi=xi)


def step_size(L: float, params: ScheduleParams) -> float:
    """The step size of every run, the largest allowable one: 1/((c+1)*L)."""
    if L <= 0.0:
        raise ValueError(f"smoothness constant must be positive, got {L}")
    return 1.0 / ((params.c + 1.0) * L)


def alpha_sequence(t_max: int, params: ScheduleParams, start: int = 0) -> np.ndarray:
    """alpha_t for t = start..t_max as a single array."""
    if not 0 <= start <= t_max:
        raise ValueError(f"need 0 <= start <= t_max, got start={start}, t_max={t_max}")
    seq = np.full(t_max + 1 - start, ALPHA0)
    first = max(start, GROWTH_START)
    if t_max >= first:
        t = np.arange(first, t_max + 1, dtype=np.float64)
        t **= params.alpha  # in place, bit for bit t ** alpha
        np.multiply(params.a_alpha, t, out=seq[first - start:])
    return seq


def _denominator(sq_t, cum_sum, params: ScheduleParams, out=None):
    """Lyapunov weight D_t = alpha_tilde0 + alpha_0^2 - alpha_t^2 + sum_{j<=t} alpha_j,
    from sq_t = alpha_t^2, into ``out`` if given."""
    out = np.subtract(params.alpha_tilde0 + ALPHA0 ** 2, sq_t, out=out)
    return np.add(out, cum_sum, out=out)


def _p_core(sq_prev, sq_t, alpha_t, out=None):
    """alpha_{t-1}^2 - alpha_t^2 + alpha_t, the p_t numerator without its xi
    term, from the squares sq_prev and sq_t, into ``out`` if given."""
    out = np.subtract(sq_prev, sq_t, out=out)
    return np.add(out, alpha_t, out=out)


def _p_ratio(core, xi_sq, den, out=None, numer=None):
    """p_t = (core + xi * alpha_t^2) / D_t, unclamped, with core from ``_p_core``
    and xi_sq = xi * alpha_t^2.  The numerator is formed in ``numer`` if given,
    and stays there for a caller that divides it again; p goes to ``out``."""
    numer = np.add(core, xi_sq, out=numer)
    return np.divide(numer, den, out=out)


def denominator_sequence(alpha_seq: np.ndarray, params: ScheduleParams) -> np.ndarray:
    """D_t for t = 0..t_max given alpha_seq = (alpha_0, ..., alpha_tmax)."""
    csum = np.concatenate(([0.0], np.cumsum(alpha_seq[1:])))
    return _denominator(alpha_seq * alpha_seq, csum, params)


def p_sequence(alpha_seq: np.ndarray, params: ScheduleParams) -> np.ndarray:
    """p_t for t = 1..t_max; entry i holds p_{i+1}."""
    den = denominator_sequence(alpha_seq, params)[1:]
    sq = alpha_seq * alpha_seq
    core = _p_core(sq[:-1], sq[1:], alpha_seq[1:])
    return _p_ratio(core, params.xi * sq[1:], den)


# -- the arrays above in tables of CHUNK rows, the schedule's one reader -------

CHUNK = 1024  # schedule entries per table


@dataclass(frozen=True)
class Table:
    """Rows (alpha_{t-1}, alpha_t, D_{t-1}, D_t, clamped p_t) of floats for
    t = start .. start + CHUNK - 1, and alpha_1 + ... + alpha_t at the last t,
    which the next table carries on.  At t = 0, alpha_{t-1} and D_{t-1} are
    the start-of-run weights alpha_0 and alpha_tilde0, and p is no probability.
    """

    start: int
    rows: list[tuple[float, float, float, float, float]] = field(repr=False)
    cum_sum: float

    def __deepcopy__(self, memo) -> Table:
        return self  # never mutated, so copied states may share it


def advance(table: Table | None, params: ScheduleParams) -> Table:
    """The table after ``table``, or the first one for None.  Prepending the
    carried sum before ``np.cumsum`` adds the terms in ``denominator_sequence``'s
    order, so every entry equals that function's, or ``p_sequence``'s, bit for bit."""
    if table is None:  # alpha_0 is no term of D_t's sum: carry -alpha_0 into t = 0
        start, alpha, den, carry = 0, ALPHA0, params.alpha_tilde0, -ALPHA0
    else:
        start, (_, alpha, _, den, _), carry = table.start + CHUNK, table.rows[-1], table.cum_sum
    a = np.concatenate(([alpha], alpha_sequence(start + CHUNK - 1, params, start)))
    sq = a * a
    csum = np.cumsum(np.concatenate(([carry], a[1:])))[1:]
    d = np.concatenate(([den], _denominator(sq[1:], csum, params)))
    if not np.all(d[1:] > 0.0):  # D_t >= xi * alpha_{t+1}^2 > 0 unless params are corrupt
        i = int(np.argmin(d[1:] > 0.0))
        raise ValueError(f"denominator D_{start + i} = {d[i + 1]} must be positive")
    # At t=1 numerator and denominator are equal terms summed in different
    # orders; rounding can land an ulp outside [0, 1], so clamp.
    core = _p_core(sq[:-1], sq[1:], a[1:])
    p = np.clip(_p_ratio(core, params.xi * sq[1:], d[1:]), 0.0, 1.0)
    a, d = a.tolist(), d.tolist()
    rows = list(zip(a[:-1], a[1:], d[:-1], d[1:], p.tolist()))
    return Table(start, rows, float(csum[-1]))


def _row(table: Table, t: int) -> tuple[float, float, float, float, float]:
    """Row t of ``table``, for 1 <= t inside the table."""
    if t < 1:
        raise ValueError(f"p_t and tau_t are defined for t >= 1, got t={t}")
    if not table.start <= t < table.start + CHUNK:
        raise ValueError(f"t={t} is outside the table [{table.start}, {table.start + CHUNK})")
    return table.rows[t - table.start]


def p_at(table: Table, t: int) -> float:
    """Checkpoint update probability p_t, clamped to [0, 1], from row t."""
    return _row(table, t)[4]


def tau_at(table: Table, t: int) -> float:
    """Coupling weight tau_t = 1/alpha_t from row t."""
    return 1.0 / _row(table, t)[1]
