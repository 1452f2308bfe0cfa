"""Brute-force certification of the schedule inequalities and descent laws.

Every claim is checked exhaustively over a grid (no sampling): schedule
inequalities over a dense exponent grid and a full index range, estimator
laws by enumerating every subset, and the Lyapunov descent by enumerating
subsets crossed with both checkpoint outcomes.  Scans are falsifiable by
construction: injecting a broken parameter must produce a failing claim.
"""

from __future__ import annotations

import math
import sys
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from . import analysis
from .estimator import _subset_moments, _subset_walk, variance_bound_rhs
from .optimizers import KatyushaHState
from .proximal import prox
from .schedule import (
    ALPHA0,
    GROWTH_START,
    C_MAX,
    _denominator,
    _derive_constants,
    _p_core,
    _p_ratio,
    alpha_sequence,
    p_at,
    tau_at,
)

INEQ_TOL = 1e-9  # normalized slack floor for inequality claims
EQ_TOL = 1e-12  # absolute tolerance for reformulation identities
GRID_PROBE = 1e-6  # offset of the alpha-grid probes around each bucket boundary
SCAN_BLOCK = 16_384  # t indices per block of a schedule scan; its temporaries stay in cache


@dataclass
class ClaimResult:
    """One scanned claim: its running minimum slack and where it occurs.

    A scan creates it before its first slack and updates it at every point.
    The first strict minimum wins.  A NaN slack is a point where the claim
    could not be evaluated: the first one becomes the worst point and stays,
    so the claim fails.  A claim that no point tested fails too.
    """

    claim: str
    domain: str
    _: KW_ONLY
    min_slack: float = math.inf
    worst_at: str = "n/a"
    tolerance: float | None  # None: an open claim, which needs a positive slack

    def update(self, slack: np.ndarray | float, where) -> None:
        arr = np.atleast_1d(np.asarray(slack, dtype=np.float64))
        i = int(np.argmin(arr))  # the first NaN, if there is one
        if not (arr[i] >= self.min_slack or math.isnan(self.min_slack)):
            self.min_slack = float(arr[i])
            self.worst_at = where(i)

    @property
    def passed(self) -> bool:
        if self.min_slack == math.inf:  # no real slack is +inf: no point was tested
            return False
        if self.tolerance is None:
            return self.min_slack > 0.0
        return self.min_slack >= -self.tolerance


@dataclass
class CertificateReport:
    claims: list[ClaimResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_text(self) -> str:
        lines = []
        for c in self.claims:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.claim} | {c.domain} | min_slack={c.min_slack:.6e} "
                f"at {c.worst_at} | {verdict}"
            )
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} ({len(self.claims)} claims)"
        )
        return "\n".join(lines) + "\n"


def default_alpha_grid(step: float = 0.01) -> np.ndarray:
    """Dense grid over [0, 1] plus bucket boundaries and near-boundary probes.

    The growth-coefficient buckets are closed on the right, so probes at
    +-``GRID_PROBE`` around each boundary catch off-by-bucket mistakes.  A
    step below ``GRID_PROBE`` is refused before any point is made: the grid
    is no finer than its own probes and holds at most 10**6 + 1 points.
    """
    if not 0.0 < step <= 1.0:  # also refuses nan
        raise ValueError(f"alpha grid step must be in (0, 1], got {step}")
    if step < GRID_PROBE:
        raise ValueError(f"alpha grid step must be at least {GRID_PROBE:g}, got {step}")
    count = round(1.0 / step)
    pts = [i * step for i in range(count + 1)]
    boundaries = (0.0, 0.5, 0.75, 1.0)
    pts.extend(boundaries)
    for b in boundaries:
        for delta in (-GRID_PROBE, GRID_PROBE):
            v = b + delta
            if 0.0 <= v <= 1.0:
                pts.append(v)
    return np.unique(np.asarray(pts, dtype=np.float64))


def _normalized_gap(lhs, rhs, lhs_scale=None, rhs_scale=None, out=None):
    """Slack of 'lhs <= rhs' scaled by max(1, |lhs|, |rhs|).

    A caller that holds max(1, |lhs|) or max(1, |rhs|) passes it as
    ``lhs_scale`` or ``rhs_scale``.  ``out`` takes the slack and may be lhs
    or rhs itself.  A scalar lhs of +0.0 neither raises the scale nor
    changes a bit of rhs when subtracted, so that case skips both.
    """
    if rhs_scale is None:
        rhs_scale = np.maximum(np.abs(rhs), 1.0)
    if np.ndim(lhs) == 0 and lhs == 0.0 and math.copysign(1.0, lhs) > 0.0:
        return np.divide(rhs, rhs_scale, out=out)
    scale = np.maximum(np.abs(lhs) if lhs_scale is None else lhs_scale, rhs_scale)
    return np.divide(np.subtract(rhs, lhs, out=out), scale, out=out)


def _block_point(alpha, b, s):
    """Where-function of the slacks of a block that starts after t = s."""
    return lambda i: f"(alpha={alpha:.6g}, b={b}, t={s + i + 1})"


def check_scan(t_max: int, batch_sizes, name=str) -> None:
    """Refuse a schedule scan's range by a ValueError that names each
    argument as ``name(argument)``: the CLI passes a callable that names the
    flag."""
    if t_max < 18:
        raise ValueError(f"{name('t_max')} must be at least 18, got {t_max}")
    if t_max > 10_000_000:
        # running-sum rounding stays below 1e-10 relative up to here
        raise ValueError(f"{name('t_max')} above 1e7 risks accumulation error in the scan")
    if not batch_sizes:
        raise ValueError(f"{name('batch_sizes')} must not be empty")
    for b in batch_sizes:
        if b < 1:
            raise ValueError(f"{name('batch_sizes')} must be at least 1, got {b}")
        if b > sys.float_info.max:  # _derive_constants would overflow on it
            raise ValueError(f"{name('batch_sizes')} must be at most {sys.float_info.max:.6g}, "
                             "the largest float")


def scan_schedule(
    alpha_grid: np.ndarray | None = None,
    t_max: int = 100_000,
    batch_sizes: tuple[int, ...] = (1, 2, 10),
    xi_override: float | None = None,
) -> CertificateReport:
    """Certify every schedule inequality over the (alpha, b, t) grid.

    Claims: the key growth inequality xi*(a_{t+1}^2 - a_t^2) <= a_{t-1}^2 -
    a_t^2 + a_t; nonnegativity of that right side (the p_t numerator without
    the xi term); the denominator lower bound D_{t-1} >= xi*a_t^2 >= 0;
    p_t in [0, 1]; tau_t, xi, 1 - xi - tau_t in (0, 1), an open claim that
    fails at a slack of 0; c <= 5; and equality of the shifted p_t
    reformulation with the direct formula.

    ``xi_override`` replaces xi (and with it alpha_tilde0 = 36*xi) with a raw
    value, bypassing the constructor guards; it exists for fault injection.

    Each alpha walks t in blocks of ``SCAN_BLOCK`` indices.  A block takes
    its alpha_t from ``alpha_sequence`` (alpha_t depends on alpha alone) and
    computes every quantity once, into buffers of block size that every
    block reuses, so no array spans the t range.  What does not depend on b
    comes first: alpha_t^2, the running sum of alpha_t (carried from block
    to block), the p_t numerator without its xi term, max(1, |that|),
    alpha_{t+1}^2 - alpha_t^2 and the range of tau_t.
    The nonnegativity claim is evaluated there, at the first b listed only:
    every later b repeats its values exactly, and only a strict minimum
    replaces a worst point.  Every other claim but c-bound sees b only
    through xi, so each distinct xi (by its bits) is one cell, scanned for
    the first b listed with it; a later b with the same xi, which only
    ``xi_override`` or a repeated b gives, would repeat its points.  Then
    each cell forms max(1, |xi*alpha_t^2|) once for both gaps that read it,
    and the p_t numerator once for p_t and for its shifted reformulation.
    Each cell keeps its own running minima as ``ClaimResult``s, merged into
    the claims in b order once the alpha is done, so the first worst point
    is the one a single pass over the grid in (alpha, b, t) order would
    find.  The range rules are ``check_scan``'s.
    """
    check_scan(t_max, batch_sizes)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    domain = (
        f"alpha grid ({len(alpha_grid)} pts), t in [1, {t_max}], "
        f"b in {{{', '.join(str(b) for b in batch_sizes)}}}"
    )
    names = [
        "key-growth-inequality",
        "p-numerator-nonneg",
        "denominator-lower-bound",
        "p-range",
        "coupling-range",
        "c-bound",
    ]
    claims = {name: ClaimResult(name, domain, tolerance=INEQ_TOL) for name in names}
    claims["coupling-range"].tolerance = None  # open interval: a slack of 0 fails
    claims["p-reformulation"] = ClaimResult("p-reformulation", domain, tolerance=0.0)
    per_cell = [name for name in claims if name not in ("p-numerator-nonneg", "c-bound")]
    width = min(SCAN_BLOCK, t_max)
    # From the block's first t: alpha_{t-1}^2 .. alpha_{t+1}^2 at its last t
    # (seq * seq, equal to seq ** 2 bit for bit); alpha_1 + .. + alpha_{t-1},
    # then the sums up to each alpha_t; D_{t-1}, then each D_t.
    sq_buf, csum_buf, den_buf = np.empty(width + 2), np.empty(width + 1), np.empty(width + 1)
    (core_buf, core_scale_buf, growth_buf, tau_buf, tau_range_buf, xi_sq_buf,
     numer_buf, p_buf, w1_buf, w2_buf) = (np.empty(width) for _ in range(10))

    for alpha in alpha_grid:
        cells = {}  # xi's bits -> (first b with that xi, its params, the cell's running minima)
        for b in batch_sizes:
            params = _derive_constants(float(alpha), b)
            if xi_override is not None:
                params = replace(params, xi=xi_override)
            claims["c-bound"].update(
                (C_MAX - params.c) / C_MAX,
                lambda i, alpha=alpha, b=b: f"(alpha={alpha:.6g}, b={b})",
            )
            # a b whose xi's bits repeat an earlier b's would repeat its slacks
            cells.setdefault(params.xi.hex(), (b, params, {
                name: ClaimResult(name, domain, tolerance=claims[name].tolerance)
                for name in per_cell}))
        carry = 0.0  # alpha_1 + .. + alpha_s, carried from block to block
        for s in range(0, t_max, SCAN_BLOCK):
            e = min(s + SCAN_BLOCK, t_max)  # t = s+1 .. e
            m = e - s
            # alpha_s .. alpha_{e+1}, which depend on alpha alone: any b's params serve
            seq = alpha_sequence(e + 1, params, s)
            a_t = seq[1:m + 1]
            sq = np.multiply(seq, seq, out=sq_buf[:m + 2])
            sq_t = sq[1:m + 1]
            # the carried sum first, so np.cumsum adds the terms of one pass over t
            csum = csum_buf[:m + 1]
            csum[0] = carry
            csum[1:] = a_t
            np.cumsum(csum, out=csum)
            carry = csum[-1]
            w1, w2 = w1_buf[:m], w2_buf[:m]
            core = _p_core(sq[:m], sq_t, a_t, out=core_buf[:m])
            core_scale = np.abs(core, out=core_scale_buf[:m])
            np.maximum(core_scale, 1.0, out=core_scale)
            claims["p-numerator-nonneg"].update(
                _normalized_gap(0.0, core, rhs_scale=core_scale, out=w1),
                _block_point(alpha, batch_sizes[0], s),
            )
            growth = np.subtract(sq[2:], sq_t, out=growth_buf[:m])
            tau = np.divide(1.0, a_t, out=tau_buf[:m])
            tau_range = np.minimum(tau, np.subtract(1.0, tau, out=w1), out=tau_range_buf[:m])
            for b, params, cell in cells.values():
                xi = params.xi
                here = _block_point(alpha, b, s)
                den = _denominator(sq[:m + 1], csum, params, out=den_buf[:m + 1])
                den_prev = den[:-1]
                lhs_key = np.multiply(xi, growth, out=w1)
                cell["key-growth-inequality"].update(
                    _normalized_gap(lhs_key, core, rhs_scale=core_scale, out=w1), here
                )
                xi_sq = np.multiply(xi, sq_t, out=xi_sq_buf[:m])
                xi_scale = np.abs(xi_sq, out=w2)  # the second gap's slack overwrites it
                np.maximum(xi_scale, 1.0, out=xi_scale)
                lower = _normalized_gap(xi_sq, den_prev, lhs_scale=xi_scale, out=w1)
                np.minimum(
                    lower, _normalized_gap(0.0, xi_sq, rhs_scale=xi_scale, out=w2), out=lower
                )
                cell["denominator-lower-bound"].update(lower, here)
                p = _p_ratio(core, xi_sq, den[1:], out=p_buf[:m], numer=numer_buf[:m])
                np.subtract(1.0, p, out=w1)
                cell["p-range"].update(np.minimum(p, w1, out=w1), here)
                coupling = np.subtract(1.0 - xi, tau, out=w1)
                np.minimum(tau_range, coupling, out=coupling)
                np.minimum(coupling, min(xi, 1.0 - xi), out=coupling)
                cell["coupling-range"].update(coupling, here)
                # Shifted reformulation: the same numerator over core + D_{t-1}.
                p_alt = np.add(core, den_prev, out=w1)
                np.divide(numer_buf[:m], p_alt, out=p_alt)
                err = np.abs(np.subtract(p, p_alt, out=w1), out=w1)
                cell["p-reformulation"].update(np.subtract(EQ_TOL, err, out=err), here)
        for _, _, cell in cells.values():
            for name, claim in cell.items():
                claims[name].update(claim.min_slack, lambda i, at=claim.worst_at: at)

    return CertificateReport(claims=list(claims.values()))


def scan_denominator_growth(
    alpha: float,
    t_max: int = 100_000,
    batch_size: int = 1,
) -> CertificateReport:
    """Certify D_t >= a_tilde * t^(alpha+1) for t >= 17.

    a_tilde is a_alpha/(2*alpha+2) for alpha < 1 and 1/16 at alpha = 1 (the
    two expressions coincide there).  The alpha = 0 branch is excluded: its
    denominator is affine in t and handled directly.  For t < 17 the minimum
    positive ratio D_t / t^(alpha+1) is reported as its own claim.

    ``verify`` scans b = 1 only.  D_t falls as b grows (alpha_tilde0 =
    36/(b c)), so the slack at b = 1 is the largest over b, not a bound for
    every b.  At t_max = 100,000 the growth slack reads 0.43794 at
    alpha = 0.5, b = 1 and 0.43255 at b = 1000, and 2.0176e-5 at alpha = 1,
    b = 1 and 2.0156e-5 at b = 1000; every one of these passes.

    t is walked in blocks of ``SCAN_BLOCK`` indices, so memory does not grow
    with t_max.  Each block takes its alpha_t from ``alpha_sequence``, and
    the running sum of alpha_t is carried into ``np.cumsum`` from block to
    block, as the solver's tables do: every D_t equals
    ``denominator_sequence``'s bit for bit.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("growth scan needs alpha in (0, 1]; alpha = 0 is affine")
    if t_max < GROWTH_START:
        raise ValueError(f"t_max must be >= {GROWTH_START}")
    params = _derive_constants(alpha, batch_size)
    a_tilde = 1.0 / 16.0 if alpha == 1.0 else params.a_alpha / (2.0 * alpha + 2.0)
    domain = f"alpha={alpha:.6g}, b={batch_size}, t in [17, {t_max}]"
    tail = ClaimResult("denominator-growth", domain, tolerance=INEQ_TOL)
    head = ClaimResult("denominator-early-ratio", f"alpha={alpha:.6g}, t in [1, 16]",
                       tolerance=0.0)
    carry = -ALPHA0  # alpha_0 is no term of D_t's sum: carry -alpha_0 into t = 0
    for s in range(0, t_max + 1, SCAN_BLOCK):
        e = min(s + SCAN_BLOCK, t_max + 1)  # t = s .. e-1
        seq = alpha_sequence(e - 1, params, s)
        csum = np.cumsum(np.concatenate(([carry], seq)))[1:]
        carry = csum[-1]
        den = _denominator(np.multiply(seq, seq, out=seq), csum, params)
        t_pow = np.arange(s, e, dtype=np.float64)
        t_pow **= alpha + 1.0  # in place, bit for bit t ** (alpha + 1)
        if s == 0:  # SCAN_BLOCK > GROWTH_START: the first block holds the head
            head.update(
                den[1:GROWTH_START] / t_pow[1:GROWTH_START],
                lambda i: f"(alpha={alpha:.6g}, t={i + 1})",
            )
        lo = max(s, GROWTH_START)
        tail.update(
            _normalized_gap(a_tilde * t_pow[lo - s:], den[lo - s:]),
            lambda i, lo=lo: f"(alpha={alpha:.6g}, t={i + lo})",
        )
    return CertificateReport(claims=[tail, head])


def exact_conditional_lyapunov_descent(state: KatyushaHState, problem) -> tuple[float, float]:
    """Exact E[L_{t+1} | state] next to the current L_t.

    The expectation enumerates every size-b subset (each yields deterministic
    z and y updates) crossed with both checkpoint outcomes weighted by
    (p_t, 1 - p_t).  Descent means expected <= current.
    """
    ref = problem.reference
    if ref is None:
        raise ValueError("descent oracle requires a reference solution")
    table, t, params = state.table, state.t, state.params
    tau, p = tau_at(table, t), p_at(table, t)
    alpha_prev, alpha_t, den_prev, den_t, _ = table.rows[t - table.start]
    xi = params.xi
    eta = state.eta

    gap_w = problem.value(state.ckpt.w) - ref.f_star
    gap_y = problem.value(state.y) - ref.f_star
    current = analysis.lyapunov(gap_y, gap_w, state.z, alpha_prev, den_prev, eta, problem)

    x_next = tau * state.z + xi * state.ckpt.w + (1.0 - xi - tau) * state.y
    _, means = _subset_walk(x_next, state.ckpt.w, params.batch_size, problem)
    step_len = alpha_t * eta
    alpha_sq = alpha_t ** 2

    acc = 0.0
    for count, mean in enumerate(means, 1):
        g = mean + state.ckpt.full_grad
        z_next = prox(problem.reg, state.z - step_len * g, step_len)
        y_next = x_next + tau * (z_next - state.z)
        dz = z_next - ref.x_star
        acc += alpha_sq * (problem.value(y_next) - ref.f_star) + float(dz @ dz) / (2.0 * eta)
    expected = acc / count + den_t * ((1.0 - p) * gap_w + p * gap_y)
    return expected, current


def verify_variance_bound(
    problem,
    points: list[tuple[np.ndarray, np.ndarray]],
    b_values: tuple[int, ...],
) -> CertificateReport:
    """Exact variance against its smoothness bound, plus the subset-sum law.

    For each (x, w, b), from one walk over every size-b subset: the estimator
    variance must not exceed (2L/b) times the Bregman divergence, and the
    subset gradient-difference sums must average to (b/n) times the full
    sum, checked on means: the subset means must average to the full mean.
    """
    domain = f"{len(points)} points, b in {{{', '.join(str(b) for b in b_values)}}}"
    bound = ClaimResult("variance-bound", domain, tolerance=INEQ_TOL)
    identity = ClaimResult("subset-sum-identity", domain, tolerance=0.0)
    for k, (x, w) in enumerate(points):
        for b in b_values:
            full, mean, var = _subset_moments(x, w, b, problem)
            where = f"(point {k}, b={b})"
            rhs = variance_bound_rhs(x, w, problem, b)
            bound.update(_normalized_gap(var, rhs), lambda i: where)
            err = float(np.linalg.norm(mean - full)) / max(1.0, float(np.linalg.norm(full)))
            identity.update(EQ_TOL - err, lambda i: where)
    return CertificateReport(claims=[bound, identity])
