"""Brute-force certification of the schedule inequalities and descent laws.

Every claim is checked exhaustively over a grid (no sampling): schedule
inequalities over a dense exponent grid and a full index range, estimator
laws by enumerating every subset, and the Lyapunov descent by enumerating
subsets crossed with both checkpoint outcomes.  Scans are falsifiable by
construction: injecting a broken parameter must produce a failing claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .estimator import _subset_moments, _subset_walk, variance_bound_rhs
from .optimizers import KatyushaHState
from .proximal import prox
from .schedule import (
    GROWTH_START,
    C_MAX,
    _denominator,
    _p_ratio,
    alpha_sequence,
    compute_constants,
    denominator_sequence,
    p_at,
    tau_at,
)

INEQ_TOL = 1e-9  # normalized slack floor for inequality claims
EQ_TOL = 1e-12  # absolute tolerance for reformulation identities
GRID_PROBE = 1e-6  # offset of the alpha-grid probes around each bucket boundary
SCAN_BLOCK = 16_384  # t indices per block of a schedule scan; its temporaries stay in cache


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one scanned claim: worst slack and where it occurred."""

    claim: str
    domain: str
    min_slack: float
    worst_at: str
    tolerance: float

    @property
    def passed(self) -> bool:
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


class _ClaimTracker:
    """Running minimum slack per claim across grid cells.

    The first strict minimum wins.  A NaN slack is a point where the claim
    could not be evaluated: the first one becomes the worst point and stays,
    so the claim fails.
    """

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.min_slack = math.inf
        self.worst_at = "n/a"

    def update(self, slack: np.ndarray | float, where) -> None:
        arr = np.atleast_1d(np.asarray(slack, dtype=np.float64))
        i = int(np.argmin(arr))  # the first NaN, if there is one
        if not (arr[i] >= self.min_slack or math.isnan(self.min_slack)):
            self.min_slack = float(arr[i])
            self.worst_at = where(i)

    def result(self, claim: str, domain: str) -> ClaimResult:
        return ClaimResult(
            claim=claim,
            domain=domain,
            min_slack=self.min_slack,
            worst_at=self.worst_at,
            tolerance=self.tolerance,
        )


def default_alpha_grid(step: float = 0.01) -> np.ndarray:
    """Dense grid over [0, 1] plus bucket boundaries and near-boundary probes.

    The growth-coefficient buckets are closed on the right, so probes at
    +-``GRID_PROBE`` around each boundary catch off-by-bucket mistakes.
    """
    if not 0.0 < step <= 1.0:  # also refuses nan
        raise ValueError(f"alpha grid step must be in (0, 1], got {step}")
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


def _normalized_gap(lhs: np.ndarray | float, rhs: np.ndarray) -> np.ndarray:
    """Slack of 'lhs <= rhs' scaled by max(1, |lhs|, |rhs|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return (rhs - lhs) / scale


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
    p_t in [0, 1]; tau_t, xi, 1 - xi - tau_t in (0, 1); c <= 5; and equality
    of the shifted p_t reformulation with the direct formula.

    ``xi_override`` replaces xi (and alpha_tilde0 = 36*xi) with a raw value,
    bypassing the constructor guards; it exists for fault injection.

    alpha_t, its square and its running sum depend on alpha alone, so each
    alpha computes them once for every b.  Each (alpha, b) cell then walks t
    in blocks of ``SCAN_BLOCK`` indices, whose temporaries stay in cache;
    the claims see the cells and blocks in (alpha, b, t) order, so the
    first worst point is the one a single pass over the cell would find.
    """
    if t_max < 18:
        raise ValueError("t_max must be at least 18")
    if t_max > 10_000_000:
        # running-sum rounding stays below 1e-10 relative up to here
        raise ValueError("t_max above 1e7 risks accumulation error in the scan")
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
    trackers = {name: _ClaimTracker(INEQ_TOL) for name in names}
    trackers["p-reformulation"] = _ClaimTracker(0.0)

    for alpha in alpha_grid:
        cells = []
        for b in batch_sizes:
            params = compute_constants(float(alpha), b)
            if xi_override is not None:
                params = replace(
                    params, xi=xi_override, alpha_tilde0=36.0 * xi_override
                )
            cells.append((b, params))
        # alpha_t depends on alpha alone, so every b reads the same arrays
        seq = alpha_sequence(t_max + 1, cells[0][1])  # alpha_0 .. alpha_{t_max+1}
        sq = seq * seq  # equals seq ** 2 bit for bit
        csum = np.concatenate(([0.0], np.cumsum(seq[1:-1])))  # alpha_1 + .. + alpha_t
        for b, params in cells:
            xi = params.xi
            trackers["c-bound"].update(
                (C_MAX - params.c) / C_MAX,
                lambda i, alpha=alpha, b=b: f"(alpha={alpha:.6g}, b={b})",
            )
            for s in range(0, t_max, SCAN_BLOCK):
                e = min(s + SCAN_BLOCK, t_max)  # t = s+1 .. e

                def here(i, alpha=alpha, b=b, s=s):
                    return f"(alpha={alpha:.6g}, b={b}, t={s + i + 1})"

                a_t = seq[s + 1:e + 1]
                sq_t = sq[s + 1:e + 1]
                den = _denominator(seq[s:e + 1], csum[s:e + 1], params)  # D_{t-1}, D_t
                numer_core = sq[s:e] - sq_t + a_t
                lhs_key = xi * (sq[s + 2:e + 2] - sq_t)
                trackers["key-growth-inequality"].update(
                    _normalized_gap(lhs_key, numer_core), here
                )
                trackers["p-numerator-nonneg"].update(
                    _normalized_gap(0.0, numer_core), here
                )
                xi_at2 = xi * sq_t
                trackers["denominator-lower-bound"].update(
                    np.minimum(
                        _normalized_gap(xi_at2, den[:-1]),
                        _normalized_gap(0.0, xi_at2),
                    ),
                    here,
                )
                p = _p_ratio(seq[s:e], a_t, den[1:], xi)
                trackers["p-range"].update(np.minimum(p, 1.0 - p), here)
                tau = 1.0 / a_t
                coupling = np.minimum(np.minimum(tau, 1.0 - tau), 1.0 - xi - tau)
                coupling = np.minimum(coupling, min(xi, 1.0 - xi))
                trackers["coupling-range"].update(coupling, here)
                # Shifted reformulation: same numerator over numer_core + D_{t-1}.
                p_alt = (numer_core + xi_at2) / (numer_core + den[:-1])
                trackers["p-reformulation"].update(
                    EQ_TOL - np.abs(p - p_alt), here
                )

    return CertificateReport(
        claims=[t.result(name, domain) for name, t in trackers.items()]
    )


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
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("growth scan needs alpha in (0, 1]; alpha = 0 is affine")
    if t_max < GROWTH_START:
        raise ValueError(f"t_max must be >= {GROWTH_START}")
    params = compute_constants(alpha, batch_size)
    a_tilde = 1.0 / 16.0 if alpha == 1.0 else params.a_alpha / (2.0 * alpha + 2.0)
    seq = alpha_sequence(t_max, params)
    den = denominator_sequence(seq, params)
    t = np.arange(t_max + 1, dtype=np.float64)
    growth = a_tilde * t ** (alpha + 1.0)

    tail = _ClaimTracker(INEQ_TOL)
    tail.update(
        _normalized_gap(growth[GROWTH_START:], den[GROWTH_START:]),
        lambda i: f"(alpha={alpha:.6g}, t={i + GROWTH_START})",
    )
    head = _ClaimTracker(0.0)
    ratios = den[1:GROWTH_START] / t[1:GROWTH_START] ** (alpha + 1.0)
    head.update(ratios, lambda i: f"(alpha={alpha:.6g}, t={i + 1})")

    domain = f"alpha={alpha:.6g}, b={batch_size}, t in [17, {t_max}]"
    return CertificateReport(
        claims=[
            tail.result("denominator-growth", domain),
            head.result(
                "denominator-early-ratio", f"alpha={alpha:.6g}, t in [1, 16]"
            ),
        ]
    )


def exact_conditional_lyapunov_descent(state: KatyushaHState, problem) -> tuple[float, float]:
    """Exact E[L_{t+1} | state] next to the current L_t.

    The expectation enumerates every size-b subset (each yields deterministic
    z and y updates) crossed with both checkpoint outcomes weighted by
    (p_t, 1 - p_t).  Descent means expected <= current.
    """
    ref = problem.reference
    if ref is None:
        raise ValueError("descent oracle requires a reference solution")
    cur = state.cursor
    params = state.params
    tau = tau_at(cur)
    xi = params.xi
    p = p_at(cur, params)
    eta = state.eta

    gap_w = problem.value(state.ckpt.w) - ref.f_star
    gap_y = problem.value(state.y) - ref.f_star
    current = analysis.lyapunov(gap_y, gap_w, state.z, cur, eta, problem)

    x_next = tau * state.z + xi * state.ckpt.w + (1.0 - xi - tau) * state.y
    _, means = _subset_walk(x_next, state.ckpt.w, params.batch_size, problem)
    step_len = cur.alpha_t * eta
    alpha_sq = cur.alpha_t ** 2

    acc = 0.0
    for count, mean in enumerate(means, 1):
        g = mean + state.ckpt.full_grad
        z_next = prox(problem.reg, state.z - step_len * g, step_len)
        y_next = x_next + tau * (z_next - state.z)
        dz = z_next - ref.x_star
        acc += alpha_sq * (problem.value(y_next) - ref.f_star) + float(dz @ dz) / (2.0 * eta)
    expected = acc / count + cur.den_t * ((1.0 - p) * gap_w + p * gap_y)
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
    bound = _ClaimTracker(INEQ_TOL)
    identity = _ClaimTracker(0.0)
    for k, (x, w) in enumerate(points):
        for b in b_values:
            full, mean, var = _subset_moments(x, w, b, problem)
            where = f"(point {k}, b={b})"
            rhs = variance_bound_rhs(x, w, problem, b)
            bound.update(_normalized_gap(var, rhs), lambda i: where)
            err = float(np.linalg.norm(mean - full)) / max(1.0, float(np.linalg.norm(full)))
            identity.update(EQ_TOL - err, lambda i: where)
    domain = f"{len(points)} points, b in {{{', '.join(str(b) for b in b_values)}}}"
    return CertificateReport(
        claims=[
            bound.result("variance-bound", domain),
            identity.result("subset-sum-identity", domain),
        ]
    )
