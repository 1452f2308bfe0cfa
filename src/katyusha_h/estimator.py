"""Mini-batch SVRG gradient estimator with exact IFO accounting.

Cost model: every component-gradient evaluation is one IFO unit.  One
estimate charges 2b (gradients at the current point and at the checkpoint
for each sampled component), or b when the checkpoint side counts as cached;
the ledger fixes which at construction, and the arithmetic is the same under
either charge.  A full-gradient (re)computation at a checkpoint charges n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np


class EnumerationCapError(RuntimeError):
    """Exact enumeration would exceed the configured subset cap."""


@dataclass
class IfoLedger:
    """Exact component-gradient call counts, split by purpose."""

    minibatch_calls: int = 0
    checkpoint_calls: int = 0
    per_sample: int = 2  # IFO per sampled component: 1 if the checkpoint side is cached


@dataclass
class Checkpoint:
    """Full-gradient point: the iterate w, its full gradient, and the n
    scalar residuals r_i(w) (memory n).  For these linear models
    grad f_i(w) = a_i * r_i(w), so an estimate rebuilds the checkpoint side
    from the sampled feature rows without re-evaluating the loss."""

    w: np.ndarray
    full_grad: np.ndarray
    residuals: np.ndarray


def make_checkpoint(w: np.ndarray, problem, ledger: IfoLedger) -> Checkpoint:
    """Compute the full gradient at w (cost n) and wrap it as a checkpoint."""
    residuals = problem.residual(slice(None), w)
    ledger.checkpoint_calls += problem.n
    full = problem.A.T @ residuals / problem.n
    return Checkpoint(w=w, full_grad=full, residuals=residuals)


# Up to this batch size, b scalar draws beat one array-bound call: a scalar
# draw costs about 2.5 us and the array call about 10 us of fixed overhead.
_SCALAR_DRAW_MAX_B = 4


def sample_subset(n: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """b distinct indices from range(n), uniform over all size-b subsets.

    Partial Fisher-Yates with a sparse swap map: O(b) time and memory, and
    exactly uniform because every b-prefix of a uniform permutation is
    equally likely.  Step i swaps position i with a target uniform on
    [i, n).  numpy draws each bounded integer with Lemire's method whether
    the bound is a scalar or an array, so one ``rng.integers(arange(b), n)``
    call consumes the stream exactly as b scalar calls do and returns the
    same targets.  Batches of at most ``_SCALAR_DRAW_MAX_B`` keep the scalar
    calls, which are cheaper there than the array call's fixed overhead.
    """
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    if b == n:
        return np.arange(n)
    targets = rng.integers(np.arange(b), n).tolist() if b > _SCALAR_DRAW_MAX_B else None
    swaps: dict[int, int] = {}
    out = np.empty(b, dtype=np.intp)
    for i in range(b):
        j = int(rng.integers(i, n)) if targets is None else targets[i]
        out[i] = swaps.get(j, j)
        swaps[j] = swaps.get(i, i)
    return out


def svrg_estimate(
    x: np.ndarray,
    ckpt: Checkpoint,
    idx: np.ndarray,
    problem,
    ledger: IfoLedger,
) -> np.ndarray:
    """(1/b) * sum_{j in idx} (grad_j(x) - grad_j(w)) + full_grad(w).

    With b = n the sums telescope; the full-batch path evaluates the full
    gradient directly so it is bit-identical to a plain full-gradient call.
    """
    b = len(idx)
    ledger.minibatch_calls += ledger.per_sample * b
    if b == problem.n:
        return problem.full_grad(x)
    rows = problem.A[idx]
    diff = rows.T @ (problem.residual(idx, x, rows) - ckpt.residuals[idx])
    return diff / b + ckpt.full_grad


def maybe_update_checkpoint(
    ckpt: Checkpoint,
    candidate: np.ndarray,
    p: float,
    rng: np.random.Generator,
    problem,
    ledger: IfoLedger,
    candidate_is_w: bool = False,
) -> tuple[Checkpoint, bool]:
    """With probability p replace the checkpoint by ``candidate``.

    ``candidate_is_w`` is a provenance flag from the caller: the candidate is
    an untouched copy of w, so a hit is a no-op and the full-gradient
    recompute is skipped at zero cost.  Identity is never inferred from
    floating-point comparison.

    Exactly one uniform variate is consumed per call regardless of p, so the
    random stream does not depend on the probability values.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    hit = rng.random() < p
    if not hit:
        return ckpt, False
    if candidate_is_w:
        return ckpt, True
    return make_checkpoint(np.array(candidate, copy=True), problem, ledger), True


def variance_bound_rhs(x: np.ndarray, w: np.ndarray, problem, b: int) -> float:
    """(2L/b) times the Bregman divergence f(w) - f(x) - <grad f(x), w - x>."""
    if b < 1:
        raise ValueError("b must be positive")
    bregman = (
        problem.smooth_value(w)
        - problem.smooth_value(x)
        - float(problem.full_grad(x) @ (np.asarray(w) - np.asarray(x)))
    )
    return 2.0 * problem.L / b * bregman


def exact_variance(
    x: np.ndarray,
    ckpt: Checkpoint,
    b: int,
    problem,
    cap: int = 100_000,
) -> float:
    """E||estimate - full_grad(x)||^2 by enumerating every size-b subset.

    Pure oracle: recomputes gradients directly and charges nothing.  Refuses
    (EnumerationCapError) when C(n, b) exceeds ``cap`` rather than sampling.
    """
    n = problem.n
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    total = comb(n, b)
    if total > cap:
        raise EnumerationCapError(f"C({n},{b}) = {total} exceeds cap {cap}")
    diffs = problem.component_grad_matrix(x) - problem.component_grad_matrix(ckpt.w)
    full_diff = diffs.mean(axis=0)
    acc = 0.0
    for subset in combinations(range(n), b):
        dev = diffs[list(subset)].mean(axis=0) - full_diff
        acc += float(dev @ dev)
    return acc / total


def enumeration_mean_estimate(
    x: np.ndarray, ckpt: Checkpoint, b: int, problem, cap: int = 100_000
) -> np.ndarray:
    """Mean of the estimator over every size-b subset (unbiasedness oracle)."""
    n = problem.n
    total = comb(n, b)
    if total > cap:
        raise EnumerationCapError(f"C({n},{b}) = {total} exceeds cap {cap}")
    diffs = problem.component_grad_matrix(x) - problem.component_grad_matrix(ckpt.w)
    acc = np.zeros(problem.d)
    for subset in combinations(range(n), b):
        acc += diffs[list(subset)].mean(axis=0)
    return acc / total + ckpt.full_grad
