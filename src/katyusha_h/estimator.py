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


ENUMERATION_CAP = 100_000  # most subsets an exact oracle enumerates


class EnumerationCapError(RuntimeError):
    """Exact enumeration would exceed ``ENUMERATION_CAP`` subsets."""


@dataclass
class IfoLedger:
    """Exact component-gradient call counts, split by purpose."""

    minibatch_calls: int = 0
    checkpoint_calls: int = 0
    per_sample: int = 2  # IFO per sampled component: 1 if the checkpoint side is cached


@dataclass(slots=True)
class Checkpoint:
    """Full-gradient point: the iterate w, its full gradient, and the n
    scalar residuals r_i(w) and margins a_i'w (memory 2n).  As grad f_i(w) =
    a_i * r_i(w), an estimate rebuilds the checkpoint side from the sampled
    rows, and F(w) is read from the margins without a second pass over A."""

    w: np.ndarray
    full_grad: np.ndarray
    residuals: np.ndarray
    margins: np.ndarray


def make_checkpoint(w: np.ndarray, problem, ledger: IfoLedger) -> Checkpoint:
    """Compute the full gradient at w (cost n) and wrap it as a checkpoint."""
    margins = np.empty(problem.n)
    residuals = problem.residual(w, problem.A, problem.targets, margins)
    ledger.checkpoint_calls += problem.n
    full = problem.A.T @ residuals / problem.n
    return Checkpoint(w=w, full_grad=full, residuals=residuals, margins=margins)


def _resolve_block(targets: np.ndarray, n: int) -> np.ndarray:
    """Resolve a (K, b) block of swap-target rows in place, each row to its
    partial Fisher-Yates output, and return the block.

    Step i of a row t_0..t_{b-1} (t_i >= i) swaps position i with position
    t_i of range(n).  So out[i] = t_i unless an earlier step targeted t_i;
    then out[i] = S(k) for the last such step k, where S(k) is the value at
    position k before step k: k itself, or S(k') when an earlier step k'
    targeted position k, taking the last such k'.  Sorting each row's keys
    t_i * b + i orders its steps by target, then step: an entry that repeats
    its sorted neighbour's target takes the neighbour's step as k.  Each
    pass of the loop follows one S link of every unresolved repeat in the
    block with one ``searchsorted`` over all the block's keys, so the loop
    runs once per chain level (one or two levels at b << n).  This is the
    package's only resolver; the tests hold the per-row swap-map loop it is
    checked against.
    """
    rows, b = targets.shape
    if b == 1:
        return targets
    # Row r's keys are r*n*b + t*b + i < (r + 1)*n*b, so every key is below
    # n * rows*b.  DrawStream refuses n > 2**32 and keeps rows*b below
    # 2**17 + b, which fits int64 for every b < 2**31 - 2**17 (a longer row
    # would need 16 GiB for its targets alone); sample_subset's one row
    # refuses n * b >= 2**63.
    stride = n * b
    keys = targets * b + np.arange(b)
    keys.sort(axis=1)
    keys += np.arange(0, rows * stride, stride)[:, None]
    keys = keys.ravel()
    target_of = keys // b
    rep = np.flatnonzero(target_of[1:] == target_of[:-1]) + 1
    src = keys[rep - 1] % b  # k: the step of the repeat's sorted neighbour
    row_key = rep // b * stride
    todo = np.arange(rep.size)
    while todo.size:
        low = row_key[todo] + src[todo] * b  # the least key of target k
        query = low + src[todo]
        # sorted queries walk the keys in order: 1.7x faster at n = 2**16, b = n - 1
        order = np.argsort(query)
        pos = np.empty_like(query)
        pos[order] = np.searchsorted(keys, query[order]) - 1  # last key below step k
        prev = keys[pos]
        linked = (pos >= 0) & (prev >= low)
        todo = todo[linked]
        src[todo] = (prev - low)[linked]
    targets[rep // b, keys[rep] % b] = src
    return targets


def sample_subset(n: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """b distinct indices from range(n), uniform over all size-b subsets.

    Partial Fisher-Yates: O(b) time and memory, and exactly uniform because
    every b-prefix of a uniform permutation is equally likely.  Step i swaps
    position i with a target uniform on [i, n).  numpy draws each bounded
    integer with Lemire's method whether the bound is a scalar or an array,
    so one ``rng.integers(arange(b), n)`` call consumes the stream exactly as
    b scalar calls do and returns the same targets; ``_resolve_block``
    resolves them as one row.  The resolver's int64 keys need n * b < 2**63.

    A run draws through ``DrawStream``; this function is the reference it
    is tested against.
    """
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    if n * b >= 2**63:
        raise ValueError(f"need n * b < 2**63, got b={b}, n={n}")
    if b == n:
        return np.arange(n)
    targets = rng.integers(np.arange(b), n, dtype=np.intp)
    return _resolve_block(targets[None], n)[0]


_LOW32 = 0xFFFFFFFF
_COIN_SCALE = 1.0 / 9007199254740992.0  # 2**-53
# A block covers at most _BLOCK_ITERATIONS iterations and about
# _BLOCK_INDICES subset indices (1 MiB of targets); an epsilon-stopped run
# discards at most one block's draws.
_BLOCK_ITERATIONS = 1024
_BLOCK_INDICES = 2**17
# A span of a block gathers at most _SPAN_BYTES of feature rows (8*b*d bytes
# per iteration), and at least one iteration's.  A span saves the fixed cost
# of the gather calls, which matters only while an iteration's rows are
# small; larger spans are read back from a farther cache level: at
# b = d = 100, 1 MiB spans (13 iterations) made a step 13-19% slower than
# one gather per iteration, and 64 KiB spans are one iteration long there.
_SPAN_BYTES = 2**16
# A fill lays its draws out again after each rejected one, so one layout
# reaches only as many draws ahead as hold _RUN_REJECTIONS rejections on
# average: at n = 10**8, b = 10**4, where 2.2% of draws are rejected, layouts
# to the end of the block made a fill about 20x slower.
_RUN_REJECTIONS = 4


def check_seed(seed: int) -> None:
    """Refuse a seed that is no Philox key: an integer in [0, 2**128).
    Philox itself would truncate a float and run on."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2**128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")


class DrawStream:
    """One run's random draws: per iteration a size-b subset, then one coin.

    The draws equal, bit for bit, what ``sample_subset(n, b, g)`` followed by
    ``g.random()`` return on ``g = Generator(Philox(key=seed))``, iteration
    after iteration, but are made a block of iterations at a time from the
    counter-based generator's raw 64-bit words (Salmon et al., "Parallel
    random numbers: as easy as 1, 2, 3", SC'11).  The Generator's rules,
    replayed here with numpy:

    * a bounded draw on [i, n) takes one uint32, the low half of a fresh raw
      word or the high half kept from the previous uint32 draw (kept across
      iterations too), and applies Lemire's method ("Fast random integer
      generation in an interval", ACM TOMACS 2019): m = u * (n - i) is
      rejected while its low 32 bits fall below 2**32 mod (n - i), and the
      target is i + (m >> 32);
    * a coin takes a whole raw word w and is (w >> 11) * 2**-53, leaving a
      kept half in place.

    A fill lays out its raw words as if no draw were rejected, a window of
    draws at a time, tests them all at once, keeps the draws before the
    first rejection and lays out again from the draw after it,
    mid-iteration if need be.  The swap targets of the whole block become
    their partial Fisher-Yates subsets together, repeats included, in one
    ``_resolve_block`` call, the resolver ``sample_subset`` uses too.  The
    block's subsets are one (K, b) index array.  When b == n the subset is
    all of range(n) and only coins are drawn.  ``next()``, the only call
    that moves the stream, moves to the next iteration and returns its coin;
    ``gathered()`` returns that iteration's feature rows, targets and
    checkpoint residuals, gathered a span of iterations at a time, and the
    ``subset`` property its row, which no run reads.
    """

    def __init__(self, n: int, b: int, seed: int):
        if not 1 <= b <= n:
            raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
        if n > 2**32:
            raise ValueError(f"block draws need n <= 2**32, got n={n}")
        check_seed(seed)
        self.n, self.b = n, b
        self.divisor = np.array(float(b))  # the estimate's b, a 0-d operand
        self._bits = np.random.Philox(key=seed)
        self._raw = np.empty(0, dtype=np.uint64)  # drawn, not yet consumed
        self._held = np.empty(0, dtype=np.uint32)  # the high half kept, if any
        self._block = min(_BLOCK_ITERATIONS, -(-_BLOCK_INDICES // b))
        self._full = np.arange(n) if b == n else None
        self._idx = np.empty((0, b), dtype=np.intp)  # the block's subsets
        self._coins: list[float] = []
        self._k = self._block - 1  # the current iteration within the block
        self._span_end = 0  # iterations [_span_start, _span_end) are gathered
        if b < n:
            # draw p of a block is step p % b of its iteration, on [p % b, n)
            span = n - np.arange(b, dtype=np.uint64)
            threshold = np.uint64(2**32) % span
            self._steps = np.tile(np.arange(b, dtype=np.uint64), self._block)
            self._spans = np.tile(span, self._block)
            self._thresholds = np.tile(threshold, self._block)
            self._window = _RUN_REJECTIONS * b * 2**32 // max(1, int(threshold.sum())) + 1

    def next(self) -> float:
        """Move to the next iteration and return its checkpoint coin, uniform on [0, 1)."""
        self._k += 1
        if self._k == self._block:
            self._fill()
        return self._coins[self._k]

    @property
    def subset(self) -> np.ndarray:
        """The current iteration's b indices, as a read-only view."""
        row = self._idx[self._k]
        row.flags.writeable = False  # not the block's: take() copies read-only indices
        return row

    def gathered(self, problem, ckpt: Checkpoint):
        """The current iteration's feature rows, targets and checkpoint
        residuals, equal to ``A[idx]``, ``targets[idx]`` and
        ``ckpt.residuals[idx]`` for ``idx = subset`` (b < n).

        They are views into arrays gathered for a span of the block: the
        rows and targets once per span, the residuals once per span and again
        from the current iteration on whenever the checkpoint has changed.
        A stream serves one problem.
        """
        k = self._k
        if k >= self._span_end:
            span = max(1, _SPAN_BYTES // (8 * self.b * problem.d))
            self._span_start, self._span_end = k, min(k + span, self._block)
            idx = self._idx[k:self._span_end]
            self._span_rows = problem.A.take(idx, axis=0)  # faster than A[idx], same rows
            self._span_targets = problem.targets.take(idx)
            self._res_of = None
        if self._res_of is not ckpt.residuals:
            self._res_of, self._res_start = ckpt.residuals, k
            self._span_res = ckpt.residuals.take(self._idx[k:self._span_end])
        j = k - self._span_start
        return self._span_rows[j], self._span_targets[j], self._span_res[k - self._res_start]

    def _fill(self) -> None:
        size = self._block
        if self.b == self.n:
            self._idx = np.broadcast_to(self._full, (size, self.n))
            self._coins = self._coins_of(self._take(size))
        else:
            targets = np.empty(len(self._steps), dtype=np.intp)
            self._coins = []
            drawn = 0
            while drawn < len(targets):
                drawn = self._draw_run(targets, drawn)
            self._idx = _resolve_block(targets.reshape(size, self.b), self.n)
        self._k = 0
        self._span_end = 0

    def _take(self, count: int) -> np.ndarray:
        words = self._peek(count)
        self._raw = self._raw[count:]
        return words

    def _peek(self, count: int) -> np.ndarray:
        short = count - len(self._raw)
        if short > 0:
            self._raw = np.concatenate([self._raw, self._bits.random_raw(short)])
        return self._raw[:count]

    @staticmethod
    def _coins_of(words: np.ndarray) -> list[float]:
        return ((words >> 11).astype(np.float64) * _COIN_SCALE).tolist()

    def _draw_run(self, targets: np.ndarray, drawn: int) -> int:
        """Draw the swap targets ``targets[drawn:]`` of the block's iterations
        in row order, and each completed iteration's coin, up to the first
        rejected draw or ``_window`` draws; return how many are drawn."""
        b, kept = self.b, len(self._held)
        end = min(len(targets), drawn + self._window)
        # Without rejections, draw p takes half p - drawn of the kept half and
        # the split uint32 words, and the i-th iteration to end in the window,
        # at draw e, draws its coin after i coins and (e - drawn - kept + 1)//2
        # words: raw word (e - drawn - kept + 1 + 2i)//2.
        ends = end // b - drawn // b
        first = (drawn // b + 1) * b - drawn - kept + 1
        coin_at = np.arange(first, first + ends * (b + 2), b + 2) // 2
        raw = words = self._peek((end - drawn - kept + 1) // 2 + ends)
        if ends:
            is_coin = np.zeros(len(raw), dtype=bool)
            is_coin[coin_at] = True
            words = raw[~is_coin]
        # each word's low half, then its high half, on any byte order
        halves = np.concatenate((self._held, words.astype("<u8", copy=False).view("<u4")))
        m = halves[: end - drawn] * self._spans[drawn:end]
        rejected = (m & _LOW32) < self._thresholds[drawn:end]
        taken = int(rejected.argmax())
        if not rejected[taken]:
            taken = end - drawn
        at = slice(drawn, drawn + taken)
        targets[at] = (m[:taken] >> 32) + self._steps[at]
        done = (drawn + taken) // b - drawn // b  # iterations completed
        if done:
            self._coins += self._coins_of(raw[coin_at[:done]])
        used = taken + (taken < end - drawn)  # uint32 draws, a rejected one included
        self._held = halves[used : used + (used - kept) % 2].copy()
        self._take((used - kept + 1) // 2 + done)
        return drawn + taken


def svrg_estimate(
    x: np.ndarray, ckpt: Checkpoint, problem, ledger: IfoLedger, draws: DrawStream
) -> np.ndarray:
    """(1/b) * sum_{j in S} (grad_j(x) - grad_j(w)) + full_grad(w), where S
    is the current subset of ``draws`` and its rows, targets and checkpoint
    residuals are the stream's gathered views.

    With b = n the sums telescope; the full-batch path evaluates the full
    gradient directly so it is bit-identical to a plain full-gradient call.
    At b = 1 the exact division by 1 is skipped.  The products are
    ``ndarray.dot`` on C-contiguous rows, the same gemv as ``@`` at under
    half its dispatch cost.
    """
    b = draws.b
    ledger.minibatch_calls += ledger.per_sample * b
    if b == problem.n:
        return problem.full_grad(x)
    rows, targets, r_w = draws.gathered(problem, ckpt)
    diff = (problem.residual(x, rows, targets) - r_w).dot(rows)
    if b == 1:
        return diff + ckpt.full_grad
    return diff / draws.divisor + ckpt.full_grad


def maybe_update_checkpoint(
    ckpt: Checkpoint,
    candidate: np.ndarray,
    p: float,
    coin: float,
    problem,
    ledger: IfoLedger,
) -> tuple[Checkpoint, bool]:
    """Replace the checkpoint by ``candidate`` iff ``coin < p``: with
    probability p for a coin uniform on [0, 1), such as the one a run's
    ``DrawStream.next()`` returns.

    A candidate that is ``ckpt.w`` itself, the same array, makes a hit a
    no-op: the checkpoint is returned at no IFO.  Identity is never inferred
    from floating-point comparison, so an equal-valued copy is refreshed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if not coin < p:
        return ckpt, False
    if candidate is ckpt.w:
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


def _subset_walk(x: np.ndarray, w: np.ndarray, b: int, problem):
    """After refusing b outside [1, n] and C(n, b) above ``ENUMERATION_CAP``:
    the mean of grad f_j(x) - grad f_j(w) over all n components, and each
    size-b subset's mean, in ``combinations`` order.  Charges no IFO."""
    n = problem.n
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    total = comb(n, b)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(f"C({n},{b}) = {total} exceeds cap {ENUMERATION_CAP}")
    diffs = problem.component_grad_matrix(x) - problem.component_grad_matrix(w)
    subsets = combinations(range(n), b)
    return diffs.mean(axis=0), (diffs[list(s)].mean(axis=0) for s in subsets)


def _subset_moments(x: np.ndarray, w: np.ndarray, b: int, problem):
    """One pass of the subset walk: the full mean difference, the mean of the
    subset mean differences, and their mean squared deviation from the full
    one, which is the estimator's exact variance."""
    full, means = _subset_walk(x, w, b, problem)
    acc, sq = np.zeros(problem.d), 0.0
    for count, mean in enumerate(means, 1):
        acc += mean
        dev = mean - full
        sq += float(dev @ dev)
    return full, acc / count, sq / count


def exact_variance(x: np.ndarray, ckpt: Checkpoint, b: int, problem) -> float:
    """E||estimate - full_grad(x)||^2 by enumerating every size-b subset."""
    return _subset_moments(x, ckpt.w, b, problem)[2]


def enumeration_mean_estimate(x: np.ndarray, ckpt: Checkpoint, b: int, problem) -> np.ndarray:
    """Mean of the estimator over every size-b subset (unbiasedness oracle)."""
    return _subset_moments(x, ckpt.w, b, problem)[1] + ckpt.full_grad
