"""Finite-sum problem construction: oracles, datasets, generators, references.

A problem is an average of n smooth convex components plus a regularizer.
Components are stored row-wise (one feature row per component), which keeps
single-component, mini-batch, and full-gradient oracles as plain slices of
the same arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .estimator import check_seed
from .optimizers import fista_solve
from .proximal import Regularizer, reg_value

# Curvature factor of each loss: f_i'' <= CURVATURE[loss] * ||a_i||^2, tight
# for both, so L and the reference solver's L_f scale by it.
CURVATURE = {"least_squares": 1.0, "logistic": 0.25}
# Bytes of margins one product of ``FiniteSumProblem.values`` may hold: it
# evaluates K = min(64, max(2, this // 8n)) points per (K, d) @ (d, n) GEMM,
# which reads A once for the block where K gemvs read it K times.
VALUE_BLOCK_BYTES = 2 << 20
# Read-only 0-d operands of the logistic residual, which dispatch faster than
# floats.  709 is the largest integer exponent whose exp is a finite float64,
# so capping the exponent there keeps exp finite and silent.
_EXP_CAP = np.broadcast_to(709.0, ())
_MINUS_ONE = np.broadcast_to(-1.0, ())


class DataFormatError(ValueError):
    """Malformed dataset text, or a byte of an input file that is not UTF-8;
    carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class SparseDataset:
    """Sparse rows in CSR form with one label per row.

    Row i holds the 1-based feature ``indices[indptr[i]:indptr[i+1]]``,
    strictly increasing, and their ``values``; ``d`` is the feature
    dimension (at least the largest index that appears).
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        shapes = (self.labels.ndim, self.indptr.shape, self.indices.ndim, self.values.shape)
        if shapes != (1, (self.n + 1,), 1, (self.nnz,)):
            raise ValueError("need n labels, n + 1 row pointers, nnz indices and values")
        if self.indptr[0] != 0 or self.indptr[-1] != self.nnz or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must run from 0 to nnz without decreasing")
        fault = _index_fault(self.indptr, self.indices)
        if fault is not None:
            raise ValueError(fault)
        if self.indices.max(initial=0) > self.d:
            raise ValueError(f"feature index {self.indices.max()} exceeds dimension {self.d}")

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def nnz(self) -> int:
        return self.indices.size

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.d))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dense[rows, self.indices - 1] = self.values
        return dense


def _index_fault(indptr: np.ndarray, indices: np.ndarray) -> str | None:
    """What is wrong with the first index below 1 or not above the one before
    it in its row; None when every index is in order."""
    prev = np.zeros(indices.size + 1, dtype=np.int64)
    prev[1:] = indices
    prev[indptr[:-1]] = 0  # a row's first index only has to be >= 1
    bad = np.flatnonzero(indices <= prev[:-1])
    if bad.size == 0:
        return None
    idx, before = indices[bad[0]], prev[bad[0]]
    if idx < 1:
        return f"feature index {idx} must be >= 1"
    return f"feature index {idx} not increasing (previous {before})"


# Feature tokens converted at a time: bounds the parser's lists of strings.
_CHUNK_ENTRIES = 8192
# Every byte but ':' and ' ': deleting them from feature tokens joined by
# single spaces leaves the separators, which alternate ':' and ' ' exactly
# when each token holds one ':'.  Neither byte occurs inside a multibyte
# UTF-8 sequence, so the check is exact for any text.
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b": ")))


def _csr_parts(rows: list[tuple[int, list[str]]]) -> tuple[np.ndarray, ...]:
    """Row lengths, indices, values and labels of (line number, fields) rows.

    The feature tokens are joined by single spaces and, once the separators
    show one ':' per token, split at ':' and ' ' into heads and tails.
    numpy converts labels, heads and tails with Python's own ``float`` and
    ``int`` rules.  Each check runs over all rows at once, in the order ':',
    label, index, index order, value.  A failure raises DataFormatError on
    the last row's line naming the last token of its kind, which is the
    fault itself once ``_parse_rows`` has cut the rows to end at it.
    """
    line_no = rows[-1][0] if rows else 0
    label_toks = [fields[0] for _, fields in rows]
    counts = np.fromiter((len(fields) - 1 for _, fields in rows), np.int64, len(rows))
    tokens = list(chain.from_iterable(fields[1:] for _, fields in rows))
    joined = " ".join(tokens)
    # surrogatepass: a lone surrogate in the text is three bytes, none a separator
    separators = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if separators == b": " * (len(tokens) - 1) + b":":
        parts = joined.replace(":", " ").split(" ")
        heads, tails = parts[::2], parts[1::2]
    else:  # no tokens, or one without ':', or one with two, whose tail is no value
        if not all(map(str.__contains__, tokens, repeat(":"))):
            raise DataFormatError(line_no, f"missing ':' in token {tokens[-1]!r}")
        heads = [tok.partition(":")[0] for tok in tokens]
        tails = [tok.partition(":")[2] for tok in tokens]
    try:
        labels = np.array(label_toks, dtype=np.float64)
    except ValueError:
        raise DataFormatError(line_no, f"bad label {label_toks[-1]!r}") from None
    if not np.all(np.isfinite(labels)):
        raise DataFormatError(line_no, f"non-finite label {label_toks[-1]!r}")
    try:
        indices = np.array(heads, dtype=np.int64)
    except (ValueError, OverflowError):  # OverflowError: beyond int64
        raise DataFormatError(line_no, f"bad feature index {heads[-1]!r}") from None
    fault = _index_fault(np.concatenate(([0], np.cumsum(counts))), indices)
    if fault is not None:
        raise DataFormatError(line_no, fault)
    try:
        values = np.array(tails, dtype=np.float64)
    except ValueError:
        raise DataFormatError(line_no, f"bad feature value {tails[-1]!r}") from None
    if not np.all(np.isfinite(values)):
        raise DataFormatError(line_no, f"non-finite feature value {tails[-1]!r}")
    return counts, indices, values, labels


def _parse_rows(rows: list[tuple[int, list[str]]]) -> tuple[np.ndarray, ...]:
    """``_csr_parts`` of the rows.  On a fault, bisection cuts the rows to end
    at the first faulty row, then that row to end at its first faulty token,
    so the fault raised is the first in line and token order."""

    def first_faulty(count: int, prefix) -> int:  # a longer prefix keeps every fault
        lo, hi = 0, count
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _csr_parts(prefix(mid))
                lo = mid
            except DataFormatError:
                hi = mid
        return hi

    try:
        return _csr_parts(rows)
    except DataFormatError:
        line_no, fields = rows[first_faulty(len(rows), lambda m: rows[:m]) - 1]
        end = first_faulty(len(fields), lambda m: [(line_no, fields[:m])])
        return _csr_parts([(line_no, fields[:end])])  # raises that fault


def parse_libsvm(text: str) -> SparseDataset:
    """Parse 'label idx:val idx:val ...' lines (1-based, increasing indices).

    Blank lines are skipped.  Malformed tokens, non-finite labels or values,
    non-increasing indices and indices beyond int64 raise DataFormatError
    with the offending line number.  Lines are split one at a time and their
    tokens checked and converted a chunk at a time (``_csr_parts``).
    """
    parts, rows, pending = [], [], 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if fields := line.split():
            rows.append((line_no, fields))
            pending += len(fields)
            if pending >= _CHUNK_ENTRIES:
                parts.append(_parse_rows(rows))
                rows, pending = [], 0
    parts.append(_parse_rows(rows))
    counts, indices, values, labels = map(np.concatenate, zip(*parts))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return SparseDataset(indptr, indices, values, labels, d=int(indices.max(initial=0)))


def read_utf8(path: str | Path) -> str:
    """An input file's text, a data file's or a config's, decoded as UTF-8
    whatever the locale.  A byte that is not UTF-8 raises DataFormatError on
    the line that holds it, lines counted as ``str.splitlines`` counts them."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file at once, so the error holds all of
        # its bytes; those before the first bad one decode, and "x" stands
        # for the rest of its line
        line_no = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise DataFormatError(line_no, str(exc)) from None


def write_utf8(path: str | Path, text: str) -> None:
    """Write an output file, a trace, summary, report, reference or dataset,
    as UTF-8 whatever the locale; a surrogate-escaped byte of a file name
    read under another locale is written as that byte.

    A regular file at ``path`` (or a symlink to one) is removed and a new
    file made, never truncated in place: on ext4 with its default
    ``auto_da_alloc``, closing a file truncated to zero starts the writeback
    of what it holds, and truncating it again waits for that, up to 14 ms
    for a 15 KB trace on a 2-vCPU Xeon where a new file took 0.23 ms.
    Anything else at ``path``, a device or FIFO such as /dev/stdout, is
    written through, and a directory raises."""
    path = Path(path)
    if path.is_file():
        path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


def read_libsvm(path: str | Path) -> SparseDataset:
    """``parse_libsvm`` of the data file at ``path``, read by ``read_utf8``."""
    return parse_libsvm(read_utf8(path))


def serialize_libsvm(dataset: SparseDataset) -> str:
    """Canonical text form; floats use the shortest round-trip representation."""
    entries = [f"{i}:{v!r}" for i, v in zip(dataset.indices.tolist(), dataset.values.tolist())]
    bounds = dataset.indptr.tolist()
    lines = [" ".join([repr(label), *entries[lo:hi]])
             for label, lo, hi in zip(dataset.labels.tolist(), bounds, bounds[1:])]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class ReferenceSolution:
    """Stored optimum: point, objective value, and the accuracy of that value.

    ``method`` says how the point was found ("lstsq", "fista-restart", or
    "supplied" for one built by the caller) and ``iterations`` how many
    solver iterations that took.
    """

    x_star: np.ndarray
    f_star: float
    gap_tolerance: float
    method: str = "supplied"
    iterations: int = 0


@dataclass
class FiniteSumProblem:
    """Average of n smooth convex components plus a regularizer.

    ``loss`` selects the component family:
      least_squares: f_i(x) = (a_i'x - y_i)^2 / 2
      logistic:      f_i(x) = log(1 + exp(-y_i a_i'x)),  y_i in {-1, +1}
    ``L`` is derived, never passed: the analytic worst-case component
    smoothness bound CURVATURE[loss] * max_i ||a_i||^2.  So are ``n`` and
    ``d``, the shape of ``A``, set once as plain attributes because every
    estimate reads ``n``.
    """

    A: np.ndarray
    targets: np.ndarray
    loss: str
    reg: Regularizer = field(default_factory=Regularizer.zero)
    reference: ReferenceSolution | None = None
    L: float = field(init=False)
    n: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self) -> None:
        if self.loss not in CURVATURE:
            raise ValueError(f"unknown loss {self.loss!r}")
        self.A = np.asarray(self.A, dtype=np.float64)
        if not self.A.flags.forc:  # rows of a strided A could dot to other bits than `@`
            self.A = np.ascontiguousarray(self.A)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.targets.shape[0]:
            raise ValueError("feature/target shape mismatch")
        if self.A.shape[0] < 1:
            raise ValueError("empty dataset")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.targets))):
            raise ValueError("features and targets must be finite")
        if self.loss == "logistic" and not np.all(np.abs(self.targets) == 1.0):
            raise ValueError("logistic loss requires labels in {-1, +1}")
        row_max = float(np.max(np.einsum("ij,ij->i", self.A, self.A)))
        if not 0.0 < row_max < math.inf:
            raise ValueError(
                f"largest squared feature-row norm is {row_max}; a smoothness "
                "bound needs a nonzero feature row and no overflow"
            )
        self.L = CURVATURE[self.loss] * row_max
        self.n, self.d = self.A.shape

    # -- component oracles -----------------------------------------------

    def residual(self, x: np.ndarray, rows: np.ndarray, targets: np.ndarray,
                 margins: np.ndarray | None = None) -> np.ndarray:
        """Scalar residual r_i(x) of the components whose feature rows and
        targets are given (``A[idx]``, ``targets[idx]``): grad f_i = a_i * r_i.
        The margins rows @ x go to ``margins`` if it is given."""
        margins = rows.dot(x, margins)
        if self.loss == "least_squares":
            return margins - targets
        # d/dm log(1+exp(-y m)) = -y * sigmoid(-y m) = y / (-1 - exp(y m)),
        # with y m capped at 709: beyond it |r| <= 1.22e-308, and exp raises
        # no overflow warning at any margin, inf included
        r = np.multiply(targets, margins)
        np.minimum(r, _EXP_CAP, out=r)
        np.exp(r, out=r)
        np.subtract(_MINUS_ONE, r, out=r)
        return np.divide(targets, r, out=r)

    def component_grad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Every component's gradient at x, one row per component."""
        return self.A * self.residual(x, self.A, self.targets)[:, None]

    def grad_sum(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Sum (not mean) of component gradients over idx."""
        rows = self.A[idx]
        return rows.T @ self.residual(x, rows, self.targets[idx])

    # -- full oracles ------------------------------------------------------

    def smooth_value(self, x: np.ndarray, margins: np.ndarray | None = None) -> float:
        """f(x), the average of the component values, from the margins A @ x
        if they are given, as a checkpoint keeps them."""
        margins = self.A @ x if margins is None else margins
        if self.loss == "least_squares":
            r = margins - self.targets
            return 0.5 * float(r @ r) / self.n
        # log(1 + exp(z)) at z = -y * margin, as max(z, 0) + log1p(exp(-|z|)):
        # np.logaddexp(0, z)'s formula and its inf and nan, but on numpy's
        # vector exp and log1p, which differ from libm's in the last bits.
        z = -self.targets
        z *= margins
        v = np.abs(z)
        np.negative(v, out=v)
        np.exp(v, out=v)
        np.log1p(v, out=v)
        v += np.maximum(z, 0.0, out=z)
        return float(np.sum(v)) / self.n

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return self.grad_sum(slice(None), x) / self.n

    def value(self, x: np.ndarray, margins: np.ndarray | None = None) -> float:
        """Composite objective F(x) = f(x) + reg(x); ``margins`` as for ``smooth_value``."""
        return self.smooth_value(x, margins) + reg_value(self.reg, x)

    @property
    def block_rows(self) -> int:
        """K, the points ``values`` evaluates per product."""
        return min(64, max(2, VALUE_BLOCK_BYTES // (8 * self.n)))

    def values(self, points: list[np.ndarray]) -> list[float]:
        """F at each point, ``value(x, margins)`` with the margins of
        ``block_rows`` points at a time taken by one product ``Y @ A.T``.

        A short last block is padded with zero rows, so every point goes
        through one product shape.  OpenBLAS rounds a row by the shape alone
        (a gemv, or K = 2-6 against K >= 7 at some d, give other last bits),
        not by its position or the other rows, so a point's value does not
        depend on which points share its block.  A non-finite point makes
        only its own value non-finite.
        """
        k = self.block_rows
        block = np.zeros((k, self.d))
        out = []
        for start in range(0, len(points), k):
            chunk = points[start:start + k]
            block[:len(chunk)] = chunk
            block[len(chunk):] = 0.0
            out += map(self.value, chunk, block @ self.A.T)
        return out


def dataset_from_dense(A: np.ndarray, labels: np.ndarray) -> SparseDataset:
    """Sparse dataset from a dense matrix; exact zeros, -0.0 included, are dropped."""
    A = np.asarray(A, dtype=np.float64)
    rows, cols = np.nonzero(A)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(A, axis=1))))
    return SparseDataset(indptr, cols + 1, A[rows, cols], labels, A.shape[1])


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator (Philox) so streams are reproducible
    across platforms given the same seed."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed))


def synthesize(
    n: int,
    d: int,
    family: str = "least_squares",
    seed: int = 0,
    *,
    reg: Regularizer | None = None,
    condition: float = 1.0,
    noise: float = 0.1,
    density: float = 1.0,
    consistent: bool = False,
) -> tuple[SparseDataset, FiniteSumProblem]:
    """Deterministic synthetic instance.

    ``condition`` scales feature columns geometrically from 1 down to
    1/sqrt(condition), spreading the component-Hessian spectrum by roughly
    that factor.  ``consistent=True`` sets targets to exact component fits
    (zero noise), which pins the least-squares optimum value at 0 under the
    zero regularizer.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if family not in CURVATURE:
        raise ValueError(f"unknown family {family!r}")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if not 1.0 <= condition < math.inf:
        raise ValueError(f"condition must be in [1, inf), got {condition}")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be in [0, inf), got {noise}")
    rng = make_rng(seed)
    A = rng.standard_normal((n, d))
    if condition > 1.0:
        scales = np.geomspace(1.0, 1.0 / np.sqrt(condition), d)
        A *= scales
    if density < 1.0:
        # +0.0 where dropped, as the dataset's dense copy holds
        A = np.where(rng.random((n, d)) < density, A, 0.0)
    x_true = rng.standard_normal(d) / np.sqrt(d)
    clean = A @ x_true
    if family == "least_squares":
        targets = clean if consistent else clean + noise * rng.standard_normal(n)
    else:
        scores = clean if consistent else clean + noise * rng.standard_normal(n)
        targets = np.where(scores >= 0.0, 1.0, -1.0)
    dataset = dataset_from_dense(A, targets)
    reg = reg if reg is not None else Regularizer.zero()
    return dataset, FiniteSumProblem(A, dataset.labels, family, reg)


def _is_quadratic(problem: FiniteSumProblem) -> bool:
    return problem.loss == "least_squares" and problem.reg.lam1 == 0.0


def _row_space_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Number of singular values above the rounding floor (as numpy's lstsq)."""
    return int(np.count_nonzero(s > s[0] * max(shape) * np.finfo(np.float64).eps))


def quadratic_gap_bound(problem: FiniteSumProblem, x: np.ndarray, s: np.ndarray) -> float:
    """Certified bound on F(x) - F* for least squares with no l1 weight,
    given the singular values ``s`` of A.

    F is quadratic with Hessian H = A'A/n + lam2*I, so
    F(x) - F* <= ||grad F(x)||^2 / (2*mu) for any mu that lower-bounds the
    curvature of H along the directions grad F(x) can take.  Without lam2
    the gradient lies in the row space of A, where that curvature is the
    smallest nonzero s^2/n.  With lam2 > 0 every direction counts, and one
    outside the row space (possible when rank A < d) has curvature lam2
    alone.
    """
    if not _is_quadratic(problem):
        raise ValueError("needs least squares with no l1 weight")
    lam2 = problem.reg.lam2
    n, d = problem.A.shape
    if lam2 == 0.0:
        mu = float(s[_row_space_rank(s, problem.A.shape) - 1]) ** 2 / n
    else:
        mu = lam2 + (float(s[-1]) ** 2 / n if s.size == d else 0.0)
    g = problem.full_grad(x) + lam2 * x
    return float(g @ g) / (2.0 * mu)


def _strictly_separable(problem: FiniteSumProblem) -> bool:
    """Whether y_i a_i'w > 0 at some w for every i with a_i != 0 (a zero row's
    margin is 0 at every w).  One LP asks for margins >= 1 and its w is
    rechecked in floats, so True is a certificate."""
    # the package's only scipy import, ~0.3 s and ~25 MiB: only this check needs it
    from scipy.optimize import linprog

    margins = problem.targets[:, None] * problem.A
    margins = margins[np.any(margins != 0.0, axis=1)]
    fit = linprog(np.zeros(problem.d), A_ub=-margins, b_ub=-np.ones(len(margins)),
                  bounds=(None, None), method="highs")
    return fit.status == 0 and bool(np.all(margins @ fit.x > 0.0))


def check_reference(tol: float, max_iterations: int, name=str) -> None:
    """Refuse settings no reference solve can certify; ``name(parameter)`` names each."""
    if not 0.0 < tol < math.inf:  # also refuses nan
        raise ValueError(f"{name('tol')} must be positive and finite, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"{name('max_iterations')} must be at least 1, got {max_iterations}")


def solve_reference(problem: FiniteSumProblem, tol: float = 1e-12,
                    max_iterations: int = 200_000) -> ReferenceSolution:
    """High-precision optimum, certified to ``tol`` or warned about.

    The method follows from the problem, on one SVD of A:

    * least squares with no l1 weight is solved directly from the SVD (the
      minimum-norm least-squares solution, or the ridge solution), certified
      by ``quadratic_gap_bound``;
    * everything else runs restarted FISTA with step 1/L_f, where
      L_f = CURVATURE[loss] * s_max^2/n bounds the smoothness of the
      average f.  ``problem.L`` bounds each component, which the stochastic
      solvers need but a full-gradient solve does not, and it can be many
      times larger.  FISTA stops when its gradient-mapping certificate drops
      below ``tol`` or at ``max_iterations``.

    ``gap_tolerance`` is the achieved certificate, never below ``tol``.
    When the certificate misses ``tol`` a RuntimeWarning names both.  A
    non-finite F* or certificate raises ValueError naming the method and both
    values; FISTA's ``_drive`` refuses the first non-finite F, naming its step.
    Logistic loss with both regularizer weights zero has no minimizer on
    separable data, so such a problem raises ValueError before any iteration
    runs.
    """
    check_reference(tol, max_iterations)
    unregularized = problem.reg == Regularizer.zero()  # both weights zero
    if problem.loss == "logistic" and unregularized and _strictly_separable(problem):
        raise ValueError("unregularized logistic loss has no minimizer on separable data")
    n = problem.n
    if _is_quadratic(problem):
        U, s, Vt = np.linalg.svd(problem.A, full_matrices=False)
        lam2 = problem.reg.lam2
        if lam2 == 0.0:
            rank = _row_space_rank(s, problem.A.shape)
            coef = np.zeros_like(s)
            coef[:rank] = 1.0 / s[:rank]
        else:
            coef = s / (s * s + n * lam2)
        x_star = Vt.T @ (coef * (U.T @ problem.targets))
        f_star = problem.value(x_star)
        gap = quadratic_gap_bound(problem, x_star, s)
        method, iterations = "lstsq", 0
    else:
        s = np.linalg.svd(problem.A, compute_uv=False)
        L_f = float(s[0]) ** 2 / n * CURVATURE[problem.loss]
        method = "fista-restart"
        try:
            x_star, f_star, gap, iterations = fista_solve(problem, L_f, tol=tol,
                                                          max_iterations=max_iterations)
        except ValueError as exc:  # a non-finite F, refused at the step that met it
            raise ValueError(f"reference solve ({method}): {exc}") from None
    if not (math.isfinite(f_star) and math.isfinite(gap)):
        raise ValueError(f"reference solve ({method}, {iterations} iterations) found "
                         f"F* = {f_star} with a certificate of {gap}: not finite")
    if gap > tol:
        warnings.warn(f"reference solve ({method}, {iterations} iterations) certified a gap "
                      f"of {gap:.3g}, above the requested {tol:.3g}", RuntimeWarning, stacklevel=2)
    return ReferenceSolution(x_star, f_star, max(gap, tol), method, iterations)


def with_reference(problem: FiniteSumProblem, tol: float = 1e-12,
                   max_iterations: int = 200_000) -> FiniteSumProblem:
    """Attach a freshly solved reference to the problem (in place) and return it."""
    problem.reference = solve_reference(problem, tol=tol, max_iterations=max_iterations)
    return problem
