"""Problem oracles, dataset parsing, generators, and reference solutions."""

import hashlib
import math
import re
import time
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from katyusha_h import optimizers, problems
from katyusha_h.problems import (
    DataFormatError,
    FiniteSumProblem,
    SparseDataset,
    dataset_from_dense,
    make_rng,
    parse_libsvm,
    quadratic_gap_bound,
    serialize_libsvm,
    solve_reference,
    synthesize,
)
from katyusha_h.proximal import Regularizer


def component_value(problem, i, x):
    """f_i(x), written from the loss's definition: the per-component oracle
    the gradient, smoothness and convexity checks read."""
    m = float(problem.A[i] @ x)
    if problem.loss == "least_squares":
        return 0.5 * (m - problem.targets[i]) ** 2
    return float(np.logaddexp(0.0, -problem.targets[i] * m))


def component_grad(problem, i, x):
    """grad f_i(x), written from the loss's definition: a_i (a_i'x - y_i) for
    least squares, -y_i a_i sigmoid(-y_i a_i'x) for logistic."""
    a, y = problem.A[i], problem.targets[i]
    m = float(a @ x)
    if problem.loss == "least_squares":
        return a * (m - y)
    return a * (-y * expit(-y * m))


def central_difference_grad(problem, i, x, h=1e-5):
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (component_value(problem, i, x + e) - component_value(problem, i, x - e)) / (2 * h)
    return g


def two_point_dataset():
    return SparseDataset(
        indptr=[0, 1, 2], indices=[1, 1], values=[1.0, 1.0], labels=np.array([1.0, -1.0]), d=1
    )


def csr_dataset(rows, labels, d):
    """SparseDataset of rows given as lists of (index, value) pairs."""
    return SparseDataset(
        indptr=np.cumsum([0] + [len(row) for row in rows]),
        indices=[idx for row in rows for idx, _ in row],
        values=[val for row in rows for _, val in row],
        labels=labels,
        d=d,
    )


def row_entries(ds):
    """Each row's (index, value) pairs, read from the CSR arrays."""
    bounds = ds.indptr.tolist()
    return [
        list(zip(ds.indices[lo:hi].tolist(), ds.values[lo:hi].tolist()))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def reference_parse(text):
    """Line-by-line, token-by-token parser that parse_libsvm must agree with:
    (rows of (index, value) pairs, labels, d)."""
    rows, labels, d = [], [], 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataFormatError(line_no, f"bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise DataFormatError(line_no, f"non-finite label {tokens[0]!r}")
        row, prev = [], 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise DataFormatError(line_no, f"missing ':' in token {tok!r}")
            try:
                idx = int(idx_s)
            except ValueError:
                raise DataFormatError(line_no, f"bad feature index {idx_s!r}") from None
            if idx < 1:
                raise DataFormatError(line_no, f"feature index {idx} must be >= 1")
            if idx <= prev:
                raise DataFormatError(
                    line_no, f"feature index {idx} not increasing (previous {prev})"
                )
            try:
                val = float(val_s)
            except ValueError:
                raise DataFormatError(line_no, f"bad feature value {val_s!r}") from None
            if not math.isfinite(val):
                raise DataFormatError(line_no, f"non-finite feature value {val_s!r}")
            row.append((idx, val))
            prev = idx
        rows.append(row)
        labels.append(label)
        d = max(d, prev)
    return rows, labels, d


def _joined(lines_and_gaps):
    return "".join(line + gap for line, gap in lines_and_gaps)


_GAP = st.sampled_from(["\n", "\n\n", "\n \t\n", "\r\n", "\n   \n"])
_SEP = st.sampled_from([" ", "\t", "  ", " \t "])
# |v| <= 1e300, so no spelling rounds up to an overflow
_FLOAT_TEXT = st.floats(-1e300, 1e300).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.9g}", f"{v:.3e}", f"{v:g}"])
)


@st.composite
def valid_text(draw):
    """Well-formed rows: increasing indices, assorted number spellings, tabs,
    blank lines and label-only rows."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        idx = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        tokens = [draw(_FLOAT_TEXT | st.sampled_from(["1", "-1", "+1", "1_0", ".5"]))]
        for i in idx:
            spelled = draw(st.sampled_from([str(i), f"+{i}", f"0{i}", "_".join(str(i))]))
            tokens.append(f"{spelled}:{draw(_FLOAT_TEXT | st.sampled_from(['1_0', '-0.0']))}")
        sep = draw(_SEP)
        lines.append((draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens), draw(_GAP)))
    return _joined(lines)


_ODD_TOKEN = st.one_of(
    st.builds(
        "{}:{}".format,
        st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "a", "1_0", "+3", "1.0"])),
        st.one_of(
            _FLOAT_TEXT,
            st.sampled_from(["", "a", "2:3", "1_0", "nan", "-inf", "1e400", "0x1"]),
        ),
    ),
    st.sampled_from(["oops", "5", ":", "::", "1:2:3", ":5", "1:"]),
)
_GOOD_TOKEN = st.builds("{}:{}".format, st.integers(1, 12), _FLOAT_TEXT)
_LABEL = st.sampled_from(["1", "-1", "0.5", "1_0", "2", "-3.5", "+1", "nan", "inf", "x", "1:1"])


@st.composite
def any_text(draw):
    """Rows of arbitrary tokens, most of them well formed."""
    token = st.one_of(_GOOD_TOKEN, _GOOD_TOKEN, _GOOD_TOKEN, _ODD_TOKEN)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = [draw(_LABEL)] + draw(st.lists(token, max_size=5))
        lines.append((draw(_SEP).join(tokens), draw(_GAP)))
    return _joined(lines)


class TestSparseDataset:
    @pytest.mark.parametrize(
        "indptr, indices, values, labels, d",
        [
            ([0, 1], [3], [1.0], [1.0], 2),  # index beyond d
            ([0, 1], [0], [1.0], [1.0], 2),  # index below 1
            ([0, 2], [2, 2], [1.0, 1.0], [1.0], 2),  # repeated index
            ([0, 2], [2, 1], [1.0, 1.0], [1.0], 2),  # decreasing index
            ([1, 1], [1], [1.0], [1.0], 2),  # indptr not from 0
            ([0, 2, 1, 2], [1, 2], [1.0, 1.0], [1.0, 1.0, 1.0], 2),  # indptr decreasing
            ([0, 1], [1], [1.0], [1.0, 2.0], 2),  # labels for more rows
            ([0, 1], [1], [1.0, 2.0], [1.0], 2),  # more values than indices
        ],
    )
    def test_malformed_arrays_rejected(self, indptr, indices, values, labels, d):
        with pytest.raises(ValueError):
            SparseDataset(indptr, indices, values, labels, d)

    def test_rows_checked_separately(self):
        # an index may drop back at a row start, not inside a row
        ds = SparseDataset([0, 2, 2, 3], [1, 3, 2], [1.0, 2.0, 3.0], [1.0, 0.0, -1.0], 3)
        assert ds.n == 3 and ds.nnz == 3
        assert row_entries(ds) == [[(1, 1.0), (3, 2.0)], [], [(2, 3.0)]]


class TestParser:
    def test_basic_lines(self):
        ds = parse_libsvm("1 1:0.5 3:-2\n-1 2:1e-3\n")
        assert ds.n == 2 and ds.d == 3 and ds.nnz == 3
        assert ds.labels[0] == 1.0 and ds.labels[1] == -1.0
        assert row_entries(ds) == [[(1, 0.5), (3, -2.0)], [(2, 0.001)]]
        assert ds.indptr.tolist() == [0, 2, 3]

    def test_whitespace_and_exponents(self):
        ds = parse_libsvm("  1\t1:2.5E+1   4:.5  \n\n-1 1:-1e-10\n")
        assert row_entries(ds) == [[(1, 25.0), (4, 0.5)], [(1, -1e-10)]]

    def test_label_only_row(self):
        ds = parse_libsvm("3.5\n")
        assert row_entries(ds) == [[]] and ds.d == 0 and ds.nnz == 0

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 1:0.5\n1 oops\n", 2),
            ("x 1:1\n", 1),
            ("1 0:2\n", 1),
            ("1 3:1 2:5\n", 1),
            ("1 2:1 2:5\n", 1),
            ("1 1:1\n-1 2:a\n", 2),
            ("1 -3:1\n", 1),
            ("1 1:nan\n", 1),
            ("1 1:0.5\n-1 2:inf\n", 2),
            ("1 1:-inf\n", 1),
            ("1 1:0.5\nnan 1:1\n", 2),
            ("inf\n", 1),
            ("1 1:1\n1 99999999999999999999:1\n", 2),  # beyond int64
            ("1 -99999999999999999999:1\n", 1),
        ],
    )
    def test_malformed_lines_carry_line_numbers(self, text, line):
        with pytest.raises(DataFormatError) as err:
            parse_libsvm(text)
        assert err.value.line_no == line
        assert f"line {line}" in str(err.value)

    def test_serialize_round_trip(self):
        text = "1 1:0.5 3:-2\n-1 2:1e-3\n"
        once = parse_libsvm(text)
        canon = serialize_libsvm(once)
        again = parse_libsvm(canon)
        assert row_entries(again) == row_entries(once)
        assert np.array_equal(again.labels, once.labels)
        assert serialize_libsvm(again) == canon

    @staticmethod
    def _check_against_reference(text, chunk):
        try:
            expected = csr_dataset(*reference_parse(text))
        except DataFormatError as exc:
            with mock.patch.object(problems, "_CHUNK_ENTRIES", chunk):
                with pytest.raises(DataFormatError) as err:
                    parse_libsvm(text)
            assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
            return
        with mock.patch.object(problems, "_CHUNK_ENTRIES", chunk):
            ds = parse_libsvm(text)
        for name in ("indptr", "indices", "values", "labels"):
            got, want = getattr(ds, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert ds.d == expected.d

    @given(valid_text(), st.sampled_from([1, 3, 8192]))
    @example("1 1_0:1\n\n2.5\n-1\t2:0.5\t3:1e-3\n", 1)
    @settings(max_examples=150, deadline=None)
    def test_valid_text_matches_reference_parser(self, text, chunk):
        # chunk: feature tokens converted at a time, so rows straddle chunks
        assert reference_parse(text)  # every drawn text is well formed
        self._check_against_reference(text, chunk)

    @given(any_text(), st.sampled_from([1, 3, 8192]))
    @example("1 1:2:3\n", 8192)
    @example("1 1:1\n1 :5\n", 8192)
    @example("1 1:\n", 8192)
    @example("1 2:1 5 1:2:3\n", 1)
    @example("-1\t3:1\n\n1 1:1 1:2:3\n", 3)
    # the chunk's ':' count matches its tokens, but '1:2:3' holds two and '4'
    # none: line 1: bad feature value '2:3'
    @example("1 1:2:3 4\n", 8192)
    # an empty head and an empty tail in one chunk: bad feature index ''
    @example("1 2:1 :5 3:\n", 8192)
    # form feed, \x1c and \x1d end lines for splitlines too: the token '1' on
    # line 3 lacks its ':', and with \x1d before it line 4's value 'x' is bad
    @example("1 1:1\x0c-1 2:1\x1c1 3:1 1 4:x\n", 8192)
    @example("1 1:1\x0c-1 2:1\x1c1 3:1\x1d1 4:x\n", 8192)
    # Arabic-Indic one and underscores parse, as int and float read them
    @example("1 ١:2 1_1:1e1_0\n", 8192)
    # a lone surrogate, which no file decodes to, is a bad index like any other
    @example("1 1:1 2\ud800:3\n", 8192)
    @settings(max_examples=300, deadline=None)
    def test_any_text_matches_reference_parser(self, text, chunk):
        self._check_against_reference(text, chunk)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.lists(
                    st.tuples(st.integers(1, 12), st.floats(-1e6, 1e6, allow_nan=False)),
                    max_size=6,
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_canonicalization_idempotent(self, raw_rows):
        rows = []
        labels = []
        for label, entries in raw_rows:
            by_idx = dict(entries)  # dedupe, then sort into increasing order
            rows.append(sorted(by_idx.items()))
            labels.append(label)
        d = max((idx for row in rows for idx, _ in row), default=0)
        ds = csr_dataset(rows, np.asarray(labels), d)
        canon = serialize_libsvm(ds)
        assert serialize_libsvm(parse_libsvm(canon)) == canon


class TestLeastSquares:
    def test_two_point_instance(self):
        # components (x-1)^2/2 and (x+1)^2/2 average to (x^2+1)/2
        ds = two_point_dataset()
        prob = FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")
        assert prob.L == 1.0
        assert prob.smooth_value(np.array([0.0])) == pytest.approx(0.5)
        assert prob.smooth_value(np.array([2.0])) == pytest.approx(2.5)
        assert prob.full_grad(np.array([3.0]))[0] == pytest.approx(3.0)

    def test_grad_at_origin(self):
        ds, prob = synthesize(6, 3, "least_squares", seed=42)
        A = ds.to_dense()
        np.testing.assert_allclose(
            prob.component_grad_matrix(np.zeros(3)), -ds.labels[:, None] * A, rtol=1e-12
        )

    def test_unit_norm_rows_give_unit_l(self):
        ds = SparseDataset(
            indptr=[0, 1, 2], indices=[1, 2], values=[1.0, -1.0], labels=np.array([0.0, 1.0]), d=2
        )
        prob = FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")
        assert prob.L == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        ds = SparseDataset(indptr=[0], indices=[], values=[], labels=np.array([]), d=0)
        with pytest.raises(ValueError):
            FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")

    @pytest.mark.parametrize("A, targets, loss, message", [
        (np.eye(2), np.ones(2), "hinge", "unknown loss 'hinge'"),
        (np.eye(2), np.ones(3), "least_squares", "feature/target shape mismatch"),
        (np.ones(3), np.ones(3), "least_squares", "feature/target shape mismatch"),
    ])
    def test_malformed_problem_rejected(self, A, targets, loss, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FiniteSumProblem(A, targets, loss)

    @pytest.mark.parametrize(
        "A, targets, scale",
        [
            ([[1.0, np.nan]], [0.0], 1.0),
            ([[1.0, np.inf]], [0.0], 1.0),
            ([[1.0, 0.0]], [np.nan], 1.0),
            ([[1.0, 0.0]], [-np.inf], 1.0),
            ([[1.0, 0.0]], [0.0], np.nan),
            ([[1.0, 0.0]], [0.0], np.inf),
            ([[1.0, 0.0]], [0.0], 0.0),  # all-zero rows: no smoothness bound
            ([[1e200, 0.0]], [0.0], 1.0),  # finite, but ||a_i||^2 overflows
        ],
    )
    def test_non_finite_problem_rejected(self, A, targets, scale):
        # L is derived from the rows, so the features are scaled rather than
        # L passed: by nan or inf they are non-finite, by 0 all rows vanish.
        with np.errstate(invalid="ignore", over="ignore"):
            A = scale * np.asarray(A)
            with pytest.raises(ValueError):
                FiniteSumProblem(A=A, targets=targets, loss="least_squares")


class TestShape:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "integer"])
    def test_n_and_d_are_the_shape_of_a(self, layout):
        base = make_rng(3).standard_normal((12, 10))
        A = {
            "C": base[:, :5].copy(),
            "F": np.asfortranarray(base[:, :5]),
            "strided": base[::2, ::3],
            "integer": np.arange(1, 61).reshape(12, 5) % 7,
        }[layout]
        prob = FiniteSumProblem(A, np.ones(A.shape[0]), "least_squares")
        assert (prob.n, prob.d) == A.shape == prob.A.shape
        assert type(prob.n) is int and type(prob.d) is int

    @pytest.mark.parametrize("name", ["n", "d"])
    def test_the_shape_is_no_argument(self, name):
        with pytest.raises(TypeError, match=name):
            FiniteSumProblem(np.eye(3), np.ones(3), "least_squares", **{name: 3})


class TestLogistic:
    def test_value_and_grad_at_origin(self):
        ds, prob = synthesize(5, 3, "logistic", seed=7)
        A = ds.to_dense()
        x0 = np.zeros(3)
        for i in range(prob.n):
            assert component_value(prob, i, x0) == pytest.approx(math.log(2.0), rel=1e-12)
        np.testing.assert_allclose(
            prob.component_grad_matrix(x0), -ds.labels[:, None] * A / 2.0, rtol=1e-12
        )

    def test_l_constant(self):
        ds, prob = synthesize(5, 3, "logistic", seed=7)
        A = ds.to_dense()
        assert prob.L == pytest.approx(np.max(np.sum(A * A, axis=1)) / 4.0, rel=1e-12)

    def test_label_validation(self):
        ds = SparseDataset(indptr=[0, 1], indices=[1], values=[1.0], labels=np.array([2.0]), d=1)
        with pytest.raises(ValueError):
            FiniteSumProblem(ds.to_dense(), ds.labels, "logistic")

    @staticmethod
    def one_column(targets):
        """A logistic problem whose smooth value is read from given margins."""
        targets = np.asarray(targets, dtype=np.float64)
        return FiniteSumProblem(np.ones((targets.size, 1)), targets, "logistic")

    def test_value_matches_the_component_oracle_to_a_few_ulp(self):
        # the value runs on numpy's vector exp and log1p, which may round
        # differently from the libm calls of np.logaddexp
        rng = make_rng(31)
        prob = self.one_column(np.where(rng.random(4000) < 0.5, -1.0, 1.0))
        eps = np.finfo(np.float64).eps
        for scale in (0.1, 3.0, 30.0, 800.0):
            margins = scale * rng.standard_normal(prob.n)
            oracle = np.logaddexp(0.0, -prob.targets * margins)  # component_value's formula
            want = math.fsum(oracle) / prob.n
            assert prob.smooth_value(None, margins) == pytest.approx(want, rel=8 * eps, abs=0)
            # one component at a time, through a one-row problem
            for y, m, f in zip(prob.targets[:200], margins, oracle):
                got = self.one_column([y]).smooth_value(None, np.array([m]))
                assert got == pytest.approx(f, rel=4 * eps, abs=0)

    @pytest.mark.parametrize("z", [0.0, 1e3, -1e3, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_value_keeps_logaddexp_finiteness(self, z, y):
        # the component is log(1 + exp(z)) at z = -y * margin
        with np.errstate(invalid="ignore"):  # logaddexp warns at nan
            want = float(np.logaddexp(0.0, z))
        got = self.one_column([y]).smooth_value(None, np.array([-y * z]))
        assert math.isnan(got) == math.isnan(want) and math.isinf(got) == math.isinf(want)
        assert got == pytest.approx(want, rel=4 * np.finfo(np.float64).eps, abs=0, nan_ok=True)

    # past y m = 709 the residual is capped at 1 / (1 + exp(709)) in magnitude
    CAPPED = 1.22e-308

    @staticmethod
    def residual(y, margins):
        """The residual at the given margins, through one-column rows with
        x = 1, and the expit oracle's -y sigmoid(-y m), under errors for any
        warning the residual raises."""
        margins = np.asarray(margins, dtype=np.float64)
        y = np.full(margins.shape, y)
        prob = TestLogistic.one_column([1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = prob.residual(np.ones(1), margins[:, None], y)
        with np.errstate(all="ignore"):
            return got, -y * expit(-y * margins)

    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_residual_matches_the_expit_oracle(self, y):
        margins = np.concatenate([np.linspace(-745.0, 745.0, 40_001),
                                  make_rng(5).uniform(-40.0, 40.0, 10_000)])
        got, want = self.residual(y, margins)
        normal = np.abs(want) >= np.finfo(np.float64).tiny
        ulps = np.abs(got - want)[normal] / np.spacing(np.abs(want[normal]))
        # near y m = 36.8, where 1 + exp(y m) rounds at 2^53, the residual and
        # the oracle can each be 2 ulp from the exact value, on opposite sides
        assert ulps.max() <= 4
        assert np.all(np.abs(got - want)[~normal] <= self.CAPPED)
        assert np.all(np.abs(got[y * margins >= 709.0]) <= self.CAPPED)

    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_residual_limits_and_nan(self, y):
        margins = np.array([-math.inf, -1e308, 1e308, math.inf, math.nan]) * y
        got, _ = self.residual(y, margins)
        assert got[0] == got[1] == -y  # the loss's slope far on its linear side
        assert np.all(np.abs(got[2:4]) <= self.CAPPED) and np.all(got[2:4] * y <= 0.0)
        assert math.isnan(got[4])

    @pytest.mark.parametrize("fill, value", [(math.nan, "nan"), (1e308, "inf")])
    def test_epsilon_run_from_a_non_finite_iterate_stops(self, monkeypatch, fill, value):
        # a gradient estimate of nan makes the iterates nan; one of 1e308
        # overflows them, so F(w) is inf after the first refresh
        _, prob = synthesize(30, 5, "logistic", seed=4, reg=Regularizer.l1(0.01))
        prob.reference = solve_reference(prob, tol=1e-8)
        monkeypatch.setattr(optimizers, "svrg_estimate", lambda x, *rest: np.full_like(x, fill))
        config = optimizers.RunConfig(alpha=0.5, batch_size=3, epsilon=1e-6, max_iterations=2000)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=f"objective is {value} at t=2: the run cannot reach"):
            optimizers.run(prob, config)


class TestValues:
    """``values``: F at a block of points by one product with A', each point
    at the bits its zero-padded block gives it, whatever shares the block."""

    @pytest.mark.parametrize("n, k", [(1, 64), (4096, 64), (4097, 63), (10**4, 26),
                                      (131_072, 2), (10**6, 2)])
    def test_block_rows_hold_two_mib_of_margins(self, n, k):
        assert FiniteSumProblem.block_rows.fget(SimpleNamespace(n=n)) == k

    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_values_match_the_gemv_value_to_a_few_ulp(self, family):
        _, prob = synthesize(500, 40, family, seed=5, reg=Regularizer.elastic_net(0.01, 0.02))
        rng = make_rng(3)
        eps = np.finfo(np.float64).eps
        for scale in (0.01, 1.0, 100.0):
            points = [scale * rng.standard_normal(prob.d) for _ in range(100)]
            for got, x in zip(prob.values(points), points):
                assert got == pytest.approx(prob.value(x), rel=8 * eps, abs=0)

    @pytest.mark.parametrize("block_bytes", [None, 8 * 30 * 3])  # K = 64, K = 3
    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_a_value_does_not_depend_on_its_block(self, monkeypatch, family, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(problems, "VALUE_BLOCK_BYTES", block_bytes)
        _, prob = synthesize(30, 6, family, seed=2, reg=Regularizer.l1(0.01))
        points = [make_rng(7).standard_normal(6) * s for s in np.geomspace(1e-3, 1e3, 70)]
        alone = [prob.values([x])[0] for x in points]
        assert prob.values(points) == alone
        assert prob.values(points[::-1]) == alone[::-1]
        assert prob.values(points[5:]) == alone[5:]
        assert prob.values([]) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_point_changes_only_its_own_value(self, monkeypatch, bad):
        _, prob = synthesize(30, 6, "logistic", seed=2)
        rng = make_rng(8)
        points = [rng.standard_normal(6) for _ in range(70)]  # a full block, then 6 rows
        want = prob.values(points)
        calls = []
        value = FiniteSumProblem.value
        monkeypatch.setattr(FiniteSumProblem, "value",
                            lambda self, x, *margins: calls.append(x) or value(self, x, *margins))
        for i in (3, 66):
            poisoned = list(points)
            poisoned[i] = np.full(6, bad)
            calls.clear()
            with np.errstate(invalid="ignore"):
                got = prob.values(poisoned)
            assert len(calls) == len(got) == 70  # no padding row is evaluated
            assert not math.isfinite(got[i])
            assert got[:i] + got[i + 1:] == want[:i] + want[i + 1:]


class TestOracleConsistency:
    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_gradients_match_central_differences(self, family):
        _, prob = synthesize(6, 4, family, seed=11)
        rng = make_rng(99)
        for _ in range(100):
            x = rng.standard_normal(4)
            i = int(rng.integers(0, prob.n))
            num = central_difference_grad(prob, i, x)
            ana = component_grad(prob, i, x)
            scale = max(1.0, float(np.linalg.norm(ana)))
            assert np.linalg.norm(num - ana) <= 1e-5 * scale

    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_smoothness_and_convexity_certificates(self, family):
        _, prob = synthesize(6, 4, family, seed=13)
        rng = make_rng(5)
        for _ in range(50):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            for i in range(prob.n):
                fx = component_value(prob, i, x)
                fy = component_value(prob, i, y)
                gx = component_grad(prob, i, x)
                linear = fx + float(gx @ (y - x))
                assert fy >= linear - 1e-10  # convexity
                assert fy <= linear + 0.5 * prob.L * float((y - x) @ (y - x)) + 1e-10

    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_components_average_to_the_smooth_value(self, family):
        _, prob = synthesize(6, 4, family, seed=17)
        x = make_rng(2).standard_normal(4)
        mean = sum(component_value(prob, i, x) for i in range(prob.n)) / prob.n
        assert mean == pytest.approx(prob.smooth_value(x), rel=1e-13)

    def test_component_matrix_matches_rows(self):
        _, prob = synthesize(5, 3, "logistic", seed=3)
        x = make_rng(1).standard_normal(3)
        mat = prob.component_grad_matrix(x)
        for i in range(prob.n):
            np.testing.assert_allclose(mat[i], component_grad(prob, i, x), rtol=1e-14)

    def test_midpoint_convexity_spot_check(self):
        _, prob = synthesize(6, 3, "least_squares", seed=42)
        rng = make_rng(8)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            for i in range(prob.n):
                mid = component_value(prob, i, (x + y) / 2)
                avg = (component_value(prob, i, x) + component_value(prob, i, y)) / 2
                assert mid <= avg + 1e-12


class TestSynthesize:
    @pytest.mark.parametrize("seed", [-2, 2**128, 1.5])
    def test_refuses_a_seed_that_is_no_philox_key(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_rng(seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            synthesize(6, 3, "least_squares", seed=seed)

    def test_deterministic(self):
        ds1, _ = synthesize(6, 3, "least_squares", seed=42)
        ds2, _ = synthesize(6, 3, "least_squares", seed=42)
        assert serialize_libsvm(ds1) == serialize_libsvm(ds2)

    def test_well_formed(self):
        ds, prob = synthesize(6, 3, "least_squares", seed=42)
        assert prob.L > 0.0
        assert np.all(np.isfinite(ds.to_dense()))

    def test_consistent_targets_give_zero_optimum(self):
        _, prob = synthesize(10, 20, "least_squares", seed=1, consistent=True)
        # overparameterized and consistent: the fit is exact somewhere
        ref = solve_reference(prob, tol=1e-10, max_iterations=50_000)
        assert ref.f_star <= 1e-10

    def test_condition_scales_columns(self):
        ds, _ = synthesize(50, 6, "least_squares", seed=2, condition=100.0)
        A = ds.to_dense()
        norms = np.linalg.norm(A, axis=0)
        assert norms[0] / norms[-1] == pytest.approx(10.0, rel=0.5)

    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_problem_holds_the_dataset_matrix(self, density):
        # the problem is built from the generated array, zeros written as +0.0
        ds, prob = synthesize(40, 7, "logistic", seed=5, density=density)
        assert prob.A.tobytes() == ds.to_dense().tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synthesize(0, 3, "least_squares")
        with pytest.raises(ValueError):
            synthesize(3, 0, "least_squares")
        with pytest.raises(ValueError):
            synthesize(3, 3, "huber")
        with pytest.raises(ValueError):
            synthesize(3, 3, "least_squares", density=0.0)

    @pytest.mark.parametrize("value", [0.5, 0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_refuses_a_condition_outside_one_to_infinity(self, value):
        with pytest.raises(ValueError, match=r"condition must be in \[1, inf\)"):
            synthesize(3, 3, "least_squares", condition=value)

    @pytest.mark.parametrize("value", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
    def test_refuses_a_noise_outside_zero_to_infinity(self, value):
        with pytest.raises(ValueError, match=r"noise must be in \[0, inf\)"):
            synthesize(3, 3, "logistic", noise=value)

    def test_takes_the_ends_of_condition_and_noise(self):
        synthesize(3, 3, "least_squares", condition=1.0, noise=0.0)


class TestSolveReference:
    def test_scalar_quadratic(self):
        ds = two_point_dataset()
        prob = FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")
        ref = solve_reference(prob, tol=1e-12)
        assert abs(ref.x_star[0]) <= 1e-6
        assert ref.f_star == pytest.approx(0.5, abs=1e-12)

    def test_lasso_threshold_kills_solution(self):
        ds, prob = synthesize(8, 3, "least_squares", seed=21)
        lam = float(np.max(np.abs(prob.full_grad(np.zeros(3))))) * 1.5
        prob.reg = Regularizer.l1(lam)
        ref = solve_reference(prob, tol=1e-12)
        assert np.all(ref.x_star == 0.0)
        assert ref.f_star == pytest.approx(prob.value(np.zeros(3)), rel=1e-14)

    def test_matches_normal_equations(self):
        ds, prob = synthesize(30, 5, "least_squares", seed=17, noise=0.3)
        ref = solve_reference(prob, tol=1e-12)
        A, y = prob.A, prob.targets
        x_direct = np.linalg.solve(A.T @ A, A.T @ y)
        f_direct = prob.value(x_direct)
        assert ref.f_star == pytest.approx(f_direct, abs=1e-11)
        np.testing.assert_allclose(ref.x_star, x_direct, atol=1e-5)

    @pytest.mark.parametrize(
        "reg", [Regularizer.zero(), Regularizer.l1(0.01)], ids=["zero-direct", "l1-fista"]
    )
    def test_reports_achieved_tolerance_on_cap(self, reg):
        _, prob = synthesize(30, 5, "least_squares", seed=17, reg=reg)
        with pytest.warns(RuntimeWarning, match="above the requested 1e-300"):
            ref = solve_reference(prob, tol=1e-300, max_iterations=50)
        assert ref.gap_tolerance > 1e-300  # honest about the miss

    @pytest.mark.parametrize(
        "tol, max_iterations",
        [(0.0, 100), (-1e-9, 100), (math.nan, 100), (math.inf, 100), (1e-10, 0)],
        ids=["tol=0", "tol<0", "tol=nan", "tol=inf", "max_iterations=0"],
    )
    def test_settings_that_cannot_certify_are_refused(self, tol, max_iterations):
        _, prob = synthesize(30, 5, "least_squares", seed=17, reg=Regularizer.l1(0.01))
        with pytest.raises(ValueError, match="tol must|max_iterations must"):
            solve_reference(prob, tol=tol, max_iterations=max_iterations)

    def test_method_follows_problem(self):
        _, prob = synthesize(30, 5, "least_squares", seed=17)
        for reg, method in [
            (Regularizer.zero(), "lstsq"),
            (Regularizer.squared_l2(0.1), "lstsq"),
            (Regularizer.l1(0.01), "fista-restart"),
            (Regularizer.elastic_net(0.01, 0.1), "fista-restart"),
        ]:
            prob.reg = reg
            ref = solve_reference(prob, tol=1e-12)
            assert ref.method == method
            assert (ref.iterations > 0) == (method == "fista-restart")
            assert ref.f_star == prob.value(ref.x_star)
        _, logistic = synthesize(30, 5, "logistic", seed=17, reg=Regularizer.l1(0.01))
        assert solve_reference(logistic, tol=1e-10).method == "fista-restart"

    def test_separable_logistic_without_regularizer_is_refused(self):
        # no minimizer exists: refuse up front rather than spend the cap
        _, prob = synthesize(30, 5, "logistic", seed=17)
        start = time.monotonic()
        with pytest.raises(ValueError, match="no minimizer"):
            solve_reference(prob, tol=1e-10)
        assert time.monotonic() - start < 1.0
        # an all-zero feature row has margin 0 at every w and changes nothing
        blank = FiniteSumProblem(np.vstack([prob.A, np.zeros(5)]), np.append(prob.targets, 1.0),
                                 "logistic")
        with pytest.raises(ValueError, match="no minimizer"):
            solve_reference(blank, tol=1e-10)
        # overlapping classes keep a minimizer and still solve
        _, noisy = synthesize(200, 5, "logistic", seed=17, noise=3.0)
        ref = solve_reference(noisy, tol=1e-10)
        assert ref.method == "fista-restart" and ref.gap_tolerance == 1e-10

    def test_tolerance_must_be_positive(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        with pytest.raises(ValueError):
            solve_reference(prob, tol=0.0)

    @pytest.mark.parametrize("reg", [Regularizer.l1(0.0), Regularizer.elastic_net(0.0, 0.0),
                                     Regularizer.squared_l2(0.0)],
                             ids=["l1", "elastic_net", "squared_l2"])
    def test_zero_weights_on_separable_logistic_are_refused(self, reg):
        # the weights, not how the regularizer was built, decide the refusal
        _, prob = synthesize(30, 5, "logistic", seed=17, noise=0.0, reg=reg)
        start = time.monotonic()
        with pytest.raises(ValueError, match="no minimizer"):
            solve_reference(prob, tol=1e-10)
        assert time.monotonic() - start < 1.0

    def test_a_squared_l2_weight_alone_keeps_a_minimizer(self):
        # strongly convex on separable data too: not refused
        _, prob = synthesize(30, 5, "logistic", seed=17, noise=0.0,
                             reg=Regularizer.elastic_net(0.0, 0.01))
        ref = solve_reference(prob, tol=1e-10)
        assert ref.method == "fista-restart" and ref.gap_tolerance == 1e-10

    @pytest.mark.parametrize("weighted, plain", [
        (Regularizer.l1(0.0), Regularizer.zero()),
        (Regularizer.elastic_net(0.0, 0.01), Regularizer.squared_l2(0.01)),
    ], ids=["l1-as-zero", "elastic_net-as-squared_l2"])
    def test_zero_l1_weight_is_solved_directly(self, weighted, plain):
        # a quadratic whatever constructor built it: the same direct solve, bit for bit
        _, prob = synthesize(200, 10, condition=100, seed=3)
        refs = []
        for reg in (weighted, plain):
            prob.reg = reg
            refs.append(solve_reference(prob, tol=1e-12))
        assert [(r.method, r.iterations) for r in refs] == [("lstsq", 0)] * 2
        assert refs[0].f_star.hex() == refs[1].f_star.hex()
        assert refs[0].x_star.tobytes() == refs[1].x_star.tobytes()


def overflowing_problem(case):
    """Least squares on rng(1)'s 20 x 3 features, whose targets overflow F:
    (a) noise near 1e200 with an l1 weight; (b) the image of a point near
    1e155 with an l1 weight; (c) that image with a squared-l2 weight, which
    the direct solve takes."""
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 3))
    if case == "a":
        return FiniteSumProblem(A, rng.standard_normal(20) * 1e200, "least_squares",
                                reg=Regularizer.l1(0.1))
    reg = Regularizer.l1(1e-3) if case == "b" else Regularizer.squared_l2(1e-3)
    return FiniteSumProblem(A, A @ np.array([1e155, -2e155, 5e154]), "least_squares", reg=reg)


class TestNonFiniteReference:
    """A reference solve whose F* or certificate is not finite is refused:
    it would measure every gap against inf, or certify nothing."""

    @pytest.mark.parametrize("case", ["a", "b"])
    def test_fista_refuses_the_first_non_finite_objective(self, case):
        # F is inf at 0 and after the first step; the old loop returned
        # F* = inf (a) or F* = 1.53e277 with a nan certificate (b)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(ValueError, match=re.escape(
                    "reference solve (fista-restart): objective is inf at t=1: ")):
                solve_reference(overflowing_problem(case), max_iterations=500)

    def test_direct_solve_refuses_a_non_finite_f_star(self):
        # the lstsq point is near the generating one, but F overflows there
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                solve_reference(overflowing_problem("c"), max_iterations=500)
        assert re.fullmatch(r"reference solve \(lstsq, 0 iterations\) found F\* = inf with a "
                            r"certificate of \S+: not finite", str(refused.value))

    def test_a_nan_certificate_is_refused(self, monkeypatch):
        # a finite F* whose certificate is nan is no more a reference
        _, prob = synthesize(30, 5, "least_squares", seed=17, reg=Regularizer.l1(0.01))
        monkeypatch.setattr(problems, "fista_solve",
                            lambda problem, L, **kw: (np.zeros(5), 0.5, math.nan, 7))
        with pytest.raises(ValueError, match=re.escape(
                "reference solve (fista-restart, 7 iterations) found F* = 0.5 with a "
                "certificate of nan: not finite")):
            solve_reference(prob, tol=1e-10)


def _smoothness_of_average(prob):
    scale = 0.25 if prob.loss == "logistic" else 1.0
    return scale * float(np.linalg.eigvalsh(prob.A.T @ prob.A / prob.n)[-1])


def _normal_equations_optimum(prob):
    lam2 = prob.reg.lam2
    H = prob.A.T @ prob.A / prob.n + lam2 * np.eye(prob.d)
    return np.linalg.solve(H, prob.A.T @ prob.targets / prob.n)


QUADRATIC_CASES = [
    (40, 6, Regularizer.zero()),
    (40, 6, Regularizer.squared_l2(0.05)),
    (8, 12, Regularizer.squared_l2(0.05)),  # rank A < d: curvature lam2 off the row space
]


class TestCriteriaReferences:
    """The reference solutions of acceptance criteria 04, 05 and 10, which no
    golden trace header records: F* and gap_tolerance as float hex, the
    method and iterations, and a digest of x*'s bytes."""

    @pytest.mark.parametrize("data, kwargs, pinned", [
        (dict(n=6, d=4, family="least_squares", seed=3, reg=Regularizer.l1(0.05)),
         dict(tol=1e-12),
         ("64220307c7e5f4ff", "0x1.6f02ed5a5556cp-5", "0x1.19799812dea11p-40", "fista-restart",
          124)),
        (dict(n=100, d=20, family="least_squares", seed=7, reg=Regularizer.l1(0.02)),
         dict(tol=1e-12),
         ("66e8250baa60511a", "0x1.098ea327d2b42p-4", "0x1.19799812dea11p-40", "fista-restart",
          72)),
        (dict(n=2000, d=50, family="least_squares", seed=20, noise=0.1, condition=1e4),
         dict(tol=1e-12, max_iterations=200_000),
         ("b21fcc73970a0335", "0x1.38bc6d58e5708p-8", "0x1.19799812dea11p-40", "lstsq", 0)),
    ], ids=["criterion-04", "criterion-05", "criterion-10"])
    def test_reference_is_pinned(self, data, kwargs, pinned):
        _, prob = synthesize(**data)
        ref = solve_reference(prob, **kwargs)
        assert (hashlib.sha256(ref.x_star.tobytes()).hexdigest()[:16], ref.f_star.hex(),
                ref.gap_tolerance.hex(), ref.method, ref.iterations) == pinned


class TestReferenceOracles:
    @pytest.mark.parametrize(
        "family, reg",
        [
            ("least_squares", Regularizer.l1(0.02)),
            ("least_squares", Regularizer.elastic_net(0.01, 0.01)),
            ("logistic", Regularizer.squared_l2(0.01)),
            ("logistic", Regularizer.l1(0.01)),
        ],
    )
    def test_fista_steps_with_smoothness_of_average(self, family, reg, monkeypatch):
        _, prob = synthesize(60, 8, family, seed=3, reg=reg, condition=100.0)
        seen = []
        real = optimizers.fista_solve

        def spy(problem, L, **kwargs):
            seen.append(L)
            return real(problem, L, **kwargs)

        monkeypatch.setattr(problems, "fista_solve", spy)
        solve_reference(prob, tol=1e-10)
        L_f = _smoothness_of_average(prob)
        assert seen == [pytest.approx(L_f, rel=1e-12)]
        assert seen[0] <= prob.L

    @pytest.mark.parametrize("n, d, reg", QUADRATIC_CASES)
    def test_direct_agrees_with_fista_at_l_f(self, n, d, reg):
        _, prob = synthesize(n, d, "least_squares", seed=9, reg=reg, condition=10.0)
        ref = solve_reference(prob, tol=1e-12)
        assert ref.method == "lstsq" and ref.gap_tolerance == 1e-12
        _, f_fista, gap_fista, _ = optimizers.fista_solve(
            prob, _smoothness_of_average(prob), tol=1e-12, max_iterations=100_000
        )
        assert abs(f_fista - ref.f_star) <= gap_fista + ref.gap_tolerance

    @pytest.mark.parametrize("n, d, reg", QUADRATIC_CASES)
    def test_direct_certificate_bounds_true_gap(self, n, d, reg):
        _, prob = synthesize(n, d, "least_squares", seed=9, reg=reg, condition=10.0)
        x_opt = _normal_equations_optimum(prob)
        f_opt = prob.value(x_opt)
        ref = solve_reference(prob, tol=1e-12)
        assert ref.f_star - f_opt <= ref.gap_tolerance
        s = np.linalg.svd(prob.A, compute_uv=False)
        rng = make_rng(4)
        for _ in range(20):
            x = x_opt + 1e-2 * rng.standard_normal(d)
            gap = prob.value(x) - f_opt
            assert 0.0 <= gap <= quadratic_gap_bound(prob, x, s) * (1.0 + 1e-9)
        # tight along the flattest direction the gradient can take
        H = prob.A.T @ prob.A / n + reg.lam2 * np.eye(d)
        evals, evecs = np.linalg.eigh(H)
        k = int(np.argmax(evals > 1e-12))
        x = x_opt + 1e-2 * evecs[:, k]
        assert quadratic_gap_bound(prob, x, s) == pytest.approx(
            prob.value(x) - f_opt, rel=1e-6
        )

    def test_gap_bound_needs_a_quadratic(self):
        _, prob = synthesize(10, 3, "least_squares", seed=4, reg=Regularizer.l1(0.1))
        with pytest.raises(ValueError):
            quadratic_gap_bound(prob, np.zeros(3), np.ones(3))


class TestDenseRoundTrip:
    def test_dataset_from_dense_keeps_shape(self):
        A = np.array([[0.0, 1.5], [2.0, 0.0]])
        ds = dataset_from_dense(A, np.array([1.0, -1.0]))
        assert ds.d == 2
        np.testing.assert_array_equal(ds.to_dense(), A)

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[-0.0, 1.5, 0.0], [2.0, -0.0, -3e-300]]),  # -0.0 entries
            np.array([[0.0, 0.0], [1.0, -2.0], [0.0, 0.0]]),  # all-zero rows
            np.array([[0.0, -0.0], [-0.0, 0.0]]),  # no nonzeros at all
            np.zeros((0, 3)),
        ],
    )
    def test_round_trip_is_bit_exact(self, A):
        ds = dataset_from_dense(A, np.ones(A.shape[0]))
        assert ds.nnz == np.count_nonzero(A) and ds.indptr[-1] == ds.nnz
        # -0.0 is an exact zero, dropped like +0.0, so it comes back as +0.0
        assert ds.to_dense().tobytes() == (A + 0.0).tobytes()
        assert not np.any(np.signbit(ds.to_dense()[A == 0.0]))
