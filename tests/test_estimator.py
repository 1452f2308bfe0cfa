"""Estimator laws certified by subset enumeration, plus ledger exactness."""

import copy
import math
from itertools import combinations, product

import numpy as np
import pytest

from katyusha_h import estimator
from katyusha_h.estimator import (
    DrawStream,
    EnumerationCapError,
    IfoLedger,
    enumeration_mean_estimate,
    exact_variance,
    make_checkpoint,
    maybe_update_checkpoint,
    sample_subset,
    svrg_estimate,
    variance_bound_rhs,
)
from katyusha_h.problems import (
    FiniteSumProblem,
    SparseDataset,
    make_rng,
    synthesize,
)
from katyusha_h.proximal import Regularizer
from test_problems import component_grad


def scalar_quadratic_problem():
    ds = SparseDataset(
        indptr=[0, 1, 2], indices=[1, 1], values=[1.0, 1.0], labels=np.array([1.0, -1.0]), d=1
    )
    return FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")


def resolve_swaps(targets: list[int]) -> list[int]:
    """Partial Fisher-Yates output for swap targets t_0..t_{b-1}, t_i >= i:
    the per-row oracle of ``estimator._resolve_block``.

    Step i swaps position i with position t_i of range(n), kept as a sparse
    swap map.  Only targets are ever keys of the map, so out[i] = t_i unless
    t_i repeats an earlier target.
    """
    swaps: dict[int, int] = {}
    out = []
    for i, j in enumerate(targets):
        out.append(swaps.get(j, j))
        swaps[j] = swaps.get(i, i)
    return out


def scalar_loop_subset(n, b, rng):
    """One draw per position, resolved by the per-row oracle: the
    stream-contract oracle of ``sample_subset``."""
    if b == n:
        return np.arange(n)
    return np.array(resolve_swaps([int(rng.integers(i, n)) for i in range(b)]), dtype=np.intp)


class TestSampleSubset:
    @pytest.mark.parametrize(
        "n,b",
        [(1, 1), (7, 6), (100, 1), (100, 2), (100, 10), (10**4, 100), (2**33, 5), (30, 30),
         (4, 3), (2000, 45), (2**61, 3)],
    )
    def test_stream_contract_matches_scalar_loop(self, n, b):
        # One array-bound draw must return the scalar loop's indices and leave
        # the generator where the loop leaves it.
        for seed in range(50):
            fast, slow = make_rng(seed), make_rng(seed)
            got = sample_subset(n, b, fast)
            want = scalar_loop_subset(n, b, slow)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want)
            assert fast.random() == slow.random()

    def test_degenerate_cases(self):
        rng = make_rng(0)
        assert list(sample_subset(1, 1, rng)) == [0]
        assert sorted(sample_subset(5, 5, rng)) == [0, 1, 2, 3, 4]

    def test_domain(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            sample_subset(3, 4, rng)
        with pytest.raises(ValueError):
            sample_subset(3, 0, rng)

    @pytest.mark.parametrize("n, b", [(2**62, 2), (2**63, 1), (2**40, 2**23), (2**32, 2**31)])
    def test_refuses_keys_beyond_int64_before_drawing(self, n, b):
        # the block resolver's keys t_i * b + i reach n * b
        rng = make_rng(0)
        with pytest.raises(ValueError, match=r"need n \* b < 2\*\*63"):
            sample_subset(n, b, rng)
        assert rng.random() == make_rng(0).random()

    def test_distinct_indices(self):
        rng = make_rng(1)
        for _ in range(500):
            out = sample_subset(10, 4, rng)
            assert len(set(out.tolist())) == 4
            assert all(0 <= i < 10 for i in out)

    def test_uniform_over_subsets(self):
        # all C(4,2)=6 subsets; 10^6 draws within 4 sigma of 1/6 each.  The
        # draws are a run's: DrawStream subsets, each followed by its coin.
        # A quarter of them repeat a swap target, so this also checks the
        # block resolver; sample_subset equals the stream draw for draw
        # (TestDrawStream), so it is checked too.
        stream = DrawStream(4, 2, seed=7)
        draws = 1_000_000
        rows = np.empty((draws, 2), dtype=np.intp)
        for j in range(draws):
            stream.next()
            rows[j] = stream.subset
        codes = np.bincount((1 << rows).sum(axis=1), minlength=16)
        counts = {c: codes[sum(1 << i for i in c)] for c in combinations(range(4), 2)}
        assert sum(counts.values()) == draws
        p = 1 / 6
        sigma = math.sqrt(draws * p * (1 - p))
        for subset, count in counts.items():
            assert abs(count - draws * p) <= 4 * sigma, (subset, count)


def stream_block(b):
    """Iterations in one DrawStream block at batch size b."""
    return min(1024, -(-(2**17) // b))


class TestDrawStream:
    @pytest.mark.parametrize(
        "n,b",
        [(1, 1), (7, 6), (100, 1), (100, 2), (100, 10), (10**4, 100), (30, 30),
         (3 * 2**30, 3), (2**31 + 1, 5), (2**32, 2), (2000, 45), (64, 63),
         (65_536, 65_535), (10**8, 300)],
    )
    def test_equals_sample_subset_then_coin(self, n, b):
        # 3*2**30 makes Lemire reject a quarter of all draws and 2**31 + 1
        # half of each row's first draws, so rows can hold several
        # rejections, some on a row's first or last draw; 2**32 puts the
        # first bound at the full 32-bit range; at (2000, 45) and (64, 63)
        # most rows repeat a swap target; at b = 65,535 a block is 3
        # iterations; at 10**8, 2.2% of draws are rejected (~7 per row) and a
        # fill lays out ~180 draws at a time, so layouts also end inside a
        # row with no rejection.  2.5 blocks cross two refills.
        iterations = 5 * stream_block(b) // 2
        for seed in range(4):
            stream, rng = DrawStream(n, b, seed), make_rng(seed)
            for _ in range(iterations):
                coin = stream.next()
                got = stream.subset
                assert got.dtype == np.intp
                np.testing.assert_array_equal(got, sample_subset(n, b, rng))
                assert coin == rng.random()

    @pytest.mark.parametrize(
        "n,b", [(100, 3), (3 * 2**30, 3), (2**31 + 1, 5), (10**8, 300), (12, 12)]
    )
    def test_copy_mid_block_continues_identically(self, n, b):
        stream = DrawStream(n, b, seed=5)
        for _ in range(stream_block(b) // 2 + 1):
            stream.next()
        twin = copy.deepcopy(stream)
        for _ in range(stream_block(b) + 7):
            assert stream.next() == twin.next()
            np.testing.assert_array_equal(stream.subset, twin.subset)

    @pytest.mark.parametrize(
        "n, b, iterations",
        [(100, 1, 3000), (100, 10, 3000), (2000, 45, 3000), (64, 63, 3000),
         (3 * 2**30, 3, 3000), (30, 30, 3000), (10**8, 10_001, 40)],
    )
    def test_draws_do_not_depend_on_the_block_length(self, monkeypatch, n, b, iterations):
        # every fill boundary falls elsewhere at K = 1, 2 and 7; at 3*2**30
        # and 10**8 layouts end at rejections on both sides of a boundary
        default = DrawStream(n, b, seed=11)
        want = [(default.next(), default.subset.copy()) for _ in range(iterations)]
        for block in (1, 2, 7):
            monkeypatch.setattr(estimator, "_BLOCK_ITERATIONS", block)
            stream = DrawStream(n, b, seed=11)
            assert stream._block == block
            for coin, rows in want:
                assert stream.next() == coin
                np.testing.assert_array_equal(stream.subset, rows)

    @pytest.mark.parametrize("n, b", [(10, 2), (10, 10)])
    def test_subset_reads_without_moving_the_stream(self, n, b):
        stream, twin = DrawStream(n, b, seed=3), DrawStream(n, b, seed=3)
        for _ in range(3):
            coin = stream.next()
            row = stream.subset
            assert not row.flags.writeable
            assert stream._idx.flags.writeable == (b < n)  # take() copies read-only indices
            np.testing.assert_array_equal(stream.subset, row)
            assert coin == twin.next()

    @pytest.mark.parametrize("b", [1, 3])
    def test_gathered_equals_gathers_by_index(self, monkeypatch, b):
        # spans of 5 iterations; the checkpoint changes mid-span and on a
        # span's first iteration, and the run crosses a block refill
        monkeypatch.setattr(estimator, "_SPAN_BYTES", 8 * b * 4 * 5)
        _, prob = synthesize(40, 4, "logistic", seed=3)
        rng = make_rng(1)
        ckpt = make_checkpoint(rng.standard_normal(4), prob, IfoLedger())
        stream = DrawStream(prob.n, b, seed=2)
        for k in range(stream_block(b) + 40):
            if k % 7 == 3 or k % 10 == 5:
                ckpt = make_checkpoint(rng.standard_normal(4), prob, IfoLedger())
            stream.next()
            idx = stream.subset
            rows, targets, r_w = stream.gathered(prob, ckpt)
            assert np.array_equal(rows, prob.A[idx])
            assert np.array_equal(targets, prob.targets[idx])
            assert np.array_equal(r_w, ckpt.residuals[idx])

    @pytest.mark.parametrize("b, d, span", [(100, 100, 1), (10, 100, 8), (1, 20, 409)])
    def test_span_budget(self, b, d, span):
        # a span holds at most 64 KiB of feature rows, and one iteration's
        # rows when they alone exceed it (80 kB at b = d = 100)
        A = make_rng(0).standard_normal((1000, d))
        prob = FiniteSumProblem(A, np.ones(1000), "least_squares")
        ckpt = make_checkpoint(np.zeros(d), prob, IfoLedger())
        stream = DrawStream(prob.n, b, seed=0)
        spans, block = [], stream_block(b)
        for _ in range(block):
            stream.next()
            stream.gathered(prob, ckpt)
            if not spans or spans[-1] is not stream._span_rows:
                spans.append(stream._span_rows)
        tail = [block % span] if block % span else []
        assert [len(s) for s in spans] == [span] * (block // span) + tail
        assert all(s.nbytes <= max(estimator._SPAN_BYTES, 8 * b * d) for s in spans)

    def test_domain(self):
        with pytest.raises(ValueError):
            DrawStream(2**32 + 1, 1, seed=0)
        with pytest.raises(ValueError):
            DrawStream(3, 4, seed=0)
        with pytest.raises(ValueError):
            DrawStream(3, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, 2.0, True, "3", None])
    def test_refuses_a_seed_that_is_no_philox_key(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            DrawStream(3, 1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1, np.int64(7), np.uint64(2**63)])
    def test_takes_any_integer_key(self, seed):
        stream = DrawStream(3, 1, seed=seed)
        stream.next()
        assert stream.subset.shape == (1,)


class TestResolveBlock:
    @pytest.mark.parametrize(
        "n,b", [(2, 2), (4, 2), (7, 6), (30, 29), (100, 10), (2000, 45), (10**4, 100)]
    )
    def test_equals_resolve_swaps_row_by_row(self, n, b):
        for seed in range(3):
            targets = make_rng(seed).integers(np.arange(b), n, size=(stream_block(b), b))
            want = [resolve_swaps(row) for row in targets.tolist()]
            got = estimator._resolve_block(targets.astype(np.intp), n)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "n, targets, want",
        [
            (4, [3, 3, 3, 3], [3, 0, 1, 2]),  # one target, three repeats
            (3, [1, 2, 2], [1, 2, 0]),  # out[2] = S(1) = S(0): a two-level chain
            (5, [1, 2, 3, 4, 4], [1, 2, 3, 4, 0]),  # a four-level chain
            (4, [2, 2, 2, 3], [2, 0, 1, 3]),  # position 2 targeted before step 2
            (5, [0, 1, 2], [0, 1, 2]),  # self-targets
            (4, [1, 1, 2], [1, 0, 2]),  # a self-target after position 1 was targeted
        ],
    )
    def test_hand_written_chains(self, n, targets, want):
        assert resolve_swaps(targets) == want
        block = np.array([targets, targets], dtype=np.intp)
        np.testing.assert_array_equal(estimator._resolve_block(block, n), [want, want])

    def test_every_row_of_small_ranges(self):
        # every target row t_i in [i, n), for every 1 <= b <= n <= 6
        for n in range(1, 7):
            for b in range(1, n + 1):
                rows = list(product(*(range(i, n) for i in range(b))))
                got = estimator._resolve_block(np.array(rows, dtype=np.intp), n)
                np.testing.assert_array_equal(got, [resolve_swaps(list(r)) for r in rows])

    @pytest.mark.parametrize("n, b", [(2000, 45), (64, 63), (3 * 2**30, 3), (100, 1)])
    def test_each_fill_resolves_its_block_in_one_call(self, monkeypatch, n, b):
        # at 3*2**30 a quarter of draws are rejected, so fills resume mid-row
        shapes, resolve_block = [], estimator._resolve_block

        def counted(targets, n):
            shapes.append(targets.shape)
            return resolve_block(targets, n)

        monkeypatch.setattr(estimator, "_resolve_block", counted)
        stream = DrawStream(n, b, seed=1)
        for _ in range(2 * stream_block(b)):
            stream.next()
        assert shapes == [(stream_block(b), b)] * 2


def estimate_at_next_subset(x, ckpt, prob, ledger, b, seed=0):
    """A fresh stream's first subset and the estimate at x over it."""
    draws = DrawStream(prob.n, b, seed)
    draws.next()
    idx = draws.subset.copy()
    return idx, svrg_estimate(x, ckpt, prob, ledger, draws)


def indexed_estimate(x, ckpt, prob, idx):
    """The estimate over idx from fancy-indexed rows, targets and
    checkpoint residuals, in the order of the estimator's operations."""
    rows, targets, r_w = prob.A[idx], prob.targets[idx], ckpt.residuals[idx]
    diff = (prob.residual(x, rows, targets) - r_w).dot(rows)
    return diff + ckpt.full_grad if len(idx) == 1 else diff / len(idx) + ckpt.full_grad


class TestSvrgEstimate:
    def test_full_batch_is_exact_full_gradient(self):
        _, prob = synthesize(6, 3, "least_squares", seed=2)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.ones(3), prob, ledger)
        x = make_rng(3).standard_normal(3)
        _, g = estimate_at_next_subset(x, ckpt, prob, ledger, b=6)
        assert np.array_equal(g, prob.full_grad(x))

    def test_at_checkpoint_returns_full_gradient(self):
        _, prob = synthesize(6, 3, "least_squares", seed=2)
        ledger = IfoLedger()
        w = make_rng(4).standard_normal(3)
        ckpt = make_checkpoint(w, prob, ledger)
        _, g = estimate_at_next_subset(w, ckpt, prob, ledger, b=2)
        np.testing.assert_allclose(g, ckpt.full_grad, atol=1e-15)

    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_unbiased_by_enumeration(self, family, b):
        _, prob = synthesize(6, 4, family, seed=5)
        ledger = IfoLedger()
        ckpt = make_checkpoint(make_rng(6).standard_normal(4), prob, ledger)
        rng = make_rng(7)
        for _ in range(20):
            x = rng.standard_normal(4)
            mean = enumeration_mean_estimate(x, ckpt, b, prob)
            target = prob.full_grad(x)
            scale = max(1.0, float(np.linalg.norm(target)))
            assert np.linalg.norm(mean - target) <= 1e-12 * scale

    def test_unbiased_at_largest_small_instance(self):
        # upper edge of the enumeration regime: n = 8, b = 3
        _, prob = synthesize(8, 3, "least_squares", seed=14)
        ledger = IfoLedger()
        ckpt = make_checkpoint(make_rng(15).standard_normal(3), prob, ledger)
        rng = make_rng(16)
        for _ in range(10):
            x = rng.standard_normal(3)
            mean = enumeration_mean_estimate(x, ckpt, 3, prob)
            target = prob.full_grad(x)
            assert np.linalg.norm(mean - target) <= 1e-12 * max(
                1.0, float(np.linalg.norm(target))
            )

    @pytest.mark.parametrize("oracle", [enumeration_mean_estimate, exact_variance])
    @pytest.mark.parametrize("b", [0, 7])
    def test_enumeration_refuses_b_outside_one_to_n(self, oracle, b):
        _, prob = synthesize(6, 3, "least_squares", seed=2)
        ckpt = make_checkpoint(np.zeros(3), prob, IfoLedger())
        with pytest.raises(ValueError, match="1 <= b <= n"):
            oracle(np.ones(3), ckpt, b, prob)

    def test_ledger_charges_two_b(self):
        _, prob = synthesize(6, 3, "least_squares", seed=2)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(3), prob, ledger)
        assert ledger.checkpoint_calls == 6
        estimate_at_next_subset(np.ones(3), ckpt, prob, ledger, b=2)
        assert ledger.minibatch_calls == 4

    def test_cache_halves_minibatch_cost(self):
        # the ledger's charge changes the bill, never the estimate
        _, prob = synthesize(6, 3, "least_squares", seed=2)
        plain, cached = IfoLedger(), IfoLedger(per_sample=1)
        ckpt = make_checkpoint(np.zeros(3), prob, plain)
        x = np.ones(3)
        _, g1 = estimate_at_next_subset(x, ckpt, prob, plain, b=2, seed=5)
        _, g2 = estimate_at_next_subset(x, ckpt, prob, cached, b=2, seed=5)
        np.testing.assert_array_equal(g1, g2)
        assert plain.minibatch_calls == 4 and cached.minibatch_calls == 2
        estimate_at_next_subset(x, ckpt, prob, cached, b=prob.n)
        assert cached.minibatch_calls == 2 + prob.n

    def test_cache_holds_one_residual_per_component(self):
        _, prob = synthesize(6, 3, "logistic", seed=2)
        ckpt = make_checkpoint(np.ones(3), prob, IfoLedger())
        assert ckpt.residuals.shape == (prob.n,)
        np.testing.assert_array_equal(
            prob.A * ckpt.residuals[:, None], prob.component_grad_matrix(np.ones(3))
        )
        np.testing.assert_allclose(ckpt.full_grad, prob.full_grad(np.ones(3)), rtol=1e-14)

    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_estimate_matches_component_gradients(self, family):
        # the residual arithmetic against per-component gradients
        _, prob = synthesize(7, 3, family, seed=4)
        rng = make_rng(8)
        ckpt = make_checkpoint(rng.standard_normal(3), prob, IfoLedger())
        for b in (1, 3, 6):
            x = rng.standard_normal(3)
            idx, got = estimate_at_next_subset(x, ckpt, prob, IfoLedger(), b, seed=b)
            diffs = (prob.component_grad_matrix(x) - prob.component_grad_matrix(ckpt.w))[idx]
            want = diffs.sum(axis=0) / b + prob.full_grad(ckpt.w)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    @pytest.mark.parametrize("b", [1, 3, 40])
    def test_stream_estimate_equals_indexed_formula(self, family, b):
        # the gathered views give the bits of the A[idx] formula, checkpoint
        # refreshes included; 300 iterations cross span and block ends at b = 40
        _, prob = synthesize(60, 8, family, seed=6)
        rng = make_rng(9)
        ckpt = make_checkpoint(rng.standard_normal(8), prob, IfoLedger())
        draws = DrawStream(prob.n, b, seed=3)
        for t in range(300):
            if t % 7 == 0:
                ckpt = make_checkpoint(rng.standard_normal(8), prob, IfoLedger())
            x = rng.standard_normal(8)
            draws.next()
            idx = draws.subset
            got = svrg_estimate(x, ckpt, prob, IfoLedger(), draws)
            assert got.tobytes() == indexed_estimate(x, ckpt, prob, idx).tobytes()


def _layout(A: np.ndarray, layout: str) -> np.ndarray:
    """A as given in C order, in F order, or as every other row of an
    F-ordered copy, which is neither C- nor F-contiguous."""
    if layout == "C":
        return np.ascontiguousarray(A)
    if layout == "F":
        return np.asfortranarray(A)
    return np.asfortranarray(np.repeat(A, 2, axis=0))[::2]


class TestDotDispatch:
    """``ndarray.dot`` stands in for ``@`` in the residual and the estimate
    only because it gives the same bits wherever a run uses it."""

    LAYOUTS = ["C", "F", "F strided"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_features_are_kept_or_copied_to_c(self, layout):
        rng = np.random.default_rng(1)
        given = _layout(rng.standard_normal((50, 7)), layout)
        prob = FiniteSumProblem(given, np.ones(len(given)), "least_squares")
        assert np.array_equal(prob.A, given)
        if layout == "F strided":
            assert prob.A.flags.c_contiguous
        else:
            assert prob.A is given  # contiguous features keep their bits

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("b", [1, 3, 10, 100])
    def test_gathered_rows(self, layout, b):
        rng = np.random.default_rng(b)
        n, d = 300, 50
        prob = FiniteSumProblem(
            _layout(rng.standard_normal((n, d)), layout), rng.standard_normal(n), "least_squares"
        )
        ckpt = make_checkpoint(rng.standard_normal(d), prob, IfoLedger())
        draws = DrawStream(n, b, seed=b)
        for _ in range(30):  # rows are views into a span's gather, one span at b = 100
            draws.next()
            rows, _, _ = draws.gathered(prob, ckpt)
            assert rows.flags.c_contiguous
            x, s = rng.standard_normal(d), rng.standard_normal(b)
            assert rows.dot(x).tobytes() == (rows @ x).tobytes()
            assert s.dot(rows).tobytes() == (rows.T @ s).tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_full_features(self, layout):
        rng = np.random.default_rng(2)
        n, d = 2000, 50
        prob = FiniteSumProblem(
            _layout(rng.standard_normal((n, d)), layout), rng.standard_normal(n), "least_squares"
        )
        x, s = rng.standard_normal(d), rng.standard_normal(n)
        assert prob.A.dot(x).tobytes() == (prob.A @ x).tobytes()
        assert s.dot(prob.A).tobytes() == (prob.A.T @ s).tobytes()


class TestCheckpointMargins:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_value_from_margins_is_value(self, family, order):
        # F(w) of a run is read from the margins its refresh kept
        _, base = synthesize(400, 30, family, seed=9, reg=Regularizer.elastic_net(0.01, 0.02))
        prob = FiniteSumProblem(np.asarray(base.A, order=order), base.targets, family, base.reg)
        w = make_rng(3).standard_normal(30)
        ckpt = make_checkpoint(w, prob, IfoLedger())
        assert ckpt.margins.tobytes() == (prob.A @ w).tobytes()
        assert prob.value(w, ckpt.margins) == prob.value(w)
        assert prob.smooth_value(w, ckpt.margins) == prob.smooth_value(w)


class TestCheckpointUpdate:
    def test_zero_probability_never_updates(self):
        _, prob = synthesize(4, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        base = ledger.checkpoint_calls
        rng = make_rng(9)
        for _ in range(100):
            ckpt, updated = maybe_update_checkpoint(
                ckpt, np.ones(2), 0.0, rng.random(), prob, ledger
            )
            assert not updated
        assert ledger.checkpoint_calls == base

    def test_certain_update_costs_n(self):
        _, prob = synthesize(4, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        base = ledger.checkpoint_calls
        new, updated = maybe_update_checkpoint(
            ckpt, np.ones(2), 1.0, make_rng(9).random(), prob, ledger
        )
        assert updated and new is not ckpt
        assert ledger.checkpoint_calls == base + prob.n
        np.testing.assert_array_equal(new.w, np.ones(2))
        np.testing.assert_allclose(new.full_grad, prob.full_grad(np.ones(2)), rtol=1e-15)

    def test_provenance_skip_costs_nothing(self):
        _, prob = synthesize(4, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        base = ledger.checkpoint_calls
        same, updated = maybe_update_checkpoint(
            ckpt, ckpt.w, 1.0, make_rng(9).random(), prob, ledger)
        assert updated and same is ckpt
        assert ledger.checkpoint_calls == base

    def test_equal_valued_copy_of_w_is_refreshed(self):
        # the skip goes by identity: a copy of w is a new checkpoint, charged n
        _, prob = synthesize(4, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        base = ledger.checkpoint_calls
        new, updated = maybe_update_checkpoint(
            ckpt, ckpt.w.copy(), 1.0, make_rng(9).random(), prob, ledger
        )
        assert updated and new is not ckpt and new.w is not ckpt.w
        assert ledger.checkpoint_calls == base + prob.n
        np.testing.assert_array_equal(new.w, ckpt.w)

    def test_a_hit_is_a_coin_below_p(self):
        # at the rule's edges: coin == p misses and the next float above the
        # coin hits; p = 0 never hits, not even at coin 0, and p = 1 always
        # does.  Each hit's candidate is w itself, so no hit charges an IFO.
        _, prob = synthesize(4, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        base = ledger.checkpoint_calls
        coins = [0.0, 5e-324, 0.25, 0.5, np.nextafter(1.0, 0.0)]
        probabilities = [0.0, 1.0, *coins, *(np.nextafter(c, 1.0) for c in coins)]
        for coin in coins:
            for p in probabilities:
                same, updated = maybe_update_checkpoint(ckpt, ckpt.w, p, coin, prob, ledger)
                assert same is ckpt and updated == (coin < p), (coin, p)
            hit = [maybe_update_checkpoint(ckpt, ckpt.w, p, coin, prob, ledger)[1]
                   for p in (coin, np.nextafter(coin, 1.0), 0.0, 1.0)]
            assert hit == [False, True, False, True], coin
        assert ledger.checkpoint_calls == base

    def test_update_frequency(self):
        # 10^5 Bernoulli(0.25) trials within 4 sigma
        _, prob = synthesize(2, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        rng = make_rng(123)
        trials, hits = 100_000, 0
        for _ in range(trials):
            _, updated = maybe_update_checkpoint(ckpt, ckpt.w, 0.25, rng.random(), prob, ledger)
            hits += updated
        sigma = math.sqrt(trials * 0.25 * 0.75)
        assert abs(hits - trials * 0.25) <= 4 * sigma

    def test_probability_domain(self):
        _, prob = synthesize(2, 2, "least_squares", seed=1)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        with pytest.raises(ValueError):
            maybe_update_checkpoint(ckpt, np.ones(2), 1.5, 0.0, prob, ledger)


class TestVarianceBound:
    def test_zero_at_checkpoint(self):
        prob = scalar_quadratic_problem()
        x = np.array([0.7])
        assert variance_bound_rhs(x, x, prob, 1) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_quadratic_value(self):
        # f(x) = (x^2+1)/2, L=1: bound = 2*(f(2) - f(0) - 0) = 4
        prob = scalar_quadratic_problem()
        assert variance_bound_rhs(np.array([0.0]), np.array([2.0]), prob, 1) == pytest.approx(4.0)

    def test_batch_below_one_refused(self):
        with pytest.raises(ValueError, match="b must be positive"):
            variance_bound_rhs(np.array([0.0]), np.array([2.0]), scalar_quadratic_problem(), 0)

    def test_scales_inversely_with_b(self):
        prob = scalar_quadratic_problem()
        x, w = np.array([0.0]), np.array([2.0])
        assert variance_bound_rhs(x, w, prob, 1) == pytest.approx(
            2 * variance_bound_rhs(x, w, prob, 2)
        )


class TestExactVariance:
    def test_zero_cases(self):
        _, prob = synthesize(5, 3, "least_squares", seed=8)
        ledger = IfoLedger()
        w = make_rng(1).standard_normal(3)
        ckpt = make_checkpoint(w, prob, ledger)
        assert exact_variance(w, ckpt, 2, prob) == 0.0
        x = make_rng(2).standard_normal(3)
        assert exact_variance(x, ckpt, prob.n, prob) == 0.0

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_dominated_by_bound(self, b):
        _, prob = synthesize(4, 2, "least_squares", seed=3)
        ledger = IfoLedger()
        rng = make_rng(11)
        for _ in range(10):
            w = rng.standard_normal(2)
            x = rng.standard_normal(2)
            ckpt = make_checkpoint(w, prob, ledger)
            assert exact_variance(x, ckpt, b, prob) <= variance_bound_rhs(
                x, w, prob, b
            ) * (1 + 1e-12) + 1e-15

    def test_matches_direct_enumeration(self):
        _, prob = synthesize(4, 2, "least_squares", seed=3)
        ledger = IfoLedger()
        w = make_rng(4).standard_normal(2)
        x = make_rng(5).standard_normal(2)
        ckpt = make_checkpoint(w, prob, ledger)
        # independent oracle: enumerate the estimator definition literally
        full = prob.full_grad(x)
        acc = 0.0
        subsets = list(combinations(range(4), 2))
        for s in subsets:
            g = sum(
                component_grad(prob, j, x) - component_grad(prob, j, w) for j in s
            ) / 2 + ckpt.full_grad
            acc += float((g - full) @ (g - full))
        assert exact_variance(x, ckpt, 2, prob) == pytest.approx(
            acc / len(subsets), rel=1e-10, abs=1e-13
        )

    def test_refuses_above_cap(self):
        _, prob = synthesize(30, 2, "least_squares", seed=3)
        ledger = IfoLedger()
        ckpt = make_checkpoint(np.zeros(2), prob, ledger)
        with pytest.raises(EnumerationCapError):
            exact_variance(np.ones(2), ckpt, 15, prob)
