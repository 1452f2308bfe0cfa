"""Proximal operators, certified through first-order optimality conditions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from katyusha_h import proximal
from katyusha_h.proximal import Regularizer, prox, reg_value, soft_threshold

vectors = arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(-50, 50, allow_nan=False),
)


def prox_optimality_residual(reg: Regularizer, v: np.ndarray, step: float, z: np.ndarray) -> float:
    """Max violation of 0 in the subdifferential of the prox objective at z.

    The smooth part contributes (z - v)/step + lam2*z; the l1 part
    contributes lam1*sign(z_i) where z_i != 0 and anything in
    [-lam1, lam1] at z_i = 0.
    """
    smooth = (z - v) / step + reg.lam2 * z
    worst = 0.0
    for zi, si in zip(z, smooth):
        if zi != 0.0:
            worst = max(worst, abs(si + reg.lam1 * np.sign(zi)))
        else:
            worst = max(worst, max(0.0, abs(si) - reg.lam1))
    return worst


class TestValues:
    def test_zero(self):
        assert reg_value(Regularizer.zero(), np.array([3.0, -9.0])) == 0.0

    def test_l1(self):
        assert reg_value(Regularizer.l1(2.0), np.array([1.0, -3.0])) == pytest.approx(8.0)

    def test_squared_l2(self):
        assert reg_value(Regularizer.squared_l2(1.0), np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_elastic_net(self):
        reg = Regularizer.elastic_net(1.0, 2.0)
        x = np.array([1.0, -2.0])
        assert reg_value(reg, x) == pytest.approx(3.0 + 5.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Regularizer.l1(-1.0)

    def test_the_weights_are_the_regularizer(self):
        # no label: each constructor is a weight pattern, and a zero weight
        # is no term, so l1(0) and elastic_net(0, 0) are the zero regularizer
        assert [f.name for f in dataclasses.fields(Regularizer)] == ["lam1", "lam2"]
        assert Regularizer.zero() == Regularizer() == Regularizer.l1(0.0)
        assert Regularizer.elastic_net(0.0, 0.0) == Regularizer.squared_l2(0.0) == Regularizer()
        assert Regularizer.elastic_net(0.0, 0.3) == Regularizer.squared_l2(0.3)
        assert Regularizer.elastic_net(0.2, 0.0) == Regularizer.l1(0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_refused(self, bad):
        # NaN fails every comparison, so only a test that NaN must pass catches it
        with pytest.raises(ValueError, match="nonnegative and finite"):
            Regularizer.l1(bad)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            Regularizer.elastic_net(0.1, bad)


WEIGHT_PATTERNS = [Regularizer.zero(), Regularizer.l1(0.1), Regularizer.squared_l2(0.3),
                   Regularizer.elastic_net(0.1, 0.3)]
WEIGHT_IDS = ["zero", "l1", "squared_l2", "elastic_net"]


class TestProx:
    def test_zero_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        out = prox(Regularizer.zero(), v, 0.7)
        assert np.array_equal(out, v)
        assert out is not v

    def test_l1_shrinks(self):
        # certified below by the optimality residual; values by hand
        out = prox(Regularizer.l1(1.0), np.array([2.5]), 1.0)
        assert out[0] == pytest.approx(1.5)
        assert prox_optimality_residual(Regularizer.l1(1.0), np.array([2.5]), 1.0, out) <= 1e-12

    def test_l1_kills_small_entries(self):
        out = prox(Regularizer.l1(1.0), np.array([0.5]), 1.0)
        assert out[0] == 0.0
        assert prox_optimality_residual(Regularizer.l1(1.0), np.array([0.5]), 1.0, out) <= 1e-12

    @pytest.mark.parametrize("reg", [Regularizer.zero(), Regularizer.l1(0.0),
                                     Regularizer.squared_l2(0.0)], ids=["zero", "l1", "squared_l2"])
    def test_zero_weights_are_identity(self, reg):
        v = np.array([1.0, -2.0, -0.0, 0.5])
        out = prox(reg, v, 0.7)
        assert out.tobytes() == v.tobytes() and out is not v
        assert reg_value(reg, v) == 0.0

    def test_squared_l2_scales(self):
        out = prox(Regularizer.squared_l2(3.0), np.array([4.0, -2.0]), 0.5)
        assert np.allclose(out, np.array([4.0, -2.0]) / 2.5)

    def test_step_domain(self):
        with pytest.raises(ValueError):
            prox(Regularizer.l1(1.0), np.array([1.0]), 0.0)

    @pytest.mark.parametrize("reg", WEIGHT_PATTERNS, ids=WEIGHT_IDS)
    @pytest.mark.parametrize("step", [math.nan, -math.nan, -1.0, 0.0, -0.0])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_step_that_is_not_positive_is_refused(self, reg, step, overwrite):
        v = np.ones(3)
        with pytest.raises(ValueError, match="prox step must be positive"):
            prox(reg, v, step, **({"overwrite": True} if overwrite else {}))
        assert np.array_equal(v, np.ones(3))

    @pytest.mark.parametrize("reg", WEIGHT_PATTERNS, ids=WEIGHT_IDS)
    def test_overwrite_gives_the_same_bits_in_place(self, reg):
        v = np.array([2.5, -2.5, 0.01, -0.01, 0.0, -0.0, 1e300, -np.inf])
        want = prox(reg, v, 0.7)
        assert want is not v and np.shares_memory(want, v) is False
        scratch = v.copy()
        got = prox(reg, scratch, 0.7, overwrite=True)
        assert got is scratch
        assert got.tobytes() == want.tobytes()

    @given(vectors, st.floats(0.01, 10.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_optimality_residual(self, v, step, lam1, lam2):
        for reg in (
            Regularizer.l1(lam1),
            Regularizer.squared_l2(lam2),
            Regularizer.elastic_net(lam1, lam2),
        ):
            z = prox(reg, v, step)
            scale = max(1.0, float(np.max(np.abs(v))))
            assert prox_optimality_residual(reg, v, step, z) <= 1e-10 * scale

    @given(vectors, st.floats(0.01, 10.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, v, step, lam1, lam2):
        rng = np.random.default_rng(abs(hash((step, lam1, lam2))) % 2 ** 32)
        u = v + rng.normal(size=v.shape)
        for reg in (
            Regularizer.l1(lam1),
            Regularizer.elastic_net(lam1, lam2),
            Regularizer.squared_l2(lam2),
        ):
            d_out = np.linalg.norm(prox(reg, u, step) - prox(reg, v, step))
            d_in = np.linalg.norm(u - v)
            assert d_out <= d_in * (1 + 1e-12) + 1e-12

    def test_small_step_approaches_identity(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=8)
        for reg in (Regularizer.l1(3.0), Regularizer.elastic_net(2.0, 5.0)):
            out = prox(reg, v, 1e-8)
            assert np.linalg.norm(out - v) <= 1e-6 * np.linalg.norm(v)

    def test_elastic_net_matches_grid_search(self):
        # brute-force the scalar prox objective on a fine grid
        reg = Regularizer.elastic_net(0.8, 1.7)
        v, step = np.array([1.9]), 0.6
        grid = np.linspace(-3, 3, 2_000_001)
        objective = (grid - v[0]) ** 2 / (2 * step) + 0.8 * np.abs(grid) + 0.85 * grid ** 2
        best = grid[int(np.argmin(objective))]
        assert prox(reg, v, step)[0] == pytest.approx(best, abs=1e-5)

    def test_soft_threshold(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([3.0, -3.0, 0.2]), 1.0), [2.0, -2.0, 0.0]
        )

    @given(vectors, st.floats(1e-6, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_soft_threshold_equals_sign_times_max(self, v, t):
        edges = np.array([t, -t, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                          np.nextafter(t, 0.0), -np.nextafter(t, np.inf), 5e-324, -5e-324])
        v = np.concatenate([v, edges])
        want = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        got = soft_threshold(v, t)
        # nan where the product is nan (whose sign bit numpy's product leaves
        # to the loop it picks), and bit for bit elsewhere, signed zeros
        # included, except that copysign keeps the sign of v = -0.0
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        neg_zero = (v == 0.0) & np.signbit(v)
        same = ~nan & ~neg_zero
        assert np.array_equal(got[same].view(np.uint64), want[same].view(np.uint64))
        assert np.all(got[neg_zero] == 0.0) and np.all(np.signbit(got[neg_zero]))


def test_shared_zero_is_read_only():
    # every soft-threshold reads the one module-level 0-d zero
    with pytest.raises(ValueError, match="read-only"):
        proximal._ZERO[()] = 1.0
    assert proximal._ZERO.shape == () and proximal._ZERO == 0.0
