"""Schedule sequences: growth buckets, derived constants, probabilities."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from katyusha_h import schedule
from katyusha_h.schedule import (
    CHUNK,
    advance,
    alpha_sequence,
    compute_constants,
    denominator_sequence,
    growth_coefficient,
    p_at,
    p_sequence,
    step_size,
    tau_at,
)


Row = collections.namedtuple("Row", "alpha_prev alpha_t den_prev den_t p")


def params_for(alpha, b=1):
    return compute_constants(alpha, b)


def table_at(t, params):
    """The table that covers t, after every table before it."""
    table = advance(None, params)
    while t >= table.start + CHUNK:
        table = advance(table, params)
    return table


def row_at(t, params):
    table = table_at(t, params)
    return Row(*table.rows[t - table.start])


class TestGrowthCoefficient:
    def test_bucket_values(self):
        assert growth_coefficient(0.0) == 6.0
        assert growth_coefficient(0.5) == pytest.approx(1.0 + math.sqrt(2) / 4, abs=1e-15)
        assert growth_coefficient(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_buckets_closed_on_right(self):
        assert growth_coefficient(0.75) == pytest.approx(1 / 3, abs=1e-15)
        assert growth_coefficient(0.75 + 1e-9) == pytest.approx(
            0.25 * (17 / 16) ** (0.75 + 1e-9 - 1), rel=1e-12
        )
        assert growth_coefficient(1e-12) == pytest.approx(1.0 + math.sqrt(2) / 4, abs=1e-15)
        assert growth_coefficient(0.5 + 1e-9) == pytest.approx(1 / 3, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            growth_coefficient(-0.1)
        with pytest.raises(ValueError):
            growth_coefficient(1.1)


class TestAlphaAt:
    def test_constant_head(self):
        for alpha in (0.0, 0.3, 1.0):
            assert np.all(alpha_sequence(16, params_for(alpha)) == 6.0)
            assert alpha_sequence(16, params_for(alpha), start=16).tolist() == [6.0]

    def test_growth_tail(self):
        assert alpha_sequence(17, params_for(1.0), start=17)[0] == pytest.approx(4.25, abs=1e-15)
        assert alpha_sequence(100, params_for(0.5), start=100)[0] == pytest.approx(
            (1 + math.sqrt(2) / 4) * 10.0, rel=1e-14
        )

    def test_negative_t(self):
        p = params_for(0.5)
        for t_max, start in ((-1, 0), (5, -1), (5, 6)):
            with pytest.raises(ValueError):
                alpha_sequence(t_max, p, start)

    def test_above_one_and_monotone_tail(self):
        for alpha in np.linspace(0.0, 1.0, 21):
            seq = alpha_sequence(500, params_for(float(alpha)))
            assert np.all(seq > 1.0)
            assert np.all(np.diff(seq[17:]) >= 0.0)

    def test_drop_at_seventeen_allowed(self):
        seq = alpha_sequence(18, params_for(1.0))
        assert seq[16] == 6.0 and seq[17] == pytest.approx(4.25)


class TestConstants:
    def test_full_acceleration_unit_batch(self):
        p = params_for(1.0, b=1)
        assert p.c == pytest.approx(3.0, abs=1e-15)
        assert p.xi == pytest.approx(1 / 3, rel=1e-15)
        assert p.alpha_tilde0 == pytest.approx(12.0, rel=1e-15)

    def test_no_acceleration_unit_batch(self):
        # alpha_17 stays 6, so the inner max is 6/5 and c = 2 + 1.
        p = params_for(0.0, b=1)
        assert p.c == pytest.approx(3.0, abs=1e-15)
        assert p.xi == pytest.approx(1 / 3, rel=1e-15)
        assert p.alpha_tilde0 == pytest.approx(12.0, rel=1e-15)

    def test_near_zero_exponent(self):
        # alpha_17 = (1 + sqrt(2)/4) * 17**0.001, inner max ~ 3.798.
        p = params_for(0.001, b=1)
        a17 = (1 + math.sqrt(2) / 4) * 17 ** 0.001
        expected_c = max(2.0, 1.0 / (1.0 - 1.0 / a17)) + 1.0
        assert p.c == pytest.approx(expected_c, rel=1e-12)
        assert p.c == pytest.approx(4.798, abs=1e-3)
        assert p.xi == pytest.approx(0.2084, abs=1e-4)

    def test_uniform_cap(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            for b in (1, 2, 10, 1000):
                p = params_for(float(alpha), b=b)
                assert p.c <= 5.0
                assert 0.0 < p.xi < 1.0
                assert p.alpha_tilde0 == pytest.approx(36 * p.xi, rel=1e-15)

    def test_alpha_tilde0_follows_xi(self):
        # no field to set by hand: a replaced xi carries alpha_tilde0 with it
        p = params_for(0.6, b=2)
        assert "alpha_tilde0" not in {f.name for f in dataclasses.fields(p)}
        for xi in (p.xi, 2.0, 0.3):
            q = dataclasses.replace(p, xi=xi)
            assert q.alpha_tilde0 == 36.0 * xi
            assert advance(None, q).rows[0][2] == 36.0 * xi

    def test_batch_dampens_inner_max(self):
        # b >= 2 pushes the inner term below 2, so c = 3 regardless of alpha.
        for alpha in (0.001, 0.3, 0.999):
            assert params_for(alpha, b=2).c == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha, b", [(1.2, 1), (-0.1, 1), (math.nan, 1), (0.5, 0), (0.5, -1)])
    def test_inputs_validated(self, alpha, b):
        with pytest.raises(ValueError, match="alpha must be|batch_size must be"):
            compute_constants(alpha, b)

    def test_cap_breach_raises(self, monkeypatch):
        # alpha_17 just above 1 blows up the inverse-gap term past C_MAX
        monkeypatch.setattr(schedule, "growth_coefficient", lambda alpha: 1.01 / 17.0 ** alpha)
        with pytest.raises(ValueError, match="uniform cap"):
            compute_constants(0.5, 1)


class TestDenominator:
    def test_flat_schedule_value(self):
        p = params_for(0.0, b=1)
        # 12 + 36 - 36 + 10*6
        assert row_at(10, p).den_t == pytest.approx(72.0, rel=1e-15)

    def test_initial_is_anchor_weight(self):
        for alpha in (0.0, 0.5, 1.0):
            p = params_for(alpha)
            row = row_at(0, p)
            assert row.den_t == pytest.approx(p.alpha_tilde0, rel=1e-15)
            # the start-of-run weights stand in for t = -1
            assert row.den_prev == p.alpha_tilde0 and row.alpha_prev == 6.0

    def test_quadratic_growth(self):
        p = params_for(1.0, b=1)
        assert row_at(1000, p).den_t >= (1 / 16) * 1000 ** 2

    def test_prev_denominator_consistent(self):
        p = params_for(0.5, b=2)
        for t in (25, CHUNK, CHUNK + 1):
            assert row_at(t, p).den_prev == row_at(t - 1, p).den_t


class TestProbability:
    def test_first_step_forced(self):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            for b in (1, 2, 10):
                p = params_for(alpha, b=b)
                assert abs(p_at(advance(None, p), 1) - 1.0) <= 1e-12

    def test_flat_schedule_closed_form(self):
        # alpha = 0: p_t = (36*xi + 6) / (alpha_tilde0 + 6t)
        p = params_for(0.0, b=1)
        assert p_at(advance(None, p), 10) == pytest.approx(18 / 72, rel=1e-15)
        big = 10 ** 6
        assert p_at(table_at(big, p), big) == pytest.approx(18 / (12 + 6e6), rel=1e-12)

    def test_range_over_grid(self):
        for alpha in np.linspace(0.0, 1.0, 21):
            p = params_for(float(alpha))
            probs = p_sequence(alpha_sequence(3000, p), p)
            assert np.all(probs >= -1e-15) and np.all(probs <= 1.0 + 1e-15)

    @pytest.mark.parametrize("cum_sum", [-1e3, math.nan])
    def test_non_positive_denominator_raises(self, cum_sum):
        # a corrupt carried sum reaches the next table, which refuses it
        p = params_for(0.5)
        corrupt = dataclasses.replace(advance(None, p), cum_sum=cum_sum)
        with pytest.raises(ValueError, match=f"denominator D_{CHUNK} "):
            advance(corrupt, p)


class TestTau:
    def test_values(self):
        p = params_for(1.0)
        table = advance(None, p)
        assert tau_at(table, 5) == pytest.approx(1 / 6, rel=1e-15)
        assert tau_at(table, 17) == pytest.approx(4 / 17, rel=1e-15)

    def test_coupling_weights_positive(self):
        p = params_for(1.0, b=1)
        # 1 - xi - tau = 1 - 1/3 - 4/17 = 22/51
        assert 1.0 - p.xi - tau_at(advance(None, p), 17) == pytest.approx(22 / 51, rel=1e-12)


class TestStepSize:
    def test_values(self):
        assert step_size(1.0, params_for(1.0)) == pytest.approx(0.25)
        assert step_size(4.0, params_for(1.0)) == pytest.approx(0.0625)
        p = params_for(0.001)
        assert step_size(1.0, p) == pytest.approx(1.0 / (p.c + 1.0), rel=1e-15)
        assert step_size(1.0, p) == pytest.approx(0.17246, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            step_size(0.0, params_for(0.5))
        with pytest.raises(ValueError):
            step_size(-1.0, params_for(0.5))


class TestTable:
    def test_first_rows(self):
        p = params_for(0.3)
        row0, row1 = (Row(*r) for r in advance(None, p).rows[:2])
        assert row1.alpha_prev == 6.0 and row1.den_prev == row0.den_t
        assert row1.den_t == p.alpha_tilde0 + 36.0 - 36.0 + 6.0

    def test_cross_growth_boundary(self):
        p = params_for(0.8)
        row = row_at(17, p)
        a17 = row.alpha_t
        assert a17 == alpha_sequence(17, p, start=17)[0]
        assert row.den_t == pytest.approx(p.alpha_tilde0 + 36.0 - a17 ** 2 + 96.0 + a17, rel=1e-15)
        assert row.alpha_prev == 6.0

    def test_incremental_matches_fresh_summation(self):
        for alpha in (0.0, 0.37, 1.0):
            p = params_for(alpha)
            t = 3 * CHUNK + 5
            row = row_at(t, p)
            fresh = math.fsum(alpha_sequence(t, p)[1:])
            summed = row.den_t - (p.alpha_tilde0 + 36.0 - row.alpha_t ** 2)
            assert abs(summed - fresh) <= 1e-12 * abs(fresh)

    @pytest.mark.parametrize("alpha", [0.0, 0.211, 0.5, 0.6, 0.75, 0.9, 1.0])
    def test_tables_read_the_certified_arrays(self, alpha):
        # every value a run reads is, bit for bit, what the scans certify
        p = params_for(alpha)
        t_max = 200_000
        seq = alpha_sequence(t_max, p)
        dens = denominator_sequence(seq, p)
        probs = np.clip(p_sequence(seq, p), 0.0, 1.0)
        tables = [advance(None, p)]
        while tables[-1].start + CHUNK <= t_max:
            tables.append(advance(tables[-1], p))
        rows = [row for table in tables for row in table.rows][:t_max + 1]
        alpha_prev, alphas, den_prev, den_t, p_t = np.array(rows).T
        assert np.array_equal(alphas, seq)
        assert np.array_equal(den_t, dens)
        assert np.array_equal(alpha_prev[1:], seq[:-1]) and np.array_equal(den_prev[1:], dens[:-1])
        assert np.array_equal(p_t[1:], probs)
        assert alpha_prev[0] == 6.0 and den_prev[0] == p.alpha_tilde0

    def test_each_table_follows_the_last(self):
        p = params_for(0.6)
        prev = advance(None, p)
        assert prev.start == 0 and len(prev.rows) == CHUNK
        for k in range(1, 4):
            table = advance(prev, p)
            assert table.start == k * CHUNK and len(table.rows) == CHUNK
            first, last = Row(*table.rows[0]), Row(*prev.rows[-1])
            assert (first.alpha_prev, first.den_prev) == (last.alpha_t, last.den_t)
            # the carried sum adds in one running order, as np.cumsum does
            assert table.cum_sum == np.cumsum(alpha_sequence(table.start + CHUNK - 1, p)[1:])[-1]
            prev = table


class TestReader:
    """p_at and tau_at read row t of the table they are given, and no other."""

    @pytest.mark.parametrize("t", [1, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1])
    def test_reads_row_t(self, t):
        p = params_for(0.5, b=2)
        table = table_at(t, p)
        row = Row(*table.rows[t - table.start])
        assert p_at(table, t) == row.p and tau_at(table, t) == 1.0 / row.alpha_t

    @pytest.mark.parametrize("reader", [p_at, tau_at])
    def test_t_below_one_is_refused(self, reader):
        with pytest.raises(ValueError, match="t >= 1"):
            reader(advance(None, params_for(0.5)), 0)

    @pytest.mark.parametrize("reader", [p_at, tau_at])
    @pytest.mark.parametrize("which, t", [(0, CHUNK), (0, -1), (1, CHUNK - 1), (1, 2 * CHUNK)])
    def test_t_outside_the_table_is_refused(self, reader, which, t):
        p = params_for(0.5)
        table = advance(None, p)
        for _ in range(which):
            table = advance(table, p)
        match = "t >= 1" if t < 1 else "outside the table"
        with pytest.raises(ValueError, match=match):
            reader(table, t)
