"""Lyapunov values, bound reports, cost prediction, and the alpha selector."""

import math
import re

import numpy as np
import pytest

from katyusha_h.analysis import (
    InadmissibleConstantError,
    InfeasibleAccuracyError,
    accuracy_free_config,
    alpha_hat,
    check_lyapunov_bound,
    feasible_alpha_interval,
    lyapunov,
    predict_ifo,
    select_alpha,
    selector_inequalities,
)
from katyusha_h.optimizers import TraceRecord
from katyusha_h.problems import (
    FiniteSumProblem,
    ReferenceSolution,
    SparseDataset,
    synthesize,
    with_reference,
)
from katyusha_h.schedule import advance, compute_constants


def _weights(t, params):
    """alpha_{t-1} and D_{t-1}, the Lyapunov weights of the state at t < CHUNK."""
    alpha_prev, _, den_prev, _, _ = advance(None, params).rows[t]
    return alpha_prev, den_prev


def _gap(prob, x):
    return prob.value(x) - prob.reference.f_star


def scalar_quadratic_with_reference():
    ds = SparseDataset(
        indptr=[0, 1, 2], indices=[1, 1], values=[1.0, 1.0], labels=np.array([1.0, -1.0]), d=1
    )
    prob = FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")
    prob.reference = ReferenceSolution(
        x_star=np.array([0.0]), f_star=0.5, gap_tolerance=0.0
    )
    return prob


class TestLyapunov:
    def test_zero_at_optimum(self):
        prob = scalar_quadratic_with_reference()
        params = compute_constants(0.0, 1)
        x_star = prob.reference.x_star
        gap = _gap(prob, x_star)
        val = lyapunov(gap, gap, x_star, *_weights(5, params), 0.25, prob)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_initial_value_hand_computed(self):
        # y = w = z = 1, x* = 0, F* = 1/2, eta = 1/4, flat schedule, b=1:
        # 36*0.5 + 12*0.5 + 1/(2*0.25) = 26
        prob = scalar_quadratic_with_reference()
        params = compute_constants(0.0, 1)
        one = np.array([1.0])
        gap = _gap(prob, one)
        val = lyapunov(gap, gap, one, *_weights(0, params), 0.25, prob)
        assert val == pytest.approx(26.0, rel=1e-14)

    def test_start_matches_first_row(self):
        # the t=0 row and the t=1 row weight the same state equally
        prob = scalar_quadratic_with_reference()
        params = compute_constants(0.7, 1)
        one = np.array([1.3])
        gap = _gap(prob, one)
        v0 = lyapunov(gap, gap, one, *_weights(0, params), 0.25, prob)
        v1 = lyapunov(gap, gap, one, *_weights(1, params), 0.25, prob)
        assert v0 == pytest.approx(v1, rel=1e-12)

    def test_requires_reference(self):
        ds = SparseDataset(indptr=[0, 1], indices=[1], values=[1.0], labels=np.array([1.0]), d=1)
        prob = FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")
        params = compute_constants(0.0, 1)
        with pytest.raises(ValueError):
            lyapunov(0.0, 0.0, np.zeros(1), *_weights(0, params), 0.1, prob)

    def test_nonnegative_along_runs(self):
        _, prob = synthesize(8, 3, "least_squares", seed=2)
        with_reference(prob, tol=1e-12)
        params = compute_constants(0.5, 2)
        rng = np.random.default_rng(0)
        for t in (0, 1, 17, 40):
            pt = rng.normal(size=3)
            gap = _gap(prob, pt)
            val = lyapunov(gap, gap, pt, *_weights(t, params), 0.01, prob)
            assert val >= -1e-10


def _trace_with(initial, final):
    first = TraceRecord(0, 0.0, 0.0, math.nan, False, 0, 0, lyapunov=initial)
    last = TraceRecord(5, 0.0, 0.0, 0.5, False, 10, 0, lyapunov=final)
    return [first, last]


class TestBoundReport:
    def test_zero_length_run_is_equality(self):
        traces = [[TraceRecord(0, 0.0, 0.0, math.nan, False, 0, 0, lyapunov=4.0)]] * 30
        report = check_lyapunov_bound(traces)
        assert report.passed and report.mean_final == report.initial

    def test_descending_traces_pass(self):
        rng = np.random.default_rng(1)
        traces = [_trace_with(10.0, 9.0 + 0.1 * rng.random()) for _ in range(40)]
        report = check_lyapunov_bound(traces)
        assert report.passed and report.margin > 0

    def test_ascending_traces_fail(self):
        traces = [_trace_with(10.0, 11.0)] * 40
        report = check_lyapunov_bound(traces)
        assert not report.passed

    def test_statistical_slack(self):
        # mean slightly above initial but within 2 standard errors
        rng = np.random.default_rng(2)
        finals = 10.0 + 0.01 + rng.normal(0, 0.5, size=100)
        traces = [_trace_with(10.0, float(f)) for f in finals]
        report = check_lyapunov_bound(traces)
        se = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
        assert report.std_error == pytest.approx(se)
        assert report.passed == (report.mean_final <= 10.0 + 2 * se * (1 + 1e-12))

    def test_seed_minimum_enforced(self):
        with pytest.raises(ValueError, match="need at least 30 seeds, got 29"):
            check_lyapunov_bound([_trace_with(1.0, 0.5)] * 29)
        assert check_lyapunov_bound([_trace_with(1.0, 0.5)] * 30).n_seeds == 30

    def test_requires_instrumentation(self):
        bare = [TraceRecord(0, 0.0, 0.0, math.nan, False, 0, 0)] * 30
        with pytest.raises(ValueError):
            check_lyapunov_bound([bare[0:1]] * 30)

    @pytest.mark.parametrize("final, verdict", [(9.0, "PASS"), (11.0, "FAIL")])
    def test_text_names_the_numbers_and_verdict(self, final, verdict):
        report = check_lyapunov_bound([_trace_with(10.0, final)] * 30)
        assert str(report) == (
            f"lyapunov-bound | seeds=30 | initial=10 | mean_final={final:g} +- 0 | "
            f"margin={10.0 - final:g} | {verdict}"
        )


class TestPredictIfo:
    def test_flat_regime_order(self):
        cost = predict_ifo(0.0, 1, 10 ** 4, 1e-12)
        assert cost.branch == "small-alpha"
        assert 1e12 <= cost.total < 1e13

    def test_full_acceleration_order(self):
        cost = predict_ifo(1.0, 1, 10 ** 4, 1e-12)
        assert cost.branch == "general"
        assert 1e10 <= cost.total < 1e11
        assert cost.terms["checkpoint_power"] == pytest.approx(1e10, rel=1e-6)

    def test_balanced_regime_order(self):
        cost = predict_ifo(0.5, 1, 10 ** 4, 1e-12)
        assert 1e8 <= cost.total < 1e9

    def test_terms_reported_separately(self):
        cost = predict_ifo(0.5, 2, 100, 1e-6)
        assert set(cost.terms) == {"minibatch", "checkpoint_log", "checkpoint_power"}
        assert cost.terms["minibatch"] == pytest.approx(2 * 1e-6 ** (-1 / 1.5))
        assert cost.terms["checkpoint_log"] == pytest.approx(100 * math.log(1e6))
        assert cost.total == pytest.approx(sum(cost.terms.values()))

    def test_branch_boundary_reports_both(self):
        # the boundary min(alpha_hat, 0.1) is small-alpha, the next double general
        for epsilon in (1e-12, 1e-3, 0.3):
            boundary = min(alpha_hat(epsilon), 0.1)
            small = predict_ifo(boundary, 1, 10 ** 4, epsilon)
            general = predict_ifo(math.nextafter(boundary, 1.0), 1, 10 ** 4, epsilon)
            assert small.branch == "small-alpha" and general.branch == "general"
            for key in ("minibatch", "checkpoint_log"):
                assert small.terms[key] == pytest.approx(general.terms[key], rel=1e-14)
            assert set(general.terms) - set(small.terms) == {"checkpoint_power"}
            assert 0.0 < general.terms["checkpoint_power"] < math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            predict_ifo(0.5, 0, 10, 1e-6)
        with pytest.raises(ValueError):
            predict_ifo(0.5, 1, 10, 2.0)
        with pytest.raises(ValueError):
            predict_ifo(1.5, 1, 10, 1e-6)


class TestAlphaHat:
    def test_value(self):
        assert alpha_hat(1e-12) == pytest.approx(math.log(2) / math.log(10 ** 12), rel=1e-12)
        assert alpha_hat(1e-12) == pytest.approx(0.0250858, abs=1e-6)

    def test_ceiling_matters(self):
        assert alpha_hat(0.3) == pytest.approx(math.log(2) / math.log(4))


class TestInterval:
    def test_reference_case(self):
        iv = feasible_alpha_interval(10 ** 4, 1e-12, 2.0, 2.0)
        assert iv.delta1 == pytest.approx(0.44560, abs=1e-4)
        assert iv.delta2 == pytest.approx(0.55865, abs=1e-4)
        assert iv.alpha_hat == pytest.approx(0.025086, abs=1e-5)
        assert iv.delta1 < 0.5 < iv.delta2
        assert iv.feasible_lo == pytest.approx(iv.delta1)
        assert iv.feasible_hi == pytest.approx(iv.delta2)

    def test_degenerate_near_zero(self):
        # c1 = c2 = 1 and n close to 1/eps collapses the interval to a point near 0
        eps = 1e-6
        n = int((1 / eps) * 0.999)
        iv = feasible_alpha_interval(n, eps, 1.0, 1.0)
        assert 0 < iv.delta2 < 1e-3
        assert iv.delta1 == iv.delta2  # s1 = s2 = 0 makes the endpoints coincide

    def test_strictly_ordered_for_strict_constants(self):
        iv = feasible_alpha_interval(100, 1e-4, 1.5, 1.5)
        assert iv.delta1 < iv.delta2 and iv.delta2 > 0

    def test_infeasible_accuracy(self):
        with pytest.raises(InfeasibleAccuracyError):
            feasible_alpha_interval(10 ** 4, 1e-3, 2.0, 2.0)
        with pytest.raises(InfeasibleAccuracyError):
            feasible_alpha_interval(1000, 1e-3, 2.0, 2.0)  # n = 1/eps exactly

    def test_inadmissible_constant(self):
        with pytest.raises(InadmissibleConstantError):
            feasible_alpha_interval(10, 1e-2, 1.0, 100.0)

    def test_constants_below_one_rejected(self):
        with pytest.raises(ValueError):
            feasible_alpha_interval(10, 1e-3, 0.5, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["c1", "c2"])
    def test_non_finite_constants_rejected(self, which, bad):
        # nan < 1 is False, and c1 = inf makes delta1 nan
        with pytest.raises(ValueError, match="finite"):
            feasible_alpha_interval(100, 1e-4, **{which: bad})
        with pytest.raises(ValueError, match="finite"):
            select_alpha(100, 1e-4, **{which: bad})


class TestSelectAlpha:
    def test_reference_case_midpoint(self):
        alpha = select_alpha(10 ** 4, 1e-12, 2.0, 2.0)
        assert alpha == pytest.approx(0.50213, abs=1e-4)

    def test_output_satisfies_both_inequalities(self):
        for n, eps in ((10 ** 4, 1e-12), (100, 1e-5), (2000, 1e-5), (10, 1e-2)):
            alpha = select_alpha(n, eps, 2.0, 2.0)
            assert 0.0 <= alpha <= 1.0
            first, second = selector_inequalities(alpha, n, eps, 2.0, 2.0)
            assert first >= 0.0 and second >= 0.0
            iv = feasible_alpha_interval(n, eps, 2.0, 2.0)
            assert iv.feasible_lo <= alpha <= iv.feasible_hi

    def test_near_optimal_total_cost(self):
        # at the selected alpha the predicted cost is within
        # (c1 + c2 * max(1/alpha_hat, 10)) of sqrt(n)/sqrt(eps), plus the log term
        for n, eps in ((10 ** 4, 1e-12), (10 ** 3, 1e-9), (50, 1e-4)):
            alpha = select_alpha(n, eps, 2.0, 2.0)
            cost = predict_ifo(alpha, 1, n, eps)
            budget = math.sqrt(n) / math.sqrt(eps)
            factor = 2.0 + 2.0 * max(1.0 / alpha_hat(eps), 10.0)
            assert cost.total <= factor * budget + n * math.log(1 / eps)


class TestAccuracyFreeConfig:
    def test_square_root_batch(self):
        assert accuracy_free_config(10 ** 4) == (1.0, 100)
        assert accuracy_free_config(1) == (1.0, 1)
        assert accuracy_free_config(10) == (1.0, 4)

    def test_epsilon_terms_collapse(self):
        # with b = ceil(sqrt(n)) both epsilon addends are ~ sqrt(n)/sqrt(eps)
        n, eps = 10 ** 4, 1e-8
        alpha, b = accuracy_free_config(n)
        cost = predict_ifo(alpha, b, n, eps)
        budget = math.sqrt(n) / math.sqrt(eps) + n * math.log(1 / eps)
        assert cost.total <= 3.0 * budget
        assert cost.terms["minibatch"] == pytest.approx(b / math.sqrt(eps))
        assert cost.terms["checkpoint_power"] == pytest.approx((n / b) / math.sqrt(eps))


def partial_sum_power(lo: int, hi: int, exponent: float) -> float:
    """sum_{t=lo}^{hi} t**exponent by direct summation (validates integral bounds)."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    t = np.arange(lo, hi + 1, dtype=np.float64)
    return float(np.sum(t ** exponent))


class TestPartialSums:
    def test_power_sum_below_integral_bound(self):
        # sum_{t=17}^{T} t^(a-1) <= integral_16^T u^(a-1) du
        for a in (0.1, 0.5, 0.9):
            for T in (100, 10_000):
                s = partial_sum_power(17, T, a - 1.0)
                integral = (T ** a - 16.0 ** a) / a
                assert s <= integral

    def test_harmonic_sum_below_log_bound(self):
        for T in (100, 10_000):
            s = partial_sum_power(2, T, -1.0)
            assert s <= math.log(T)

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_sum_power(0, 5, 1.0)
        with pytest.raises(ValueError):
            partial_sum_power(5, 4, 1.0)


@pytest.mark.parametrize("call, args, error, message", [
    (check_lyapunov_bound, ([_trace_with(1.0, 0.5)] * 29 + [_trace_with(2.0, 0.5)],),
     ValueError, "seeds disagree on the initial state"),
    (feasible_alpha_interval, (10, 0.0), ValueError, "epsilon must be in (0, 1), got 0.0"),
    (feasible_alpha_interval, (10, 1.0), ValueError, "epsilon must be in (0, 1), got 1.0"),
    (feasible_alpha_interval, (0, 1e-3), ValueError, "n must be positive"),
    # n just below 1/epsilon: log n / log(1/epsilon) rounds to 1, so delta2 = 0 at c2 = 1
    (feasible_alpha_interval, (10 ** 15, 1 / (10 ** 15 + 1), 1.0, 1.0),
     InadmissibleConstantError, "c2=1.0 does not make the upper endpoint positive (delta2=0)"),
    (accuracy_free_config, (0,), ValueError, "n must be positive"),
])
def test_refusals(call, args, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(*args)
