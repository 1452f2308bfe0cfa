"""Scanner behavior: certificates pass on honest parameters, fail on broken ones."""

import copy
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from katyusha_h import schedule, verification
from katyusha_h.analysis import lyapunov
from katyusha_h.estimator import EnumerationCapError
from katyusha_h.optimizers import RunConfig, init_state, katyusha_h_step, lyapunov_weights
from katyusha_h.problems import make_rng, synthesize, with_reference
from katyusha_h.proximal import Regularizer, prox
from katyusha_h.schedule import (
    ALPHA0,
    C_MAX,
    CHUNK,
    GROWTH_START,
    _p_ratio,
    advance,
    alpha_sequence,
    compute_constants,
    denominator_sequence,
    p_at,
    p_sequence,
    tau_at,
)
from katyusha_h.verification import (
    EQ_TOL,
    INEQ_TOL,
    SCAN_BLOCK,
    ClaimResult,
    _normalized_gap,
    check_scan,
    default_alpha_grid,
    exact_conditional_lyapunov_descent,
    scan_denominator_growth,
    scan_schedule,
    verify_variance_bound,
)


class TestAlphaGrid:
    def test_contains_boundaries_and_probes(self):
        grid = default_alpha_grid()
        for v in (0.0, 0.5, 0.75, 1.0, 1e-6, 0.5 - 1e-6, 0.5 + 1e-6, 1 - 1e-6):
            assert np.any(np.isclose(grid, v, atol=1e-12))
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) >= 101

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_refuses_a_step_outside_the_unit_interval(self, step):
        with pytest.raises(ValueError, match="step"):
            default_alpha_grid(step=step)

    @pytest.mark.parametrize("step", [5e-324, 1e-12, 0.5e-6])
    def test_refuses_a_step_below_the_probe_offset_before_any_point(self, step, monkeypatch):
        # at 1e-12 the grid would be a list of 10**12 floats
        def range(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(verification, "range", range, raising=False)
        with pytest.raises(ValueError, match=re.escape(f"must be at least 1e-06, got {step}")):
            default_alpha_grid(step=step)

    def test_whole_interval_step(self):
        grid = default_alpha_grid(step=1.0)
        assert grid[0] == 0.0 and grid[-1] == 1.0


class TestClaimTracker:
    def test_first_strict_minimum_wins(self):
        tracker = ClaimResult("claim", "domain", tolerance=0.0)
        tracker.update(np.array([3.0, 1.0, 1.0]), lambda i: f"first {i}")
        tracker.update(np.array([1.0, 2.0]), lambda i: f"second {i}")
        assert (tracker.min_slack, tracker.worst_at) == (1.0, "first 1")

    def test_nan_is_the_worst_point_and_stays(self):
        tracker = ClaimResult("claim", "domain", tolerance=0.0)
        tracker.update(np.array([2.0, math.nan, -1.0, math.nan]), lambda i: f"first {i}")
        tracker.update(np.array([-5.0]), lambda i: "later smaller")
        tracker.update(np.array([math.nan]), lambda i: "later nan")
        assert math.isnan(tracker.min_slack)
        assert tracker.worst_at == "first 1"
        assert not tracker.passed

    def test_nan_after_a_finite_minimum_takes_over(self):
        tracker = ClaimResult("claim", "domain", tolerance=0.0)
        tracker.update(np.array([-1.0]), lambda i: "finite")
        tracker.update(math.nan, lambda i: "nan")
        assert math.isnan(tracker.min_slack) and tracker.worst_at == "nan"
        assert not tracker.passed

    def test_open_claim_needs_a_positive_slack(self):
        # a closed claim forgives rounding below 0; an open one fails at 0
        for slack, closed, open_ in [(1e-300, True, True), (0.0, True, False),
                                     (-2e-16, True, False), (-1e-8, False, False)]:
            results = []
            for tolerance in (INEQ_TOL, None):
                tracker = ClaimResult("claim", "domain", tolerance=tolerance)
                tracker.update(np.array([1.0, slack]), lambda i: f"point {i}")
                results.append(tracker.passed)
            assert results == [closed, open_], slack

    @pytest.mark.parametrize("tolerance", [INEQ_TOL, 0.0, None])
    def test_a_claim_no_point_tested_fails(self, tolerance):
        claim = ClaimResult("claim", "domain", tolerance=tolerance)
        assert (claim.min_slack, claim.worst_at) == (math.inf, "n/a")
        assert not claim.passed
        claim.update(1.0, lambda i: "point")
        assert claim.passed

    def test_nan_xi_fails_the_scan(self):
        report = scan_schedule(alpha_grid=np.array([0.5]), t_max=100, xi_override=math.nan)
        assert not report.passed
        key = next(c for c in report.claims if c.claim == "key-growth-inequality")
        assert math.isnan(key.min_slack) and key.worst_at == "(alpha=0.5, b=1, t=1)"


class TestScanSchedule:
    def test_passes_on_modest_range(self):
        report = scan_schedule(t_max=2000)
        assert report.passed
        names = {c.claim for c in report.claims}
        assert names == {
            "key-growth-inequality",
            "p-numerator-nonneg",
            "denominator-lower-bound",
            "p-range",
            "coupling-range",
            "c-bound",
            "p-reformulation",
        }

    def test_flat_exponent_alone_passes(self):
        report = scan_schedule(alpha_grid=np.array([0.0]), t_max=500)
        assert report.passed

    def test_fault_injection_fails(self):
        report = scan_schedule(
            alpha_grid=np.array([1.0]), t_max=200, xi_override=2.0
        )
        assert not report.passed
        failing = {c.claim for c in report.claims if not c.passed}
        assert "key-growth-inequality" in failing

    def test_c_above_the_cap_fails_the_c_bound_claim(self, monkeypatch):
        # the coefficient that makes compute_constants refuse (test_schedule's
        # cap breach): the scans record c instead of raising
        monkeypatch.setattr(schedule, "growth_coefficient", lambda alpha: 1.01 / 17.0 ** alpha)
        report = scan_schedule(alpha_grid=default_alpha_grid(0.5), t_max=100)
        bound = next(c for c in report.claims if c.claim == "c-bound")
        assert not bound.passed and not report.passed
        assert bound.min_slack == (C_MAX - 101.99999999999991) / C_MAX
        assert bound.worst_at == "(alpha=0, b=1)"
        assert len(scan_denominator_growth(1.0, t_max=100).claims) == 2

    def test_fault_magnitude_hand_checked(self):
        # xi=2, alpha=1, t=100: growth side 2*((25.25)^2-25^2) = (2t+1)/8,
        # numerator side (2t+1)/16; violation is exactly their gap.
        lhs = 2.0 * (25.25 ** 2 - 25.0 ** 2)
        rhs = 24.75 ** 2 - 25.0 ** 2 + 25.0
        assert lhs == pytest.approx(201 / 8)
        assert rhs == pytest.approx(201 / 16)
        report = scan_schedule(alpha_grid=np.array([1.0]), t_max=100, xi_override=2.0)
        claim = next(c for c in report.claims if c.claim == "key-growth-inequality")
        expected_slack = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
        assert claim.min_slack <= expected_slack + 1e-12

    def test_survives_momentum_dip_at_growth_start(self):
        # alpha_17 < alpha_16 = 6 for large exponents; the scan range covers it
        report = scan_schedule(alpha_grid=np.array([0.9, 1.0]), t_max=40)
        assert report.passed

    def test_reproducible_bit_for_bit(self):
        a = scan_schedule(t_max=300).to_text()
        b = scan_schedule(t_max=300).to_text()
        assert a == b

    def test_t_max_validation(self):
        with pytest.raises(ValueError):
            scan_schedule(t_max=10)

    @pytest.mark.parametrize(
        "t_max, batch_sizes, message",
        [
            (17, (1,), "t_max must be at least 18, got 17"),
            (10_000_001, (1,), "t_max above 1e7"),
            (100, (), "batch_sizes must not be empty"),
            (100, (2, 0), "batch_sizes must be at least 1, got 0"),
        ],
    )
    def test_range_rules_name_the_argument(self, t_max, batch_sizes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_scan(t_max, batch_sizes)
        with pytest.raises(ValueError, match=re.escape(message)):
            scan_schedule(alpha_grid=np.array([0.5]), t_max=t_max, batch_sizes=batch_sizes)

    def test_empty_alpha_grid_fails_every_claim(self):
        report = scan_schedule(alpha_grid=np.array([]), t_max=100)
        assert len(report.claims) == 7 and not any(c.passed for c in report.claims)
        assert report.to_text().endswith("overall: FAIL (7 claims)\n")

    def test_report_serialization_shape(self):
        report = scan_schedule(alpha_grid=np.array([0.5]), t_max=100)
        lines = report.to_text().strip().splitlines()
        assert len(lines) == len(report.claims) + 1
        for line, claim in zip(lines, report.claims):
            assert line.startswith(claim.claim)
            assert "min_slack=" in line and ("PASS" in line or "FAIL" in line)
        assert lines[-1].startswith("overall: PASS")


def _gap(lhs, rhs):
    """Slack of 'lhs <= rhs' scaled by max(1, |lhs|, |rhs|)."""
    return (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _oracle_scan(alpha_grid, t_max, batch_sizes, xi_override):
    """The scan as one full-length pass per (alpha, b) cell, with every array
    recomputed for each cell and alpha_t, D_t and p_t written out from the
    paper: {claim: (min_slack, worst_at)}."""
    names = [
        "key-growth-inequality",
        "p-numerator-nonneg",
        "denominator-lower-bound",
        "p-range",
        "coupling-range",
        "c-bound",
    ]
    trackers = {name: ClaimResult(name, "oracle", tolerance=INEQ_TOL) for name in names}
    trackers["p-reformulation"] = ClaimResult("p-reformulation", "oracle", tolerance=0.0)
    for alpha in alpha_grid:
        for b in batch_sizes:
            params = compute_constants(float(alpha), b)
            if xi_override is not None:
                params = replace(params, xi=xi_override)
            xi = params.xi
            # alpha_t = alpha_0 for t < 17, then a_alpha * t^alpha, t = 0..t_max+1
            t = np.arange(t_max + 2, dtype=np.float64)
            seq = np.where(t < GROWTH_START, ALPHA0, params.a_alpha * t ** params.alpha)
            a_prev = seq[:-2]
            a_t = seq[1:-1]
            a_next = seq[2:]
            # D_t = alpha_tilde0 + alpha_0^2 - alpha_t^2 + sum_{j<=t} alpha_j, t = 0..t_max,
            # with alpha_tilde0 = 36 xi
            alpha_sums = np.concatenate(([0.0], np.cumsum(a_t)))
            den = 36.0 * xi + ALPHA0 ** 2 - seq[:-1] ** 2 + alpha_sums

            def here(i, alpha=alpha, b=b):
                return f"(alpha={alpha:.6g}, b={b}, t={i + 1})"

            numer_core = a_prev ** 2 - a_t ** 2 + a_t
            lhs_key = xi * (a_next ** 2 - a_t ** 2)
            trackers["key-growth-inequality"].update(_gap(lhs_key, numer_core), here)
            trackers["p-numerator-nonneg"].update(
                _gap(np.zeros_like(numer_core), numer_core), here
            )
            xi_at2 = xi * a_t ** 2
            trackers["denominator-lower-bound"].update(
                np.minimum(_gap(xi_at2, den[:-1]), _gap(np.zeros_like(xi_at2), xi_at2)),
                here,
            )
            # p_t = (alpha_{t-1}^2 - alpha_t^2 + alpha_t + xi*alpha_t^2) / D_t
            p = (a_prev ** 2 - a_t ** 2 + a_t + xi * a_t ** 2) / den[1:]
            trackers["p-range"].update(np.minimum(p, 1.0 - p), here)
            tau = 1.0 / a_t
            coupling = np.minimum.reduce([tau, 1.0 - tau, 1.0 - xi - tau])
            coupling = np.minimum(coupling, min(xi, 1.0 - xi))
            trackers["coupling-range"].update(coupling, here)
            trackers["c-bound"].update(
                (C_MAX - params.c) / C_MAX,
                lambda i, alpha=alpha, b=b: f"(alpha={alpha:.6g}, b={b})",
            )
            p_alt = (numer_core + xi_at2) / (numer_core + den[:-1])
            trackers["p-reformulation"].update(EQ_TOL - np.abs(p - p_alt), here)
    return {name: (repr(t.min_slack), t.worst_at) for name, t in trackers.items()}


def _claims(report):
    return {c.claim: (repr(c.min_slack), c.worst_at) for c in report.claims}


# every bucket of a_alpha, its boundaries and the probes around them
ORACLE_GRID = default_alpha_grid(step=0.25)


class TestBlockedScan:
    """The block walk against the full-length oracle: every claim's slack and
    worst point equal, also at and around block boundaries."""

    @pytest.mark.parametrize("batch_sizes", [(1, 2, 10), (3,), (10, 1)], ids=str)
    @pytest.mark.parametrize("xi_override", [None, 2.0, 0.3, 0.0, math.nan], ids=str)
    @pytest.mark.parametrize(
        "t_max",
        [18, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 17],
    )
    def test_matches_the_full_length_oracle(self, t_max, xi_override, batch_sizes):
        report = scan_schedule(
            alpha_grid=ORACLE_GRID, t_max=t_max, batch_sizes=batch_sizes,
            xi_override=xi_override,
        )
        assert _claims(report) == _oracle_scan(ORACLE_GRID, t_max, batch_sizes, xi_override)

    @pytest.mark.parametrize("batch_sizes", [(2, 1), (1, 2)], ids=str)
    def test_ties_keep_the_first_point_visited(self, batch_sizes):
        # The p numerator does not depend on b, and at alpha = 0 its slack is
        # 1 at every t: every b and every block ties with the first point.
        t_max = 2 * SCAN_BLOCK + 17
        report = scan_schedule(
            alpha_grid=np.array([0.0, 1.0]), t_max=t_max, batch_sizes=batch_sizes
        )
        claim = next(c for c in report.claims if c.claim == "p-numerator-nonneg")
        assert claim.min_slack == 1.0
        assert claim.worst_at == f"(alpha=0, b={batch_sizes[0]}, t=1)"
        oracle = _oracle_scan(np.array([0.0, 1.0]), t_max, batch_sizes, None)
        assert _claims(report) == oracle

    def test_cells_are_visited_in_alpha_b_t_order(self, monkeypatch):
        seen = {}
        update = ClaimResult.update

        def spy(self, slack, where):
            seen.setdefault(id(self), []).append(where(0))
            update(self, slack, where)

        monkeypatch.setattr(ClaimResult, "update", spy)
        grid, batch_sizes = np.array([0.25, 0.0, 1.0]), (10, 1, 2)
        scan_schedule(alpha_grid=grid, t_max=2 * SCAN_BLOCK + 17, batch_sizes=batch_sizes)
        alphas = [f"{a:.6g}" for a in grid]
        pattern = re.compile(r"\(alpha=([^,]+), b=(\d+)(?:, t=(\d+))?\)")
        for points in seen.values():
            keys = []
            for text in points:
                alpha, b, t = pattern.fullmatch(text).groups()
                keys.append((alphas.index(alpha), batch_sizes.index(int(b)), int(t or 0)))
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("xi_override, cells", [(None, 3), (2.0, 1)], ids=str)
    def test_scans_each_distinct_xi_once(self, monkeypatch, xi_override, cells):
        # every claim a cell holds sees b only through xi: the override gives
        # each b the same xi, so the first b's cell serves all three
        calls = []
        monkeypatch.setattr(
            verification, "_p_ratio",
            lambda *args, **kwargs: calls.append(args) or _p_ratio(*args, **kwargs),
        )
        grid, blocks = np.array([0.0, 0.5, 1.0]), 3
        report = scan_schedule(alpha_grid=grid, t_max=2 * SCAN_BLOCK + 17,
                               batch_sizes=(1, 2, 10), xi_override=xi_override)
        assert len(calls) == cells * len(grid) * blocks
        if cells == 1:  # every worst point is the first b's
            for claim in report.claims:
                assert claim.claim == "c-bound" or ", b=1, " in claim.worst_at, claim

    def test_walks_alpha_sequence_a_block_at_a_time(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            verification, "alpha_sequence",
            lambda *args: calls.append(args) or alpha_sequence(*args),
        )
        grid, t_max = np.array([0.0, 0.5, 1.0]), 2 * SCAN_BLOCK + 17
        scan_schedule(alpha_grid=grid, t_max=t_max)
        assert len(calls) == 9  # one per (alpha, block)
        for k, alpha in enumerate(grid):
            blocks = calls[3 * k:3 * k + 3]
            assert all(params.alpha == alpha for _, params, _ in blocks)
            # alpha_s .. alpha_{e+1} for t = s+1 .. e: each block starts two
            # entries before the last one ends, and they span alpha_0 .. alpha_{t_max+1}
            assert blocks[0][2] == 0 and blocks[-1][0] == t_max + 1
            for (stop, _, _), (_, _, start) in zip(blocks, blocks[1:]):
                assert start == stop - 1

    def test_peak_memory_does_not_grow_with_t(self):
        # every array spans one block: the buffers, a block of alpha_t and
        # the temporaries of its making
        tracemalloc.start()
        try:
            scan_schedule(alpha_grid=np.array([0.5]), t_max=2 ** 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 24 * SCAN_BLOCK


def _oracle_growth(alpha, t_max, batch_size):
    """The growth scan as one full-length pass over t = 0..t_max:
    {claim: (min_slack, worst_at)}."""
    params = compute_constants(alpha, batch_size)
    a_tilde = 1.0 / 16.0 if alpha == 1.0 else params.a_alpha / (2.0 * alpha + 2.0)
    seq = alpha_sequence(t_max, params)
    den = denominator_sequence(seq, params)
    t = np.arange(t_max + 1, dtype=np.float64)
    growth = a_tilde * t ** (alpha + 1.0)

    tail = ClaimResult("denominator-growth", "oracle", tolerance=INEQ_TOL)
    tail.update(
        _normalized_gap(growth[GROWTH_START:], den[GROWTH_START:]),
        lambda i: f"(alpha={alpha:.6g}, t={i + GROWTH_START})",
    )
    head = ClaimResult("denominator-early-ratio", "oracle", tolerance=0.0)
    ratios = den[1:GROWTH_START] / t[1:GROWTH_START] ** (alpha + 1.0)
    head.update(ratios, lambda i: f"(alpha={alpha:.6g}, t={i + 1})")
    return {
        "denominator-growth": (repr(tail.min_slack), tail.worst_at),
        "denominator-early-ratio": (repr(head.min_slack), head.worst_at),
    }


class TestDenominatorGrowth:
    def test_full_acceleration(self):
        report = scan_denominator_growth(1.0, t_max=2000)
        assert report.passed

    def test_spot_value(self):
        # alpha=1, t=1000: the certified floor is t^2/16 = 62500
        params = compute_constants(1.0, 1)
        _, _, _, d, _ = advance(None, params).rows[1000]
        assert d >= 62500.0

    def test_midrange_exponent(self):
        report = scan_denominator_growth(0.5, t_max=100_000)
        assert report.passed

    def test_flat_exponent_excluded(self):
        with pytest.raises(ValueError):
            scan_denominator_growth(0.0)

    def test_t_max_below_growth_start_refused(self):
        with pytest.raises(ValueError, match=f"t_max must be >= {GROWTH_START}"):
            scan_denominator_growth(0.5, t_max=GROWTH_START - 1)

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.6, 1.0])
    @pytest.mark.parametrize(
        "t_max",
        [GROWTH_START, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
         2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK, 2 * SCAN_BLOCK + 17],
    )
    def test_blocks_match_the_full_length_oracle(self, t_max, alpha, batch_size):
        report = scan_denominator_growth(alpha, t_max=t_max, batch_size=batch_size)
        assert _claims(report) == _oracle_growth(alpha, t_max, batch_size)

    def test_peak_memory_does_not_grow_with_t(self):
        t_max = 2 ** 20
        tracemalloc.start()
        try:
            scan_denominator_growth(0.5, t_max=t_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * t_max

    def test_early_ratio_reported_positive(self):
        report = scan_denominator_growth(0.8, t_max=100)
        early = next(c for c in report.claims if c.claim == "denominator-early-ratio")
        assert early.min_slack > 0.0


def small_lasso_state(alpha=0.5, b=2, seed=0, reg_weight=0.05):
    _, prob = synthesize(6, 4, "least_squares", seed=3, reg=Regularizer.l1(reg_weight))
    with_reference(prob, tol=1e-12)
    cfg = RunConfig(alpha=alpha, batch_size=b, iterations=1, seed=seed)
    return prob, init_state(prob, cfg)


def _full_batch_descent(state, prob, alpha_t, den_t, p):
    """E[L_{t+1} | state] for b = n, scripted from alpha_t, D_t and p_t."""
    ref, xi, eta = prob.reference, state.params.xi, state.eta
    tau = 1.0 / alpha_t
    x_next = tau * state.z + xi * state.ckpt.w + (1 - xi - tau) * state.y
    g = prob.full_grad(x_next)
    z_next = prox(prob.reg, state.z - alpha_t * eta * g, alpha_t * eta)
    y_next = x_next + tau * (z_next - state.z)
    dz = z_next - ref.x_star
    fixed = alpha_t ** 2 * (prob.value(y_next) - ref.f_star) + float(dz @ dz) / (2 * eta)
    return fixed + den_t * (
        (1 - p) * (prob.value(state.ckpt.w) - ref.f_star) + p * (prob.value(state.y) - ref.f_star)
    )


class TestConditionalDescent:
    def test_descent_along_short_run(self):
        prob, state = small_lasso_state()
        for _ in range(60):
            expected, current = exact_conditional_lyapunov_descent(state, prob)
            assert expected <= current + 1e-10 * max(1.0, current)
            katyusha_h_step(state, prob)

    def test_full_batch_two_branch_expectation(self):
        # b = n: a single subset, so the expectation is the p-weighted mix of
        # the two checkpoint outcomes; verify against a scripted computation.
        _, prob = synthesize(5, 3, "least_squares", seed=4, reg=Regularizer.l1(0.03))
        with_reference(prob, tol=1e-12)
        cfg = RunConfig(alpha=1.0, batch_size=5, iterations=1, seed=1)
        state = init_state(prob, cfg)
        for _ in range(3):
            katyusha_h_step(state, prob)
        expected, current = exact_conditional_lyapunov_descent(state, prob)

        _, alpha_t, _, den_t, _ = state.table.rows[state.t - state.table.start]
        assert tau_at(state.table, state.t) == 1.0 / alpha_t
        p = p_at(state.table, state.t)
        assert expected == pytest.approx(_full_batch_descent(state, prob, alpha_t, den_t, p),
                                         rel=1e-12)
        assert expected <= current + 1e-10 * max(1.0, current)

    def test_at_optimum_both_zero(self):
        prob, state = small_lasso_state()
        x_star = prob.reference.x_star
        state.y = x_star.copy()
        state.z = x_star.copy()
        state.ckpt.w = x_star.copy()
        state.ckpt.full_grad = prob.full_grad(x_star)
        expected, current = exact_conditional_lyapunov_descent(state, prob)
        # at a lasso optimum the prox step reproduces x*, so nothing moves
        assert current == pytest.approx(0.0, abs=1e-10)
        assert expected == pytest.approx(0.0, abs=1e-10)

    def test_enumeration_cap(self):
        _, prob = synthesize(30, 3, "least_squares", seed=5)
        with_reference(prob, tol=1e-10)
        cfg = RunConfig(alpha=0.5, batch_size=15, iterations=1, seed=1)
        state = init_state(prob, cfg)
        with pytest.raises(EnumerationCapError):
            exact_conditional_lyapunov_descent(state, prob)

    def test_requires_reference(self):
        _, prob = synthesize(5, 3, "least_squares", seed=4)
        cfg = RunConfig(alpha=0.5, batch_size=2, iterations=1, seed=1)
        state = init_state(prob, cfg)
        with pytest.raises(ValueError):
            exact_conditional_lyapunov_descent(state, prob)


class TestReadsTheCertifiedArrays:
    """At the last index of a table and the first two of the next, the
    oracle and the Lyapunov record read alpha_t, D_t and the clipped p_t of
    the arrays the scans certify."""

    @pytest.mark.parametrize("t", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_at_a_table_boundary(self, t):
        prob, state = small_lasso_state(b=6)  # b = n: one subset
        for _ in range(3):
            katyusha_h_step(state, prob)
        table = advance(None, state.params)
        if t >= CHUNK:
            table = advance(table, state.params)
        state.t, state.table = t, table
        seq = alpha_sequence(t, state.params)
        den = denominator_sequence(seq, state.params)
        p = np.clip(p_sequence(seq, state.params), 0.0, 1.0)[t - 1]
        f_star = prob.reference.f_star
        f_y, f_w = prob.value(state.y), prob.value(state.ckpt.w)
        current = lyapunov(f_y - f_star, f_w - f_star, state.z, seq[t - 1], den[t - 1],
                           state.eta, prob)
        assert lyapunov_weights(state) == (seq[t - 1], den[t - 1])

        expected, oracle_current = exact_conditional_lyapunov_descent(state, prob)
        assert oracle_current == current
        assert expected == pytest.approx(_full_batch_descent(state, prob, seq[t], den[t], p),
                                         rel=1e-12)


class _ForcedDraw:
    """Stub draw stream for a full batch, whose subset is all of range(n):
    every coin is ``value``, which forces one checkpoint outcome."""

    def __init__(self, value: float, n: int):
        self.value = value
        self.n = self.b = n

    def next(self) -> float:
        return self.value


class TestOutcomeTree:
    def test_full_batch_outcome_tree_bound(self):
        # b = n removes subset randomness, so the only branching is the
        # checkpoint draw.  Enumerate the full outcome tree: conditional
        # descent must hold at every node, and the exact path-weighted mean
        # of the final bound quantity must not exceed the initial value.
        _, prob = synthesize(4, 2, "least_squares", seed=13, reg=Regularizer.l1(0.02))
        with_reference(prob, tol=1e-13)
        depth = 8
        root = init_state(prob, RunConfig(alpha=1.0, batch_size=4, iterations=1, seed=0))
        def value(state):
            f_star = prob.reference.f_star
            return lyapunov(prob.value(state.y) - f_star, prob.value(state.ckpt.w) - f_star,
                            state.z, *lyapunov_weights(state), state.eta, prob)

        initial = value(root)
        level = [(root, 1.0)]
        for _ in range(depth):
            nxt = []
            for state, weight in level:
                expected, current = exact_conditional_lyapunov_descent(state, prob)
                assert expected <= current + 1e-10 * max(1.0, current)
                p = p_at(state.table, state.t)
                for outcome, branch in ((True, p), (False, 1.0 - p)):
                    if branch == 0.0:
                        continue
                    child = copy.deepcopy(state)
                    child.rng = _ForcedDraw(0.0 if outcome else 1.0, prob.n)
                    katyusha_h_step(child, prob)
                    nxt.append((child, weight * branch))
            level = nxt
        weights = np.array([w for _, w in level])
        values = np.array([value(s) for s, _ in level])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        mean_final = float(weights @ values)
        assert mean_final <= initial * (1.0 + 1e-10)

    @pytest.mark.parametrize("b", [1, 3])
    def test_descent_across_batch_sizes(self, b):
        prob, state = small_lasso_state(alpha=1.0, b=b, seed=2)
        for _ in range(30):
            expected, current = exact_conditional_lyapunov_descent(state, prob)
            assert expected <= current + 1e-10 * max(1.0, current)
            katyusha_h_step(state, prob)


class TestVarianceBoundReport:
    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_random_pairs_pass(self, family):
        _, prob = synthesize(6, 3, family, seed=6)
        rng = make_rng(12)
        points = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(10)]
        report = verify_variance_bound(prob, points, (1, 2, 3))
        assert report.passed
        names = {c.claim for c in report.claims}
        assert names == {"variance-bound", "subset-sum-identity"}

    def test_walks_each_point_and_batch_size_once(self, monkeypatch):
        _, prob = synthesize(6, 3, "least_squares", seed=6)
        rng = make_rng(12)
        points = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
        b_values = (1, 2, 3)
        tables, subsets = [], []

        class Rows(np.ndarray):
            """A gradient matrix that records every subset read from it."""

            def __getitem__(self, key):
                if isinstance(key, list):
                    subsets.append(tuple(key))
                return super().__getitem__(key)

        matrix = prob.component_grad_matrix
        monkeypatch.setattr(
            prob, "component_grad_matrix", lambda x: tables.append(x) or matrix(x).view(Rows)
        )
        verify_variance_bound(prob, points, b_values)
        # one difference table per (point, b): gradient matrices at x and at w
        assert len(tables) == 2 * len(points) * len(b_values)
        walk = [s for b in b_values for s in itertools.combinations(range(6), b)]
        assert subsets == walk * len(points)

    @pytest.mark.parametrize("points, b_values", [(0, (1,)), (2, ())], ids=["no-points", "no-b"])
    def test_nothing_tested_fails(self, points, b_values):
        _, prob = synthesize(6, 3, "least_squares", seed=6)
        rng = make_rng(12)
        pairs = [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(points)]
        report = verify_variance_bound(prob, pairs, b_values)
        assert [c.passed for c in report.claims] == [False, False] and not report.passed

    def test_identical_points_trivial(self):
        _, prob = synthesize(6, 3, "least_squares", seed=6)
        x = make_rng(1).standard_normal(3)
        report = verify_variance_bound(prob, [(x, x.copy())], (1, 3, 6))
        assert report.passed
