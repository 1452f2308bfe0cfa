"""Solver iteration semantics, hand-traced updates, and baseline behavior."""

import collections
import copy
import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import katyusha_h
from katyusha_h import estimator, optimizers, problems, schedule, verification
from katyusha_h.estimator import sample_subset
from katyusha_h.optimizers import (
    RunConfig,
    TraceRecord,
    fista_run,
    init_state,
    katyusha_h_step,
    run,
)
from katyusha_h.problems import (
    FiniteSumProblem,
    SparseDataset,
    make_rng,
    synthesize,
    with_reference,
)
from katyusha_h.proximal import Regularizer
from katyusha_h.schedule import (
    CHUNK,
    advance,
    alpha_sequence,
    compute_constants,
    denominator_sequence,
    p_sequence,
    step_size,
)


def alpha_now(state):
    """alpha_t of the state's next iteration, from its table row."""
    return state.table.rows[state.t - state.table.start][1]


def scalar_quadratic_problem():
    ds = SparseDataset(
        indptr=[0, 1, 2], indices=[1, 1], values=[1.0, 1.0], labels=np.array([1.0, -1.0]), d=1
    )
    return FiniteSumProblem(ds.to_dense(), ds.labels, "least_squares")


class TestHandTrace:
    def test_first_iteration_full_batch(self):
        # Scripted outside the solver: b = n makes the estimator the exact
        # full gradient, so every update line is explicit arithmetic.
        prob = scalar_quadratic_problem()
        x1 = 1.7
        cfg = RunConfig(alpha=1.0, batch_size=2, iterations=1, seed=0, x0=np.array([x1]))
        state = init_state(prob, cfg)
        eta = state.eta
        assert eta == pytest.approx(0.25)  # L = 1, c = 3
        xi, tau, alpha_t = state.params.xi, 1.0 / 6.0, 6.0
        assert xi == pytest.approx(1.0 / 6.0)  # b = 2 halves xi

        katyusha_h_step(state, prob)

        x2 = tau * x1 + xi * x1 + (1 - xi - tau) * x1  # = x1
        g = x2  # full gradient of (x^2+1)/2
        z2 = x1 - alpha_t * eta * g
        y2 = x2 + tau * (z2 - x1)
        assert state.x[0] == pytest.approx(x2, abs=1e-14)
        assert state.z[0] == pytest.approx(z2, abs=1e-14)
        assert state.y[0] == pytest.approx(y2, abs=1e-14)
        # p_1 = 1 forces the checkpoint draw; candidate was y_1 = w_1
        assert np.array_equal(state.ckpt.w, np.array([x1]))
        assert state.ledger.checkpoint_calls == 2  # initial full gradient only
        assert state.ledger.minibatch_calls == 4  # 2b

    def test_first_iteration_is_fixed_point_of_coupling(self):
        _, prob = synthesize(5, 3, "least_squares", seed=2)
        cfg = RunConfig(alpha=0.5, batch_size=1, iterations=1, seed=3, x0=np.ones(3))
        state = init_state(prob, cfg)
        katyusha_h_step(state, prob)
        np.testing.assert_allclose(state.x, np.ones(3), rtol=1e-14)


class TestStepInvariants:
    def test_momentum_identity_exact(self):
        _, prob = synthesize(6, 4, "least_squares", seed=9, reg=Regularizer.l1(0.02))
        cfg = RunConfig(alpha=0.7, batch_size=2, iterations=1, seed=4)
        state = init_state(prob, cfg)
        for _ in range(60):
            z_before = state.z.copy()
            tau = 1.0 / alpha_now(state)
            katyusha_h_step(state, prob)
            # y = x + tau*(z_new - z_old) by construction; recovering the
            # difference re-rounds once, so allow a couple of ulps
            lhs = state.y - state.x
            rhs = tau * (state.z - z_before)
            scale = np.maximum(np.abs(state.x), np.abs(rhs)) + 1e-300
            assert np.all(np.abs(lhs - rhs) <= 4e-16 * scale)

    def test_zero_reg_z_is_linear_update(self):
        _, prob = synthesize(6, 3, "least_squares", seed=9)
        cfg = RunConfig(alpha=0.0, batch_size=6, iterations=1, seed=4, x0=np.ones(3))
        state = init_state(prob, cfg)
        z0 = state.z.copy()
        step_len = alpha_now(state) * state.eta
        g = prob.full_grad(np.ones(3))  # coupling fixes x_2 = x_1 here
        katyusha_h_step(state, prob)
        np.testing.assert_allclose(state.z, z0 - step_len * g, rtol=1e-14)

    def test_coupling_weights_sum_to_one(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        cfg = RunConfig(alpha=1.0, batch_size=1, iterations=1, seed=0)
        state = init_state(prob, cfg)
        for _ in range(40):
            tau = 1.0 / alpha_now(state)
            xi = state.params.xi
            assert 0.0 < tau < 1.0 and 0.0 < xi < 1.0 and 0.0 < 1 - tau - xi < 1.0
            katyusha_h_step(state, prob)

    def test_eta_is_no_run_config_field(self):
        # the step size is no setting: every run steps at step_size's value
        with pytest.raises(TypeError, match="eta"):
            RunConfig(eta=0.1)

    def test_default_eta_is_largest_allowable(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        state = init_state(prob, RunConfig(alpha=1.0, batch_size=1, iterations=1))
        assert state.eta == pytest.approx(step_size(prob.L, state.params))


class TestScheduleRows:
    """A step reads its schedule row from the state's table, and the state
    calls ``advance`` for the next table once per CHUNK iterations."""

    @staticmethod
    def _state():
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        return prob, init_state(prob, RunConfig(alpha=0.5, batch_size=1, iterations=1, seed=0))

    @staticmethod
    def _rows(params, t_max):
        """Entry t holds (alpha_{t-1}, alpha_t, D_{t-1}, D_t, p_t) for
        t = 1..t_max, read from the certified arrays built once."""
        seq = alpha_sequence(t_max, params)
        den = denominator_sequence(seq, params)
        p = np.clip(p_sequence(seq, params), 0.0, 1.0)
        a, d = seq.tolist(), den.tolist()
        return [None, *zip(a[:-1], a[1:], d[:-1], d[1:], p.tolist())]

    @staticmethod
    def _tables(params, count):
        tables = [advance(None, params)]
        while len(tables) < count:
            tables.append(advance(tables[-1], params))
        return tables

    @staticmethod
    def _check(state, rows, tables):
        table = state.table
        assert table.rows[state.t - table.start] == rows[state.t]
        if state.t == table.start:  # a new table: all of it, and its carried sum
            assert table == tables[state.t // CHUNK]

    def test_rows_equal_the_certified_arrays_across_tables(self):
        prob, state = self._state()
        steps = 3 * CHUNK + 5
        rows, tables = self._rows(state.params, steps + 1), self._tables(state.params, 4)
        starts = set()
        for _ in range(steps):
            katyusha_h_step(state, prob)
            self._check(state, rows, tables)
            starts.add(state.table.start)
        assert starts == {0, CHUNK, 2 * CHUNK, 3 * CHUNK}

    def test_deepcopy_mid_chunk_steps_on_its_own(self):
        # the descent oracle's children are deep copies taken mid-chunk
        prob, state = self._state()
        rows, tables = self._rows(state.params, 2 * CHUNK), self._tables(state.params, 2)
        for _ in range(CHUNK // 2):
            katyusha_h_step(state, prob)
        child = copy.deepcopy(state)
        assert child.table is state.table  # never mutated, so shared
        for _ in range(CHUNK):  # the child crosses into the next table; the parent stays
            katyusha_h_step(child, prob)
            self._check(child, rows, tables)
        assert state.t == CHUNK // 2 + 1 and state.table == tables[0]
        for _ in range(CHUNK):
            katyusha_h_step(state, prob)
        assert state.t == child.t and state.table == child.table
        assert state.y.tobytes() == child.y.tobytes()

    def test_a_run_reads_rows_without_the_scalar_schedule(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module in (schedule, optimizers, verification, katyusha_h):
            for name in ("advance", "tau_at", "p_at"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        with_reference(prob, tol=1e-12)
        iterations = 3 * CHUNK + 5
        config = RunConfig(alpha=0.5, batch_size=1, iterations=iterations,
                           seed=0, record_every=CHUNK, lyapunov=True)
        optimizers._first_table.cache_clear()
        records = run(prob, config)
        assert records[-1].t == iterations and math.isfinite(records[-1].lyapunov)
        # one table per chunk that t visits: [0, CHUNK) .. [3*CHUNK, 4*CHUNK)
        assert dict(calls) == {"advance": 4}
        assert repr(run(prob, config)) == repr(records)
        assert dict(calls) == {"advance": 4 + 3}  # the first table is not built again


class TestFirstTable:
    """A run takes its first schedule table from a cache keyed by the
    schedule's params, which holds at most ``FIRST_TABLES`` of them."""

    def test_same_params_share_the_first_table(self):
        _, prob = synthesize(20, 3, "least_squares", seed=2, reg=Regularizer.l1(0.01))
        config = RunConfig(alpha=0.75, batch_size=2, iterations=300, seed=5, record_every=7)
        optimizers._first_table.cache_clear()
        cold = run(prob, config)
        first, second = init_state(prob, config), init_state(prob, config)
        assert first.table is second.table
        assert init_state(prob, RunConfig(alpha=0.5, batch_size=2)).table is not first.table
        for _ in range(2):  # from the cached table
            assert repr(run(prob, config)) == repr(cold)
        assert optimizers._first_table.cache_info().maxsize == optimizers.FIRST_TABLES


class TestStepWeights:
    """The 0-d arrays that carry tau_t, 1 - xi - tau_t and alpha_t * eta into
    the step's ufuncs belong to one state."""

    @staticmethod
    def _trail(state, prob, steps):
        """The state after each of ``steps`` steps, as bytes and scalars."""
        out = []
        for _ in range(steps):
            katyusha_h_step(state, prob)
            out.append(_snapshot(state))
        return out

    def test_alternating_states_step_as_if_alone(self):
        _, prob = synthesize(40, 5, "logistic", seed=3, reg=Regularizer.elastic_net(0.01, 0.02))
        configs = [RunConfig(alpha=0.25, batch_size=3, seed=1),
                   RunConfig(alpha=1.0, batch_size=1, seed=2)]
        solo = [self._trail(init_state(prob, c), prob, 200) for c in configs]
        states = [init_state(prob, c) for c in configs]
        assert all(a is not b for a, b in zip(states[0].weights, states[1].weights))
        together = [[], []]
        for _ in range(200):
            for state, trail in zip(states, together):
                katyusha_h_step(state, prob)
                trail.append(_snapshot(state))
        assert together == solo

    def test_deepcopy_steps_alongside_its_original(self):
        _, prob = synthesize(40, 5, "least_squares", seed=3, reg=Regularizer.l1(0.02))
        state = init_state(prob, RunConfig(alpha=0.5, batch_size=2, seed=4))
        self._trail(state, prob, 10)
        child = copy.deepcopy(state)
        assert all(c is not s for c, s in zip(child.weights, state.weights))
        for _ in range(100):
            katyusha_h_step(state, prob)
            katyusha_h_step(child, prob)
            assert _snapshot(child) == _snapshot(state)


def _snapshot(state):
    return (state.t, state.x.tobytes(), state.y.tobytes(), state.z.tobytes(),
            state.ckpt.w.tobytes(), state.p, state.checkpoint_updated,
            state.ledger.minibatch_calls, state.ledger.checkpoint_calls)


class TestRun:
    def test_zero_iterations_single_record(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        records = run(prob, RunConfig(alpha=0.5, batch_size=1, iterations=0, seed=0))
        assert len(records) == 1
        assert records[0].t == 0
        assert records[0].ifo_total == prob.n

    def test_deterministic_given_seed(self):
        _, prob = synthesize(8, 3, "least_squares", seed=2, reg=Regularizer.l1(0.01))
        a = run(prob, RunConfig(alpha=0.5, batch_size=2, iterations=40, seed=11))
        b = run(prob, RunConfig(alpha=0.5, batch_size=2, iterations=40, seed=11))
        assert [r.f_w for r in a] == [r.f_w for r in b]
        assert [r.ifo_total for r in a] == [r.ifo_total for r in b]
        c = run(prob, RunConfig(alpha=0.5, batch_size=2, iterations=40, seed=12))
        assert [r.f_w for r in a] != [r.f_w for r in c]

    def test_record_count(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        records = run(prob, RunConfig(alpha=0.5, batch_size=1, iterations=25, seed=0))
        assert len(records) == 26
        assert [r.t for r in records] == list(range(26))

    def test_draws_use_the_certified_probabilities(self):
        # across refills of the schedule table, p_t is the certified array's
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        t_max = 2 * CHUNK + 10
        records = run(prob, RunConfig(alpha=0.75, batch_size=1, iterations=t_max, seed=0))
        params = compute_constants(0.75, 1)
        certified = np.clip(p_sequence(alpha_sequence(t_max, params), params), 0.0, 1.0)
        assert np.array_equal([r.p for r in records[1:]], certified)

    def test_ledger_contract(self):
        _, prob = synthesize(7, 3, "least_squares", seed=5)
        T, b = 64, 3
        records = run(prob, RunConfig(alpha=1.0, batch_size=b, iterations=T, seed=2))
        final = records[-1]
        assert final.ifo_minibatch == 2 * b * T
        updates_costing = sum(
            r.checkpoint_updated for r in records[1:] if r.t >= 2
        )
        # t=1 always fires but is a free provenance skip
        assert records[1].checkpoint_updated
        assert final.ifo_checkpoint == prob.n * (1 + updates_costing)

    def test_epsilon_target_needs_reference(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        with pytest.raises(ValueError):
            run(prob, RunConfig(alpha=0.5, batch_size=1, epsilon=1e-3, seed=0))

    def test_epsilon_target_stops(self):
        _, prob = synthesize(20, 4, "least_squares", seed=3)
        with_reference(prob, tol=1e-12)
        records = run(
            prob,
            RunConfig(alpha=1.0, batch_size=4, epsilon=1e-4, seed=0, eval_every=1),
        )
        assert records[-1].f_w - prob.reference.f_star <= 1e-4
        assert records[-1].t < 10_000

    def test_iterations_and_epsilon_exclusive(self):
        _, prob = synthesize(5, 2, "least_squares", seed=1)
        with pytest.raises(ValueError):
            run(prob, RunConfig(alpha=0.5, batch_size=1, iterations=5, epsilon=0.1))
        with pytest.raises(ValueError):
            run(prob, RunConfig(alpha=0.5, batch_size=1))

    def test_gap_decreases_on_easy_problem(self):
        _, prob = synthesize(30, 5, "least_squares", seed=6)
        with_reference(prob, tol=1e-12)
        records = run(
            prob, RunConfig(alpha=1.0, batch_size=5, iterations=400, seed=1)
        )
        first_gap = records[0].f_w - prob.reference.f_star
        last_gap = records[-1].f_w - prob.reference.f_star
        assert last_gap < first_gap * 1e-2

    @pytest.mark.parametrize("b", [1, 10, "n"])
    @pytest.mark.parametrize("stop", [dict(iterations=300, record_every=20),
                                      dict(epsilon=1e-3, max_iterations=3000, record_every=25)],
                             ids=["iterations", "epsilon"])
    def test_builds_no_subset_view(self, monkeypatch, b, stop):
        # a step moves the stream by next() and reads its rows through
        # gathered(); the subset row is for tests and tools only
        _, prob = synthesize(30, 5, "least_squares", seed=3, reg=Regularizer.l1(0.02))
        with_reference(prob, tol=1e-12)
        config = RunConfig(alpha=0.5, batch_size=prob.n if b == "n" else b, seed=2, **stop)
        want = repr(run(prob, config))

        def refuse(stream):
            raise AssertionError("a run read DrawStream.subset")

        monkeypatch.setattr(estimator.DrawStream, "subset", property(refuse))
        assert repr(run(prob, config)) == want


class TestFista:
    def test_one_step_is_gradient_step(self):
        _, prob = synthesize(10, 3, "least_squares", seed=4)
        x0 = np.ones(3)
        records = fista_run(prob, RunConfig(iterations=1, x0=x0))
        expected = prob.value(x0 - prob.full_grad(x0) / prob.L)
        assert records[-1].f_y == pytest.approx(expected, rel=1e-14)

    def test_monotone_best_objective_on_quadratic(self):
        _, prob = synthesize(20, 4, "least_squares", seed=5)
        records = fista_run(prob, RunConfig(iterations=300))
        values = [r.f_y for r in records]
        best = np.minimum.accumulate(values)
        assert best[-1] <= values[0]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))

    def test_quadratic_decay_rate_on_lasso(self):
        _, prob = synthesize(40, 10, "least_squares", seed=6, reg=Regularizer.l1(0.05))
        with_reference(prob, tol=1e-14)
        records = fista_run(prob, RunConfig(iterations=1000))
        gap = {r.t: r.f_y - prob.reference.f_star for r in records}
        assert gap[1000] <= gap[100] / 20.0

    def test_cost_is_n_per_iteration(self):
        _, prob = synthesize(13, 3, "least_squares", seed=4)
        records = fista_run(prob, RunConfig(iterations=7))
        assert records[-1].ifo_total == 7 * 13


class TestDriver:
    @pytest.mark.parametrize("solver", [fista_run])
    def test_explicit_eval_every_sets_the_stopping_grid(self, solver):
        _, prob = synthesize(20, 4, "least_squares", seed=3)
        with_reference(prob, tol=1e-12)
        every = solver(prob, RunConfig(epsilon=1e-8))
        fifth = solver(prob, RunConfig(epsilon=1e-8, eval_every=5))
        t = every[-1].t
        assert t % 5 != 0  # otherwise the grid would not show
        assert fifth[-1].t % 5 == 0 and t < fifth[-1].t < t + 5
        assert fifth[-1].f_y - prob.reference.f_star <= 1e-8

    def test_fista_evaluates_objective_once_per_iteration(self):
        # each record reuses the F the epsilon test just read
        _, prob = synthesize(9, 3, "least_squares", seed=8)
        with_reference(prob, tol=1e-12)
        calls = []
        value = prob.value
        prob.value = lambda x: calls.append(1) or value(x)
        records = fista_run(prob, RunConfig(
            epsilon=1e-12, record_every=1, eval_every=1, max_iterations=50
        ))
        assert records[-1].t == 50  # the target is out of reach: every iteration is tested
        assert len(calls) == 50 + 1  # one per iteration plus the initial record

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_run_evaluates_each_checkpoint_once(self, monkeypatch, alpha):
        _, prob = synthesize(
            200, 10, "least_squares", seed=5, reg=Regularizer.l1(0.001), condition=100.0
        )
        with_reference(prob, tol=1e-12)
        cfg = RunConfig(
            alpha=alpha, batch_size=1, epsilon=1e-4, seed=0, eval_every=1, record_every=10**9
        )

        # Oracle: the same run with F(w) evaluated afresh at every test.
        state = init_state(prob, cfg)

        def record(t):
            return TraceRecord(
                t, blocked_value(prob, state.y), prob.value(state.ckpt.w), state.p,
                state.checkpoint_updated, state.ledger.minibatch_calls,
                state.ledger.checkpoint_calls,
            )

        want = [record(0)]
        katyusha_h_step(state, prob)
        while prob.value(state.ckpt.w) - prob.reference.f_star > cfg.epsilon:
            katyusha_h_step(state, prob)
        want.append(record(state.t - 1))

        seen = []
        value = FiniteSumProblem.value
        monkeypatch.setattr(
            FiniteSumProblem, "value",
            lambda self, x, *margins: seen.append(x) or value(self, x, *margins),
        )
        records = run(prob, cfg)
        assert repr(records) == repr(want)  # repr: NaN p_t compares equal
        # One evaluation per checkpoint, then y in the initial and the final
        # record, whose F(y) waits for the loop to end.  The initial y is the
        # first checkpoint's own w array; every other evaluated array is a
        # distinct object.
        assert seen[-2] is seen[0]
        assert len({id(x) for x in seen}) == len(seen) - 1
        refreshes = records[-1].ifo_checkpoint // prob.n - 1
        assert len(seen) == refreshes + 1 + 2

    def test_lyapunov_adds_no_objective_evaluations(self, monkeypatch):
        _, prob = synthesize(30, 5, "least_squares", seed=4, reg=Regularizer.l1(0.01))
        with_reference(prob, tol=1e-12)
        calls = []
        value = FiniteSumProblem.value
        monkeypatch.setattr(
            FiniteSumProblem, "value",
            lambda self, x, *margins: calls.append(1) or value(self, x, *margins),
        )
        counts = {}
        for lyapunov in (False, True):
            calls.clear()
            cfg = RunConfig(alpha=0.5, batch_size=2, iterations=50, seed=3, lyapunov=lyapunov)
            records = run(prob, cfg)
            counts[lyapunov] = len(calls)
        assert all(np.isfinite(r.lyapunov) for r in records)
        assert counts[True] == counts[False]


class TestBlockedObjective:
    """``run`` fills F(y) and the Lyapunov value a block of records at a
    time; a record's fields must not depend on which records share its
    block, so not on the run's length, cadence or stopping rule."""

    @staticmethod
    def problem(monkeypatch, family, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(problems, "VALUE_BLOCK_BYTES", block_bytes)
        _, prob = synthesize(30, 6, family, seed=3, reg=Regularizer.elastic_net(0.01, 0.02))
        return with_reference(prob, tol=1e-12)

    CASES = pytest.mark.parametrize("family, block_bytes", [
        ("least_squares", None), ("logistic", None),  # K = 64
        ("least_squares", 8 * 30 * 3), ("logistic", 8 * 30 * 3),  # K = 3
    ])

    @CASES
    def test_a_record_does_not_depend_on_the_run(self, monkeypatch, family, block_bytes):
        prob = self.problem(monkeypatch, family, block_bytes)
        config = RunConfig(alpha=0.75, batch_size=2, iterations=150, seed=5, lyapunov=True)
        short = run(prob, config)
        longer = run(prob, dataclasses.replace(config, iterations=150 + 37))
        assert repr(short) == repr(longer[:len(short)])  # repr: NaN p_t compares equal
        every_third = run(prob, dataclasses.replace(config, record_every=3))
        assert [r.t for r in every_third] == list(range(0, 151, 3))
        assert repr(every_third) == repr(short[::3])
        assert all(math.isfinite(r.f_y) and math.isfinite(r.lyapunov) for r in short)

    @CASES
    def test_epsilon_and_iteration_stops_agree(self, monkeypatch, family, block_bytes):
        prob = self.problem(monkeypatch, family, block_bytes)
        config = RunConfig(alpha=0.5, batch_size=3, epsilon=1e-6, seed=2, eval_every=1,
                           lyapunov=True)
        stopped = run(prob, config)
        assert len(stopped) > 70  # more than one block of records at K = 64
        fixed = run(prob, dataclasses.replace(config, epsilon=None, iterations=stopped[-1].t))
        assert repr(fixed) == repr(stopped)

    def test_records_wait_for_a_whole_block(self, monkeypatch):
        prob = self.problem(monkeypatch, "logistic", 8 * 30 * 5)  # K = 5
        sizes = []
        values = FiniteSumProblem.values
        monkeypatch.setattr(FiniteSumProblem, "values",
                            lambda self, points: sizes.append(len(points)) or values(self, points))
        run(prob, RunConfig(alpha=0.5, batch_size=1, iterations=21, seed=0))
        assert sizes == [5, 5, 5, 5, 2]  # 22 records, the rest after the loop

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("t_bad", [10, 80])  # in the first block, in the padded last
    def test_a_non_finite_y_changes_only_its_own_record(self, monkeypatch, bad, t_bad):
        prob = self.problem(monkeypatch, "least_squares", None)
        config = RunConfig(alpha=0.5, batch_size=2, iterations=100, seed=1, lyapunov=True)
        want = run(prob, config)
        # y is non-finite in the record of iteration t_bad only: the next
        # step reads the real y again
        real, kept = optimizers.katyusha_h_step, {}

        def step(state, problem):
            if state.t == t_bad + 1:
                state.y = kept.pop("y")
            real(state, problem)
            if state.t == t_bad + 1:
                kept["y"], state.y = state.y, np.full(problem.d, bad)

        monkeypatch.setattr(optimizers, "katyusha_h_step", step)
        with np.errstate(invalid="ignore"):
            got = run(prob, config)
        assert not math.isfinite(got[t_bad].f_y) and not math.isfinite(got[t_bad].lyapunov)
        got[t_bad].f_y, got[t_bad].lyapunov = want[t_bad].f_y, want[t_bad].lyapunov
        assert repr(got) == repr(want)


class TestCheckpointCache:
    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize(
        "family, reg",
        [("least_squares", Regularizer.l1(0.01)),
         ("logistic", Regularizer.elastic_net(0.01, 0.01))],
        ids=["least_squares", "logistic"],
    )
    def test_cache_sets_only_the_charge(self, family, reg, b):
        # the option selects the paper's charge per estimate (b or 2b); the
        # arithmetic, and so every iterate and draw, is the same
        _, prob = synthesize(40, 6, family, seed=9, reg=reg)
        runs = {
            cache: run(prob, RunConfig(alpha=0.5, batch_size=b, iterations=60, seed=5,
                                       cache_checkpoint_grads=cache))
            for cache in (False, True)
        }
        plain, cached = runs[False], runs[True]
        assert len(plain) == len(cached) == 61
        for r0, r1 in zip(plain, cached):
            assert (r0.t, r0.f_y, r0.f_w, r0.checkpoint_updated, r0.ifo_checkpoint) == (
                r1.t, r1.f_y, r1.f_w, r1.checkpoint_updated, r1.ifo_checkpoint
            )
            assert repr(r0.p) == repr(r1.p)  # NaN at t = 0
            assert r0.ifo_minibatch == 2 * r1.ifo_minibatch
        assert plain[-1].ifo_minibatch == 2 * b * 60


class TestDriverArguments:
    @pytest.mark.parametrize(
        "name, value",
        [("record_every", 0), ("record_every", -3), ("eval_every", 0),
         ("iterations", -1), ("max_iterations", 0)],
    )
    def test_bad_cadence_or_budget_is_refused(self, name, value):
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        with_reference(prob, tol=1e-12)
        stopping = {"iterations": 5} if name != "max_iterations" else {"epsilon": 1e-3}
        stopping[name] = value
        with pytest.raises(ValueError, match=name):
            run(prob, RunConfig(alpha=0.5, batch_size=1, **stopping))
        with pytest.raises(ValueError, match=name):
            fista_run(prob, RunConfig(**stopping))

    @pytest.mark.parametrize("solver", ["run"])
    @pytest.mark.parametrize("seed", [1.5, -1, 2**128])
    def test_seed_that_is_no_philox_key_is_refused(self, solver, seed):
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            getattr(optimizers, solver)(prob, RunConfig(iterations=3, seed=seed))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("solver", ["run", "fista_run"])
    def test_unreachable_epsilon_is_refused(self, solver, epsilon):
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        with_reference(prob, tol=1e-12)
        config = RunConfig(epsilon=epsilon, max_iterations=2000)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            getattr(optimizers, solver)(prob, config)

    @pytest.mark.parametrize("solver", ["run", "fista_run"])
    def test_non_finite_objective_stops_at_once(self, solver, monkeypatch):
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        with_reference(prob, tol=1e-12)
        monkeypatch.setattr(prob, "value", lambda x, *margins: math.nan)
        stopping = dict(epsilon=1e-6, max_iterations=2000)
        with pytest.raises(ValueError, match=r"objective is nan at t=1\b"):
            getattr(optimizers, solver)(prob, RunConfig(eval_every=1, **stopping))


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("solver", ["run", "fista_run"])
    def test_non_finite_start_is_refused(self, solver, bad):
        # an iteration stop evaluates no objective, so only the start check catches it
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        x0 = np.array([0.0, bad])
        with pytest.raises(ValueError, match="x0 must be finite"):
            getattr(optimizers, solver)(prob, RunConfig(x0=x0, iterations=2000))

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3,), ()])
    @pytest.mark.parametrize("solver", ["run", "fista_run"])
    def test_misshaped_start_is_refused(self, solver, shape):
        # a (d, 1) start broadcasts A @ x0 - targets to an n x n residual
        _, prob = synthesize(6, 2, "least_squares", seed=1)
        x0 = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"x0 must have shape \(2,\), got {re.escape(str(shape))}"):
            getattr(optimizers, solver)(prob, RunConfig(x0=x0, iterations=20))


def per_iteration_drive(problem, config, step, objective, record, eval_every, test=None):
    """The run loop as it was written before ``_drive`` ran straight to the
    next tested or recorded iteration, and before it took its stop test as a
    callable: every check at every iteration.  ``step(t)`` performs
    iteration t.  ``test``, when given, stands in for the epsilon rule and
    is read where that rule would be.  Arguments are assumed valid."""
    if config.eval_every is not None:
        eval_every = config.eval_every
    epsilon = config.epsilon
    budget = config.iterations if config.iterations is not None else config.max_iterations
    records = [record(0, None)]
    for t in range(1, budget + 1):
        step(t)
        done = t == budget
        f = None
        if (epsilon is not None or test is not None) and (done or t % eval_every == 0):
            if test is None:
                f = objective()
                met = f - problem.reference.f_star <= epsilon
            else:
                f, met = test()
            if not math.isfinite(f):
                raise ValueError(f"objective is {f} at t={t}: the run cannot reach its target")
            done = done or met
        if done or t % config.record_every == 0:
            records.append(record(t, f))
        if done:
            break
    return records


class TestDriveLoop:
    """``_drive`` against the per-iteration loop: the same records, the
    objective read at the same iterations, every iteration stepped once.
    An epsilon run gives ``_drive`` the epsilon rule as its stop test and
    the old loop its own inline rule; a run with ``certified`` gives both
    the same stop test, done at the first tested t where ``certified(t)``."""

    F_STAR = 2.0
    problem = SimpleNamespace(reference=SimpleNamespace(f_star=F_STAR))

    def trail(self, drive, config, eval_every, gap, certified=None):
        """(records, iterations stepped, iterations whose F was read, error)."""
        now, stepped, tested = [0], [], []

        def step(t):
            assert t == now[0] + 1
            stepped.append(t)
            now[0] = t

        def steps(first, last):
            for t in range(first, last + 1):
                step(t)

        def objective():
            tested.append(now[0])
            return self.F_STAR + gap(now[0])

        def record(t, f):
            assert t == now[0]
            return (t, f)

        test = None if certified is None else lambda: (objective(), certified(now[0]))
        try:
            if drive is optimizers._drive:
                test = test or optimizers._epsilon_test(self.problem, config, objective)
                records = drive(self.problem, config, steps, test, record, eval_every)
            else:
                records = drive(self.problem, config, step, objective, record, eval_every, test)
        except ValueError as err:
            return None, stepped, tested, str(err)
        return records, stepped, tested, None

    def same(self, config, eval_every=1, gap=lambda t: 1.0 / t, certified=None):
        new = self.trail(optimizers._drive, config, eval_every, gap, certified)
        old = self.trail(per_iteration_drive, config, eval_every, gap, certified)
        assert new == old
        return new

    @pytest.mark.parametrize("stop", ["iterations", "epsilon", "epsilon-met"])
    @pytest.mark.parametrize("record_every, eval_every, budget", [
        (7, 3, 100),    # both cadences, the budget a multiple of neither
        (1, 3, 100),    # a record at every iteration
        (7, 150, 100),  # the objective read only at the last
        (5, 4, 101),    # the budget a multiple of neither
        (4, 2, 100),    # the budget a multiple of both
        (100, 100, 100),
        (1, 1, 1),
    ])
    def test_records_and_objective_reads_match(self, stop, record_every, eval_every, budget):
        if stop == "iterations":
            config = RunConfig(iterations=budget, record_every=record_every, eval_every=eval_every)
        else:  # the gap falls to 0 at t = 40, or stays above epsilon
            config = RunConfig(epsilon=1e-3, max_iterations=budget,
                               record_every=record_every, eval_every=eval_every)
        records, stepped, tested, error = self.same(
            config, gap=lambda t: 0.0 if stop == "epsilon-met" and t >= 40 else 1.0 / t)
        assert error is None
        last = records[-1][0]
        assert stepped == list(range(1, last + 1))
        if stop == "iterations":
            assert last == budget and tested == []
        elif stop == "epsilon":
            assert last == budget and tested[-1] == budget
        else:
            assert last == min(budget, -(-40 // eval_every) * eval_every)

    def test_the_method_cadence_applies_when_the_config_sets_none(self):
        config = RunConfig(epsilon=1e-9, max_iterations=50, record_every=6)
        _, _, tested, _ = self.same(config, eval_every=8)
        assert tested == [8, 16, 24, 32, 40, 48, 50]

    def test_zero_iterations_records_only_the_start(self):
        records, stepped, tested, error = self.same(RunConfig(iterations=0, record_every=3))
        assert records == [(0, None)] and stepped == tested == [] and error is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("eval_every", [1, 3, 150])
    def test_a_non_finite_objective_raises_at_the_first_test(self, bad, eval_every):
        config = RunConfig(epsilon=1e-6, max_iterations=100, record_every=7, eval_every=eval_every)
        records, stepped, tested, error = self.same(config, gap=lambda t: bad)
        first = min(eval_every, 100)
        assert records is None and tested == [first] and stepped == list(range(1, first + 1))
        assert error == f"objective is {self.F_STAR + bad} at t={first}: the run cannot reach its target"

    @pytest.mark.parametrize("record_every, eval_every, budget", [
        (7, 3, 100), (1, 1, 100), (100, 1, 100), (5, 4, 101), (7, 150, 100), (1, 1, 1),
    ])
    @pytest.mark.parametrize("met_at", [40, None])
    def test_a_stop_test_ends_a_fixed_length_run(self, record_every, eval_every, budget, met_at):
        # fista_solve's shape: an iteration budget, and a test that reads a
        # certificate rather than F - F*
        config = RunConfig(iterations=budget, record_every=record_every, eval_every=eval_every)
        records, stepped, tested, error = self.same(
            config, certified=lambda t: met_at is not None and t >= met_at)
        assert error is None
        last = budget if met_at is None else min(budget, -(-met_at // eval_every) * eval_every)
        assert records[-1][0] == last and stepped == list(range(1, last + 1))
        assert tested == sorted({*range(eval_every, last + 1, eval_every), last})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_stop_test_s_non_finite_objective_raises(self, bad):
        config = RunConfig(iterations=50, record_every=50, eval_every=5)
        records, stepped, tested, error = self.same(
            config, gap=lambda t: bad if t >= 12 else 1.0, certified=lambda t: False)
        assert records is None and tested == [5, 10, 15] and stepped == list(range(1, 16))
        assert error == f"objective is {self.F_STAR + bad} at t=15: the run cannot reach its target"


def loop_fista_solve(problem, L, tol, max_iterations, restarts=None):
    """``fista_solve`` as it was written before it ran through ``_drive``:
    its own loop, with ``np.linalg.norm`` and copies of the points it keeps.
    Appends to ``restarts`` each t whose step dropped the momentum."""
    x = np.zeros(problem.d)
    y, theta = x.copy(), 1.0
    f_best = problem.value(x)
    x_best = x.copy()
    gap_est = math.inf
    t = 0
    f_prev = f_best
    for t in range(1, max_iterations + 1):
        x_next = optimizers._prox_grad(problem, y, L)
        mapping_norm = L * float(np.linalg.norm(y - x_next))
        f_val = problem.value(x_next)
        if f_val < f_best:
            f_best = f_val
            x_best = x_next.copy()
        radius = max(1.0, 2.0 * float(np.linalg.norm(x_best)))
        gap_est = mapping_norm * radius
        if gap_est <= tol:
            break
        if f_val > f_prev:
            theta = 1.0
            y = x_next.copy()
            if restarts is not None:
                restarts.append(t)
        else:
            y, theta = optimizers._extrapolate(x_next, x, theta)
        x = x_next
        f_prev = f_val
    return x_best, f_best, gap_est, t


class TestFistaSolveLoop:
    """``fista_solve``, a ``_drive`` run, against its own old loop: the same
    best point's bytes, F, certificate and iteration count."""

    @pytest.mark.parametrize("family, reg, tol, cap", [
        ("least_squares", Regularizer.l1(0.02), 1e-12, 200_000),
        ("least_squares", Regularizer.elastic_net(1e-3, 1e-3), 1e-12, 200_000),
        ("logistic", Regularizer.l1(0.01), 1e-12, 200_000),
        ("logistic", Regularizer.elastic_net(1e-3, 1e-3), 1e-10, 200_000),
        ("least_squares", Regularizer.l1(0.01), 1e-300, 50),  # capped
        ("logistic", Regularizer.squared_l2(0.01), 1e-300, 1),  # one step
    ], ids=["l1", "elastic_net", "logistic-l1", "logistic-enet", "capped", "one-step"])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_matches_the_old_loop(self, family, reg, tol, cap, seed):
        _, prob = synthesize(60, 8, family, seed=seed, reg=reg, condition=100.0)
        L, restarts = _smoothness_bound(prob), []
        new = optimizers.fista_solve(prob, L, tol=tol, max_iterations=cap)
        old = loop_fista_solve(prob, L, tol, cap, restarts)
        assert new[0].tobytes() == old[0].tobytes()
        assert [float(v).hex() for v in new[1:3]] == [float(v).hex() for v in old[1:3]]
        assert new[3] == old[3] and (new[3] == cap) == (old[2] > tol)
        assert bool(restarts) == (cap > 1)  # F rose, and the momentum dropped, in each

    def test_a_certificate_equal_to_tol_stops_the_solve(self):
        # tol is the certificate the old loop reads at t = 10: "at most tol"
        _, prob = synthesize(60, 8, "least_squares", seed=3, reg=Regularizer.l1(0.02))
        L = _smoothness_bound(prob)
        tol = loop_fista_solve(prob, L, 1e-300, 10)[2]
        new = optimizers.fista_solve(prob, L, tol=tol, max_iterations=1_000)
        assert new[2] == tol and new[3] == loop_fista_solve(prob, L, tol, 1_000)[3] <= 10


def _smoothness_bound(prob):
    """L_f, the smoothness bound of the average f that solve_reference steps by."""
    s = np.linalg.svd(prob.A, compute_uv=False)
    return float(s[0]) ** 2 / prob.n * problems.CURVATURE[prob.loss]


# -- the step's arithmetic, driven by hand -----------------------------------


def _residual(problem, idx, x):
    """r_i(x) over idx, written out as the step computes it: for logistic
    loss -y sigmoid(-y m) as y / (-1 - exp(y m)), exp capped at y m = 709."""
    margins = problem.A[idx] @ x
    if problem.loss == "least_squares":
        return margins - problem.targets[idx]
    y = problem.targets[idx]
    return y / (-1.0 - np.exp(np.minimum(y * margins, 709.0)))


def _prox(reg, v, step):
    if reg.lam1 != 0.0:
        v = np.sign(v) * np.maximum(np.abs(v) - step * reg.lam1, 0.0)
    if reg.lam2 != 0.0:
        v = v / (1.0 + step * reg.lam2)
    return v


def blocked_value(problem, x):
    """F(x) by the blocked evaluation's arithmetic, written out: x alone in
    the last row of a zero block of ``block_rows`` rows, one product with
    A', then ``value`` from that row's margins."""
    block = np.zeros((problem.block_rows, problem.d))
    block[-1] = x
    return problem.value(x, (block @ problem.A.T)[-1])


def reference_run(problem, config):
    """Katyusha-H from its update lines: the schedule from the certified
    arrays, draws from sample_subset and Generator.random(), three gathers
    by index per estimate, the product form of soft-thresholding.  Returns
    the records, the final (x, y, z) and the iterations whose checkpoint
    draw refreshed w."""
    n, b, T = problem.n, config.batch_size, config.iterations
    params = compute_constants(config.alpha, b)
    eta = step_size(problem.L, params)
    alphas = alpha_sequence(T, params)
    ps = np.clip(p_sequence(alphas, params), 0.0, 1.0).tolist()
    alphas = alphas.tolist()
    xi = params.xi
    per_sample = 1 if config.cache_checkpoint_grads else 2
    rng = make_rng(config.seed)

    def checkpoint(w):
        r = _residual(problem, slice(None), w)
        return w, problem.A.T @ r / n, r

    x = np.zeros(problem.d)
    y, z = x.copy(), x.copy()
    w, full, res = checkpoint(x.copy())
    minibatch, ckpt_calls, p, hit, refreshed = 0, n, math.nan, False, []

    def record(t):
        return TraceRecord(t, blocked_value(problem, y), problem.value(w), p, hit, minibatch,
                           ckpt_calls)

    records = [record(0)]
    for t in range(1, T + 1):
        tau, p = 1.0 / alphas[t], ps[t - 1]
        x_next = tau * z + xi * w + (1.0 - xi - tau) * y
        idx = sample_subset(n, b, rng)
        minibatch += per_sample * b
        if b == n:
            g = problem.A.T @ _residual(problem, slice(None), x_next) / n
        else:
            diff = problem.A[idx].T @ (_residual(problem, idx, x_next) - res[idx])
            g = diff / b + full
        step_len = alphas[t] * eta
        z_next = _prox(problem.reg, z - step_len * g, step_len)
        y_next = x_next + tau * (z_next - z)
        hit = rng.random() < p
        if hit and t > 1:
            w, full, res = checkpoint(y.copy())
            ckpt_calls += n
            refreshed.append(t)
        x, y, z = x_next, y_next, z_next
        if t % config.record_every == 0 or t == T:
            records.append(record(t))
    return records, (x, y, z), refreshed


class TestReferenceLoop:
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("b", [1, 3, "n"])
    @pytest.mark.parametrize("reg", [Regularizer.l1(0.02), Regularizer.elastic_net(0.01, 0.02),
                                     Regularizer.squared_l2(0.05)],
                             ids=["l1", "elastic_net", "squared_l2"])
    @pytest.mark.parametrize("family", ["least_squares", "logistic"])
    def test_run_equals_the_update_lines(self, monkeypatch, family, reg, b, cache):
        _, prob = synthesize(30, 6, family, seed=17, reg=reg)
        b = prob.n if b == "n" else b
        # spans of 5 iterations, so refreshes land mid-span; 1100 iterations
        # cross a block of draws and a schedule table
        span = 5
        monkeypatch.setattr(estimator, "_SPAN_BYTES", 8 * b * prob.d * span)
        config = RunConfig(alpha=0.75, batch_size=b, iterations=1100, seed=4,
                           record_every=50, cache_checkpoint_grads=cache)
        want, final, refreshed = reference_run(prob, config)
        states = []
        monkeypatch.setattr(optimizers, "init_state",
                            lambda *a, real=init_state: states.append(real(*a)) or states[-1])
        got = run(prob, config)
        assert repr(got) == repr(want)  # repr: NaN p_t compares equal
        for arr, ref in zip((states[0].x, states[0].y, states[0].z), final):
            assert arr.tobytes() == ref.tobytes()
        if b < prob.n:
            assert any(t % span != 0 for t in refreshed)  # a refresh inside a span
