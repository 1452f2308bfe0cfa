"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id> <name>: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and asserts the criterion, including its runtime
budget where one is stated.  Instances are fixed by seed, so outcomes are
deterministic for a given numpy version.
"""

import math
import time

import numpy as np

from katyusha_h.analysis import (
    check_lyapunov_bound,
    feasible_alpha_interval,
    predict_ifo,
    select_alpha,
    selector_inequalities,
)
from katyusha_h.estimator import (
    enumeration_mean_estimate,
    exact_variance,
    make_checkpoint,
    IfoLedger,
)
from katyusha_h.optimizers import RunConfig, init_state, katyusha_h_step, run
from katyusha_h.problems import (
    DataFormatError,
    make_rng,
    parse_libsvm,
    serialize_libsvm,
    synthesize,
    with_reference,
)
from katyusha_h.proximal import Regularizer
from katyusha_h.schedule import (
    advance,
    alpha_sequence,
    compute_constants,
    p_at,
    p_sequence,
)
from katyusha_h.verification import (
    default_alpha_grid,
    exact_conditional_lyapunov_descent,
    scan_schedule,
    verify_variance_bound,
)

BATCHES = (1, 2, 10)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}{suffix}")


def test_criterion_01_schedule_certification():
    start = time.monotonic()
    report = scan_schedule(t_max=100_000, batch_sizes=BATCHES)
    elapsed = time.monotonic() - start
    fault = scan_schedule(
        alpha_grid=default_alpha_grid(), t_max=2000, xi_override=2.0
    )
    worst = min(c.min_slack for c in report.claims)
    ok = report.passed and elapsed < 60.0 and not fault.passed
    _report(1, "schedule certification", ok,
            f"min slack {worst:.2e}, {elapsed:.1f}s, fault detected={not fault.passed}")
    assert report.passed, report.to_text()
    assert elapsed < 60.0
    assert not fault.passed


def test_criterion_02_first_probability_forced():
    worst = 0.0
    for alpha in default_alpha_grid():
        for b in BATCHES:
            params = compute_constants(float(alpha), b)
            p1 = p_at(advance(None, params), 1)
            worst = max(worst, abs(p1 - 1.0))
    ok = worst <= 1e-12
    _report(2, "forced first checkpoint", ok, f"max |p_1 - 1| = {worst:.2e}")
    assert ok


def test_criterion_03_estimator_exactness():
    start = time.monotonic()
    worst_bias = 0.0
    for family in ("least_squares", "logistic"):
        _, prob = synthesize(6, 4, family, seed=3)
        rng = make_rng(17)
        ledger = IfoLedger()
        ckpt = make_checkpoint(rng.standard_normal(4), prob, ledger)
        for b in (1, 2, 3):
            for _ in range(50):
                x = rng.standard_normal(4)
                mean = enumeration_mean_estimate(x, ckpt, b, prob)
                target = prob.full_grad(x)
                err = float(np.linalg.norm(mean - target))
                worst_bias = max(worst_bias, err / max(1.0, float(np.linalg.norm(target))))
        points = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(50)]
        bound_report = verify_variance_bound(prob, points, (1, 2, 3))
        assert bound_report.passed, bound_report.to_text()
        # full batch: variance is exactly zero
        x = rng.standard_normal(4)
        assert exact_variance(x, ckpt, prob.n, prob) == 0.0
    elapsed = time.monotonic() - start
    ok = worst_bias <= 1e-12 and elapsed < 30.0
    _report(3, "estimator exactness", ok,
            f"worst bias {worst_bias:.2e}, {elapsed:.1f}s")
    assert worst_bias <= 1e-12
    assert elapsed < 30.0


def test_criterion_04_exact_conditional_descent():
    start = time.monotonic()
    _, prob = synthesize(6, 4, "least_squares", seed=3, reg=Regularizer.l1(0.05))
    with_reference(prob, tol=1e-12)
    worst = -math.inf
    for alpha in (0.0, 0.5, 1.0):
        state = init_state(
            prob, RunConfig(alpha=alpha, batch_size=2, iterations=1, seed=7)
        )
        for _ in range(200):
            expected, current = exact_conditional_lyapunov_descent(state, prob)
            violation = expected - current * (1.0 + 1e-10) - 1e-10
            worst = max(worst, violation)
            assert expected <= current + 1e-10 * max(1.0, current)
            katyusha_h_step(state, prob)
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    _report(4, "exact conditional descent", ok,
            f"600 states, worst margin {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_05_lyapunov_bound_over_seeds():
    start = time.monotonic()
    _, prob = synthesize(100, 20, "least_squares", seed=7, reg=Regularizer.l1(0.02))
    with_reference(prob, tol=1e-12)
    T = 1000
    margins = []
    for alpha in (0.0, 0.5, 1.0):
        for b in (1, 10):
            traces = [
                run(prob, RunConfig(alpha=alpha, batch_size=b, iterations=T,
                                    seed=seed, record_every=T, lyapunov=True))
                for seed in range(100)
            ]
            report = check_lyapunov_bound(traces)
            assert report.passed, (alpha, b, report)
            margins.append(report.margin / report.initial)
    elapsed = time.monotonic() - start
    ok = elapsed < 180.0
    _report(5, "anytime bound over seeds", ok,
            f"6 cells x 100 seeds, min rel margin {min(margins):.3f}, {elapsed:.1f}s")
    assert elapsed < 180.0


def test_criterion_06_rate_ordering():
    start = time.monotonic()
    # consistent overdetermined-free quadratic: optimum value is exactly 0,
    # the nonzero spectrum is tight, and nothing saturates by T = 10^4
    _, prob = synthesize(200, 400, "least_squares", seed=10, consistent=True, noise=0.0)
    T, seeds = 10_000, range(10)
    gaps = {}
    for alpha in (0.0, 0.5, 1.0):
        finals = [
            run(prob, RunConfig(alpha=alpha, batch_size=1, iterations=T,
                                seed=s, record_every=T))[-1].f_w
            for s in seeds
        ]
        gaps[alpha] = float(np.mean(finals))
    elapsed = time.monotonic() - start
    r10 = gaps[0.5] / gaps[1.0]
    r05 = gaps[0.0] / gaps[0.5]
    ok = gaps[1.0] < gaps[0.5] < gaps[0.0] and r10 >= 3.0 and r05 >= 3.0 and elapsed < 180.0
    _report(6, "rate ordering", ok,
            f"gaps {gaps[0.0]:.2e} > {gaps[0.5]:.2e} > {gaps[1.0]:.2e}, "
            f"ratios {r05:.1f}, {r10:.1f}, {elapsed:.1f}s")
    assert gaps[1.0] < gaps[0.5] < gaps[0.0]
    assert r05 >= 3.0 and r10 >= 3.0
    assert elapsed < 180.0


def test_criterion_07_cost_table_orders():
    n, eps = 10 ** 4, 1e-12
    targets = {0.0: 12.0, 1.0: 10.0, 0.5: 8.0}
    logs = {}
    for alpha, target in targets.items():
        total = predict_ifo(alpha, 1, n, eps).total
        logs[alpha] = math.log10(total)
        assert abs(logs[alpha] - target) <= 1.0, (alpha, total)
    ok = all(abs(logs[a] - t) <= 1.0 for a, t in targets.items())
    _report(7, "cost-table orders", ok,
            "log10 totals: " + ", ".join(f"alpha={a:g}: {v:.2f}" for a, v in logs.items()))
    assert ok


def test_criterion_08_selector_reference_values():
    n, eps = 10 ** 4, 1e-12
    iv = feasible_alpha_interval(n, eps, 2.0, 2.0)
    alpha = select_alpha(n, eps, 2.0, 2.0)
    first, second = selector_inequalities(alpha, n, eps, 2.0, 2.0)
    checks = {
        "delta1": abs(iv.delta1 - 0.4456) <= 1e-3,
        "delta2": abs(iv.delta2 - 0.5587) <= 1e-3,
        "alpha_hat": abs(iv.alpha_hat - 0.02509) <= 1e-4,
        "half inside": iv.delta1 < 0.5 < iv.delta2,
        "inequalities": first >= 0.0 and second >= 0.0,
    }
    ok = all(checks.values())
    _report(8, "selector reference values", ok,
            f"delta=[{iv.delta1:.5f}, {iv.delta2:.5f}], alpha_hat={iv.alpha_hat:.6f}, "
            f"alpha={alpha:.5f}")
    assert ok, checks


def test_criterion_09_measured_vs_predicted_cost():
    start = time.monotonic()
    n, b, T, n_seeds = 500, 5, 10_000, 50
    _, prob = synthesize(n, 10, "least_squares", seed=9, noise=0.3)
    params = compute_constants(0.5, b)
    probs = p_sequence(alpha_sequence(T, params), params)  # p_1 .. p_T
    # the t=1 update is a free provenance skip, so the charged prediction
    # starts at t=2; the initial full gradient is excluded on both sides
    predicted = n * float(np.sum(probs[1:]))
    sigma_mean = n * math.sqrt(float(np.sum(probs[1:] * (1 - probs[1:]))) / n_seeds)
    charged = []
    for seed in range(n_seeds):
        final = run(prob, RunConfig(alpha=0.5, batch_size=b, iterations=T,
                                    seed=seed, record_every=T))[-1]
        assert final.ifo_minibatch == 2 * b * T
        charged.append(final.ifo_checkpoint - n)
    measured = float(np.mean(charged))
    deviation = abs(measured - predicted) / sigma_mean
    elapsed = time.monotonic() - start
    ok = deviation <= 4.0
    _report(9, "measured vs predicted cost", ok,
            f"checkpoint mean {measured:.0f} vs {predicted:.0f} "
            f"({deviation:.2f} sigma), minibatch exact, {elapsed:.1f}s")
    assert ok


def test_criterion_10_desk_scale_crossover():
    start = time.monotonic()
    n, eps = 2000, 1e-5
    assert n * eps < 1.0
    alpha_star = select_alpha(n, eps, 2.0, 2.0)
    # ill-conditioned columns separate the regimes cleanly at this accuracy
    _, prob = synthesize(n, 50, "least_squares", seed=20, noise=0.1, condition=1e4)
    with_reference(prob, tol=1e-12, max_iterations=200_000)
    seeds = range(20)
    means = {}
    for alpha in (0.0, alpha_star, 1.0):
        ifos = [
            run(prob, RunConfig(alpha=alpha, batch_size=1, epsilon=eps, seed=s,
                                record_every=10 ** 9, eval_every=20,
                                max_iterations=3_000_000))[-1].ifo_total
            for s in seeds
        ]
        means[alpha] = float(np.mean(ifos))
    elapsed = time.monotonic() - start
    ok = (
        means[alpha_star] < means[0.0]
        and means[alpha_star] < means[1.0]
        and elapsed < 600.0
    )
    _report(10, "desk-scale crossover", ok,
            f"alpha*={alpha_star:.3f}: {means[alpha_star]:.3g} IFO vs "
            f"alpha=0: {means[0.0]:.3g}, alpha=1: {means[1.0]:.3g}, {elapsed:.0f}s")
    assert means[alpha_star] < means[0.0]
    assert means[alpha_star] < means[1.0]
    assert elapsed < 600.0


def test_criterion_11_parser_round_trip():
    rng = make_rng(31)
    lines = []
    for _ in range(10_000):
        label = float(rng.standard_normal())
        d = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(np.arange(1, 40), size=d, replace=False)) if d else []
        entries = " ".join(
            f"{int(i)}:{repr(float(v))}"
            for i, v in zip(idx, rng.standard_normal(d) * 10.0 ** rng.integers(-12, 12))
        )
        lines.append(f"{repr(label)} {entries}".rstrip())
    corpus = "\n".join(lines) + "\n"
    canon = serialize_libsvm(parse_libsvm(corpus))
    stable = serialize_libsvm(parse_libsvm(canon)) == canon

    adversarial = "1   1:2.0\t3:4.5  \n.5 1:.25\n-1 2:1E+30 7:-4e-300\n\n0.25 1:0 2:-0.0\n"
    ds = parse_libsvm(adversarial)
    canon_adv = serialize_libsvm(ds)
    adv_stable = serialize_libsvm(parse_libsvm(canon_adv)) == canon_adv
    assert ds.indptr[1] == 2 and ds.indices[:2].tolist() == [1, 3]
    assert ds.values[:2].tolist() == [2.0, 4.5]

    rejected = 0
    for text, line in (
        ("1 1:1\nbroken\n", 2),
        ("1 1:1\n1 2:x\n1 1:1\n", 2),
        ("1 5:1 3:2\n", 1),
        ("1 0:1\n", 1),
    ):
        try:
            parse_libsvm(text)
        except DataFormatError as exc:
            rejected += exc.line_no == line
    ok = stable and adv_stable and rejected == 4
    _report(11, "parser round-trip", ok,
            f"10k-line corpus stable={stable}, adversarial stable={adv_stable}, "
            f"rejected {rejected}/4 malformed")
    assert ok
