"""Exhaustive-oracle outputs pinned bit for bit.

The enumeration oracles are the ground truth for the estimator and descent
claims, so any change to how they walk the subsets must leave their results
unchanged to the last bit.  Each expected value is the ``repr`` of a Python
float or list of floats.
"""

import numpy as np
import pytest

from katyusha_h.estimator import (
    IfoLedger,
    enumeration_mean_estimate,
    exact_variance,
    make_checkpoint,
)
from katyusha_h.optimizers import RunConfig, init_state, katyusha_h_step
from katyusha_h.problems import make_rng, synthesize, with_reference
from katyusha_h.proximal import Regularizer
from katyusha_h.verification import (
    exact_conditional_lyapunov_descent,
    verify_variance_bound,
)

FAMILIES = ("least_squares", "logistic")
N, D = 6, 3


def _problem(family):
    return synthesize(N, D, family, seed=6)[1]


def _estimator_outputs(family, b):
    prob = _problem(family)
    rng = make_rng(21)
    w, x = rng.standard_normal(D), rng.standard_normal(D)
    ckpt = make_checkpoint(w, prob, IfoLedger())
    return (
        repr(float(exact_variance(x, ckpt, b, prob))),
        repr(enumeration_mean_estimate(x, ckpt, b, prob).tolist()),
    )


def _descent_pairs(b, steps=5):
    _, prob = synthesize(6, 4, "least_squares", seed=3, reg=Regularizer.l1(0.05))
    with_reference(prob, tol=1e-12)
    state = init_state(prob, RunConfig(alpha=0.75, batch_size=b, iterations=1, seed=2))
    pairs = []
    for _ in range(steps):
        expected, current = exact_conditional_lyapunov_descent(state, prob)
        pairs.append(repr((float(expected), float(current))))
        katyusha_h_step(state, prob)
    return pairs


def _variance_claim(family):
    prob = _problem(family)
    rng = make_rng(12)
    points = [(rng.standard_normal(D), rng.standard_normal(D)) for _ in range(4)]
    report = verify_variance_bound(prob, points, (1, 2, 3))
    (claim,) = (c for c in report.claims if c.claim == "variance-bound")
    return repr(claim)


ESTIMATOR = {
    ("least_squares", 1): (
        "21.56044204691275",
        "[1.1583891780578688, -1.4551275305146572, -0.7451683150949853]",
    ),
    ("least_squares", 2): (
        "8.624176818765099",
        "[1.1583891780578683, -1.4551275305146567, -0.7451683150949848]",
    ),
    ("least_squares", 3): (
        "4.312088409382549",
        "[1.1583891780578683, -1.4551275305146567, -0.7451683150949853]",
    ),
    ("least_squares", 6): (
        "0.0",
        "[1.1583891780578688, -1.4551275305146572, -0.7451683150949853]",
    ),
    ("logistic", 1): (
        "0.5848033177526591",
        "[-0.05113173975082719, 0.08999781262657525, 0.03751419954237489]",
    ),
    ("logistic", 2): (
        "0.23392132710106364",
        "[-0.0511317397508273, 0.08999781262657514, 0.03751419954237489]",
    ),
    ("logistic", 3): (
        "0.11696066355053185",
        "[-0.05113173975082719, 0.08999781262657502, 0.03751419954237489]",
    ),
    ("logistic", 6): (
        "0.0",
        "[-0.05113173975082719, 0.08999781262657525, 0.03751419954237489]",
    ),
}

DESCENT = {
    1: [
        "(10.010246231998245, 11.80315115660136)",
        "(8.637940026757786, 10.010246231998243)",
        "(8.108203231079125, 9.169374277593272)",
        "(6.501873290502957, 7.144197753535013)",
        "(6.535878001467289, 7.0968809972032965)",
    ],
    3: [
        "(8.41336703327279, 10.2062719578759)",
        "(7.104277556599486, 8.413367033272786)",
        "(6.060073325839518, 6.933648567592123)",
        "(5.938271312525374, 6.547851535187829)",
        "(6.357378509028904, 6.849537393025616)",
    ],
}

VARIANCE_CLAIM = {
    "least_squares": (
        "ClaimResult(claim='variance-bound', domain='4 points, b in {1, 2, 3}', "
        "min_slack=0.30751154806525866, worst_at='(point 0, b=1)', tolerance=1e-09)"
    ),
    "logistic": (
        "ClaimResult(claim='variance-bound', domain='4 points, b in {1, 2, 3}', "
        "min_slack=0.0772325670458062, worst_at='(point 1, b=3)', tolerance=1e-09)"
    ),
}


@pytest.mark.parametrize("b", [1, 2, 3, N])
@pytest.mark.parametrize("family", FAMILIES)
def test_estimator_oracles_bit_identical(family, b):
    assert _estimator_outputs(family, b) == ESTIMATOR[family, b]


@pytest.mark.parametrize("b", [1, 3])
def test_descent_oracle_bit_identical(b):
    assert _descent_pairs(b) == DESCENT[b]


@pytest.mark.parametrize("family", FAMILIES)
def test_variance_bound_claim_bit_identical(family):
    assert _variance_claim(family) == VARIANCE_CLAIM[family]
