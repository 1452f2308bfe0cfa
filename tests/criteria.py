"""The statistical acceptance criteria's cells, defined once.

Each criterion gives its instance (synthesize arguments), reference solve
(with_reference arguments, or None), run settings besides alpha, b and the
seed, and the alphas, batch sizes and seeds it runs.  tests/test_acceptance.py
asserts the criteria on these, and tools/pair_bench.py's seeds suite times
one cell of each.
"""

from katyusha_h import Regularizer, select_alpha

CRITERION_05 = dict(
    instance=dict(n=100, d=20, family="least_squares", seed=7, reg=Regularizer.l1(0.02)),
    reference=dict(tol=1e-12),
    config=dict(iterations=1000, record_every=1000, lyapunov=True),
    alphas=(0.0, 0.5, 1.0), batch_sizes=(1, 10), seeds=range(100),
)
# consistent overdetermined-free quadratic: optimum value is exactly 0,
# the nonzero spectrum is tight, and nothing saturates by T = 10^4
CRITERION_06 = dict(
    instance=dict(n=200, d=400, family="least_squares", seed=10, consistent=True, noise=0.0),
    reference=None,
    config=dict(iterations=10_000, record_every=10_000),
    alphas=(0.0, 0.5, 1.0), batch_sizes=(1,), seeds=range(10),
)
CRITERION_09 = dict(
    instance=dict(n=500, d=10, family="least_squares", seed=9, noise=0.3),
    reference=None,
    config=dict(iterations=10_000, record_every=10_000),
    alphas=(0.5,), batch_sizes=(5,), seeds=range(50),
)
# ill-conditioned columns separate the regimes cleanly at this accuracy; the
# middle alpha is alpha* = select_alpha(n, epsilon, 2, 2) of this n and epsilon
CRITERION_10 = dict(
    instance=dict(n=2000, d=50, family="least_squares", seed=20, noise=0.1, condition=1e4),
    reference=dict(tol=1e-12, max_iterations=200_000),
    config=dict(epsilon=1e-5, record_every=10**9, eval_every=20, max_iterations=3_000_000),
    alphas=(0.0, select_alpha(2000, 1e-5, 2.0, 2.0), 1.0), batch_sizes=(1,), seeds=range(20),
)
