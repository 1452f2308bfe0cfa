"""Time the solver loop: ``optimizers.run`` microseconds per iteration.

Each shape is one of the benchmark's solver workloads: seeds_lyapunov's
(n=100, d=20, l1) at b = 1 and b = 10, sweep_crossover's (2000, 50, no
regularizer) at b = 1, and cli_sparse_cached's (10**4, 100, logistic
elastic net, checkpoint cache) at b = 100.  A repeat is one fixed-length
run, without Lyapunov values or epsilon tests, so the time is the steps'
plus one initial full gradient and two objective values.  Repeat r uses
seed r, so two commits run the same iterations:

    PYTHONPATH=src python tools/step_bench.py

To compare two commits, run the script from a checkout of each, alternating
which runs first, and compare the printed JSON.  OpenBLAS is pinned to one
thread before numpy loads, as the benchmark pins it, so the 10**4 x 100
shape's gemv runs as it does there; the JSON names the thread count.
"""

from __future__ import annotations

import json
import os
import statistics
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads

from katyusha_h import optimizers  # noqa: E402
from katyusha_h.problems import synthesize  # noqa: E402
from katyusha_h.proximal import Regularizer  # noqa: E402

# name: (synthesize arguments, run configuration, iterations per repeat);
# each repeat takes under half a second on a 2-vCPU Xeon.
SHAPES = {
    "100x20 l1 b=1": (
        dict(n=100, d=20, family="least_squares", seed=7, reg=Regularizer.l1(0.02)),
        dict(alpha=0.5, batch_size=1), 20_000),
    "100x20 l1 b=10": (
        dict(n=100, d=20, family="least_squares", seed=7, reg=Regularizer.l1(0.02)),
        dict(alpha=0.5, batch_size=10), 10_000),
    "2000x50 zero b=1": (
        dict(n=2000, d=50, family="least_squares", seed=20, condition=1e4),
        dict(alpha=0.5, batch_size=1), 15_000),
    "10000x100 logistic enet b=100": (
        dict(n=10_000, d=100, family="logistic", seed=1, density=0.2,
             reg=Regularizer.elastic_net(1e-4, 1e-4)),
        dict(alpha=1.0, batch_size=100, cache_checkpoint_grads=True), 2_000),
}
REPEATS = 5


def us_per_iteration(problem, config: dict, iterations: int, seed: int) -> float:
    """Wall time of one run of ``iterations`` steps, per step, in microseconds."""
    cfg = optimizers.RunConfig(**config, iterations=iterations, seed=seed,
                               record_every=iterations)
    start = time.perf_counter()
    optimizers.run(problem, cfg)
    return 1e6 * (time.perf_counter() - start) / iterations


def main() -> None:
    out = {"openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    for name, (data, config, iterations) in SHAPES.items():
        _, problem = synthesize(**data)
        runs = [us_per_iteration(problem, config, iterations, seed) for seed in range(REPEATS)]
        out[name] = {"median_us": statistics.median(runs), "runs": runs}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
