"""Time the solver loop: ``optimizers.run`` microseconds per iteration.

Each shape is one of the benchmark's solver workloads: seeds_lyapunov's
(n=100, d=20, l1) at b = 1 and b = 10, sweep_crossover's (2000, 50, no
regularizer) at b = 1, and cli_sparse_cached's (10**4, 100, logistic
elastic net, checkpoint cache) at b = 100.  A repeat is one fixed-length
run, without Lyapunov values or epsilon tests, so the time is the steps'
plus one initial full gradient and two objective values.  Repeat r uses
seed r, so two commits run the same iterations:

    PYTHONPATH=src python tools/step_bench.py

To compare this tree with another, name the other tree's ``src`` directory:

    PYTHONPATH=src python tools/step_bench.py --against ../parent/src

The other tree's package is loaded in the same process under a distinct
module name, so both sides run in one interpreter on one machine state;
separate processes can differ by a third on a shared machine.  Repeat r
runs both sides on seed r, this tree first when r is even and the other
first when r is odd.  Per shape the JSON gives each side's median and
quartiles, the median of the per-repeat ratios this/other, and in how many
repeats this tree was the faster.

OpenBLAS is pinned to one thread before numpy loads, as the benchmark pins
it, so the 10**4 x 100 shape's gemv runs as it does there; the JSON names
the thread count.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads

import katyusha_h  # noqa: E402

# name: (synthesize arguments, run configuration, iterations per repeat);
# each repeat takes under half a second on a 2-vCPU Xeon.  Regularizers are
# given as (constructor, weights), so each package builds its own.
SHAPES = {
    "100x20 l1 b=1": (
        dict(n=100, d=20, family="least_squares", seed=7, reg=("l1", 0.02)),
        dict(alpha=0.5, batch_size=1), 20_000),
    "100x20 l1 b=10": (
        dict(n=100, d=20, family="least_squares", seed=7, reg=("l1", 0.02)),
        dict(alpha=0.5, batch_size=10), 10_000),
    "2000x50 zero b=1": (
        dict(n=2000, d=50, family="least_squares", seed=20, condition=1e4),
        dict(alpha=0.5, batch_size=1), 15_000),
    "10000x100 logistic enet b=100": (
        dict(n=10_000, d=100, family="logistic", seed=1, density=0.2,
             reg=("elastic_net", 1e-4, 1e-4)),
        dict(alpha=1.0, batch_size=100, cache_checkpoint_grads=True), 2_000),
}
REPEATS = 16  # enough for quartiles and a sign count of the paired ratios


def load_package(src: Path, name: str = "katyusha_h_against"):
    """The ``katyusha_h`` package under ``src``, imported as ``name``.

    Its modules import one another relatively, so they all load under
    ``name`` and share nothing with this tree's package, nor with a tree
    loaded as ``name`` before.
    """
    init = src / "katyusha_h" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found")
    for module in [m for m in sys.modules if m.startswith(f"{name}.")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def problem_of(package, data: dict):
    """The shape's problem, built by ``package``'s own classes."""
    data = dict(data)
    kind, *weights = data.pop("reg", ("zero",))
    reg = getattr(package.Regularizer, kind)(*weights)
    return package.synthesize(**data, reg=reg)[1]


def us_per_iteration(package, problem, config: dict, iterations: int, seed: int) -> float:
    """Wall time of one run of ``iterations`` steps, per step, in microseconds."""
    optimizers = importlib.import_module(f"{package.__name__}.optimizers")
    cfg = optimizers.RunConfig(**config, iterations=iterations, seed=seed,
                               record_every=iterations)
    start = time.perf_counter()
    optimizers.run(problem, cfg)
    return 1e6 * (time.perf_counter() - start) / iterations


def _quartiles(runs: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3, "runs": runs}


def alternate(sides: dict, repeats: int, measure) -> dict[str, list[float]]:
    """``measure(side, seed)`` for each seed below ``repeats`` and each side,
    this tree first when the seed is even and the other first when it is odd."""
    runs: dict[str, list[float]] = {side: [] for side in sides}
    for seed in range(repeats):
        for side in list(sides) if seed % 2 == 0 else list(reversed(sides)):
            runs[side].append(measure(side, seed))
    return runs


def summarize(runs: dict[str, list[float]], unit: str = "us") -> dict:
    """This tree's median and runs; with another tree, each side's median and
    quartiles, the median of the per-repeat ratios this/other, and in how many
    repeats this tree was the faster.  ``unit`` suffixes the keys of times."""
    if len(runs) == 1:
        return {f"median_{unit}": statistics.median(runs["this"]), "runs": runs["this"]}
    ratios = [a / b for a, b in zip(runs["this"], runs["other"])]
    return {
        "this": _quartiles(runs["this"], unit),
        "other": _quartiles(runs["other"], unit),
        "median_ratio": statistics.median(ratios),
        "lower_in": f"{sum(r < 1.0 for r in ratios)} of {len(ratios)}",
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="another tree's src directory to run in alternation with this one")
    args = parser.parse_args(argv)
    sides = {"this": katyusha_h}
    if args.against is not None:
        sides["other"] = load_package(args.against.resolve())
    out: dict = {"openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    for name, (data, config, iterations) in SHAPES.items():
        problems = {side: problem_of(pkg, data) for side, pkg in sides.items()}
        runs = alternate(sides, REPEATS, lambda side, seed: us_per_iteration(
            sides[side], problems[side], config, iterations, seed))
        out[name] = summarize(runs)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
