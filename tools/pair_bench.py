"""Time one suite of cases on this tree, or pair it with another tree in one process.

    PYTHONPATH=src python tools/pair_bench.py step|draw|scan

The suites, each timed per case over repeats r = 0, 1, ... on seed r, so two
commits run the same iterations:

- ``step``: ``optimizers.run`` microseconds per iteration.  Each of
  ``SHAPES`` is one of the benchmark's solver workloads: seeds_lyapunov's
  (n=100, d=20, l1) at b = 1 and b = 10, sweep_crossover's (2000, 50, no
  regularizer) at b = 1, and cli_sparse_cached's (10**4, 100, logistic
  elastic net, checkpoint cache) at b = 100.  A repeat is one fixed-length
  run, without Lyapunov values or epsilon tests, so the time is the steps'
  plus one initial full gradient and two objective values.
- ``draw``: ``DrawStream`` microseconds per iteration.  Each (n, b) of
  ``GRID`` draws a fixed number of whole blocks of subsets and coins, as a
  run does.
- ``scan``: ``verify``'s four scans, in nanoseconds per scanned point: the
  ones a round of the benchmark's verify_scan workload runs.  They are the
  certificate over the alpha grid of step ``GRID_STEP`` and b in
  ``BATCH_SIZES`` for t = 1 .. ``T_MAX``, the denominator growth scans at
  alpha = 0.5 and alpha = 1, and the certificate with xi forced to 2, as
  ``verify --inject-fault xi=2`` runs it.  A scanned point is one
  (alpha, b, t) of a certificate and one t of a growth scan.

Alone, per case the JSON gives the median and each repeat's time.  To
compare this tree with another, name the other tree's ``src`` directory:

    PYTHONPATH=src python tools/pair_bench.py <suite> --against ../parent/src

The other tree's package is loaded in the same process under a distinct
module name, so both sides run in one interpreter on one machine state;
separate processes can differ by a third on a shared machine.  Repeat r
runs both sides on seed r, this tree first when r is even and the other
first when r is odd.  Per case the JSON gives each side's median and
quartiles, the median of the per-repeat ratios this/other, and in how many
repeats this tree was the faster.  The scans are deterministic, so the two
trees must print the same report: if a scan's ``to_text()`` differs, the
script names the scan and exits 1 after the JSON.

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
from functools import partial
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads

import katyusha_h  # noqa: E402

# step: name: (synthesize arguments, run configuration, iterations per
# repeat); each repeat takes under half a second on a 2-vCPU Xeon.
# Regularizers are given as (constructor, weights), so each package builds
# its own.
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

# draw: (n, b): blocks timed per repeat, under a second each on a 2-vCPU
# Xeon.  At b = n - 1 a block is 3 iterations, and about one row in five
# has a rejected draw.  The last five points reject a share of draws large
# enough that most rows hold several rejections, and a fill lays its draws
# out again after each: 0.13% of draws at n = 10**7 (~4 per row at
# b = 3163), 2.2% at n = 10**8, 4.5% at n = 195,239,759, 9.1% at
# n = 390,471,332 and 25% at n = 3 * 2**30.
GRID = {
    (100, 10): 100,
    (2000, 45): 30,
    (10**4, 100): 15,
    (65_536, 65_535): 4,
    (10**7, 3163): 4,
    (10**8, 10_001): 3,
    (195_239_759, 13_973): 3,
    (390_471_332, 19_760): 3,
    (3 * 2**30, 3): 5,
}

# scan: verify_scan's certificate grid and range
GRID_STEP = 0.01
BATCH_SIZES = (1, 2, 10)
T_MAX = 100_000

# 16 step runs are enough for quartiles and a sign count of the paired
# ratios; draw and scan take ten pairs per case with --against, as a gain
# claim needs
REPEATS = {"step": 16, "draw": 10, "scan": 10}


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


def step_cases(package) -> dict:
    """Shape name: the measure of one run on the shape's problem, built by
    ``package``'s own classes, in microseconds per iteration."""
    optimizers = importlib.import_module(f"{package.__name__}.optimizers")

    def measure(problem, config: dict, iterations: int, seed: int):
        cfg = optimizers.RunConfig(**config, iterations=iterations, seed=seed,
                                   record_every=iterations)
        start = time.perf_counter()
        optimizers.run(problem, cfg)
        return 1e6 * (time.perf_counter() - start) / iterations, None

    cases = {}
    for name, (data, config, iterations) in SHAPES.items():
        data = dict(data)
        kind, *weights = data.pop("reg", ("zero",))
        problem = package.synthesize(**data, reg=getattr(package.Regularizer, kind)(*weights))[1]
        cases[name] = partial(measure, problem, config, iterations)
    return cases


def draw_cases(package) -> dict:
    """"n,b": the measure of the mean cost of one iteration's subset and
    coin, in microseconds, over ``blocks`` blocks after the first, drawn by
    ``package``'s ``DrawStream``."""
    estimator = importlib.import_module(f"{package.__name__}.estimator")

    def measure(n: int, b: int, blocks: int, seed: int):
        stream = estimator.DrawStream(n, b, seed)
        stream.subset()  # the first block, drawn outside the timing
        iterations = blocks * stream._block
        start = time.perf_counter()
        for _ in range(iterations):
            stream.subset()
            stream.random()
        return 1e6 * (time.perf_counter() - start) / iterations, None

    return {f"{n},{b}": partial(measure, n, b, blocks) for (n, b), blocks in GRID.items()}


def scan_cases(package) -> dict:
    """Scan name: the measure of one scan by ``package``'s ``verification``,
    in nanoseconds per scanned point, with its report's text."""
    verification = importlib.import_module(f"{package.__name__}.verification")
    grid = verification.default_alpha_grid(step=GRID_STEP)
    schedule = dict(alpha_grid=grid, t_max=T_MAX, batch_sizes=BATCH_SIZES)
    certificate = (verification.scan_schedule, len(grid) * len(BATCH_SIZES) * T_MAX)
    growth = (verification.scan_denominator_growth, T_MAX)

    def measure(scan, points: int, kwargs: dict, seed: int):
        start = time.perf_counter()
        report = scan(**kwargs)
        elapsed = time.perf_counter() - start
        return 1e9 * elapsed / points, report.to_text()

    return {
        "certificate": partial(measure, *certificate, schedule),
        "growth alpha=0.5": partial(measure, *growth, dict(alpha=0.5, t_max=T_MAX)),
        "growth alpha=1": partial(measure, *growth, dict(alpha=1.0, t_max=T_MAX)),
        "fault xi=2": partial(measure, *certificate, dict(schedule, xi_override=2.0)),
    }


# suite: (its cases from a package, each a measure(seed) that returns a time
# and the report text or None; the unit that suffixes the keys of its times)
SUITES = {"step": (step_cases, "us"), "draw": (draw_cases, "us"), "scan": (scan_cases, "ns")}


def _quartiles(runs: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3, "runs": runs}


def summarize(runs: dict[str, list[float]], unit: str) -> dict:
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
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="another tree's src directory to run in alternation with this one")
    args = parser.parse_args(argv)
    packages = {"this": katyusha_h}
    if args.against is not None:
        packages["other"] = load_package(args.against.resolve())
    cases, unit = SUITES[args.suite]
    plans = {side: cases(package) for side, package in packages.items()}
    out: dict = {"openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    sides, differ = list(plans), []
    for name in plans["this"]:
        runs: dict[str, list[float]] = {side: [] for side in sides}
        texts = {}
        for seed in range(REPEATS[args.suite]):
            for side in sides if seed % 2 == 0 else sides[::-1]:
                value, texts[side] = plans[side][name](seed)
                runs[side].append(value)
        out[name] = summarize(runs, unit)
        if len(set(texts.values())) > 1:
            differ.append(name)
    print(json.dumps(out))
    if differ:
        sys.exit(f"error: the two trees report differently on {', '.join(differ)}")


if __name__ == "__main__":
    main()
