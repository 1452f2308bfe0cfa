"""Time the block draws: ``DrawStream`` microseconds per iteration.

Each grid point (n, b) draws a fixed number of whole blocks of subsets and
coins, as a run does, and reports the time per iteration of each repeat and
their median.  Repeat r uses seed r, so two commits make the same draws:

    PYTHONPATH=src python tools/draw_bench.py

To compare this tree with another, name the other tree's ``src`` directory:

    PYTHONPATH=src python tools/draw_bench.py --against ../parent/src

As in ``step_bench.py``, the other tree's package loads in the same process,
repeat r draws on seed r on both sides, this tree first when r is even, and
per grid point the JSON gives each side's median and quartiles, the median
per-repeat ratio this/other and in how many repeats this tree was the faster.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time
from pathlib import Path

import step_bench  # tools/ leads sys.path when a script in it runs

from katyusha_h import estimator

# (n, b): blocks timed per repeat, under a second each on a 2-vCPU Xeon.
# At b = n - 1 a block is 3 iterations, and about one row in five has a
# rejected draw.  The last five points reject a share of draws large enough
# that most rows hold several rejections, and a fill lays its draws out
# again after each: 0.13% of draws at n = 10**7 (~4 per row at b = 3163),
# 2.2% at n = 10**8, 4.5% at n = 195,239,759, 9.1% at n = 390,471,332 and
# 25% at n = 3 * 2**30.
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
REPEATS = 10  # ten pairs per point with --against, as a gain claim needs


def us_per_iteration(module, n: int, b: int, blocks: int, seed: int) -> float:
    """The mean cost of one iteration's subset and coin, in microseconds,
    over ``blocks`` blocks after the first, drawn by ``module.DrawStream``."""
    stream = module.DrawStream(n, b, seed)
    stream.subset()  # the first block, drawn outside the timing
    iterations = blocks * stream._block
    start = time.perf_counter()
    for _ in range(iterations):
        stream.subset()
        stream.random()
    return 1e6 * (time.perf_counter() - start) / iterations


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="another tree's src directory to draw in alternation with this one")
    args = parser.parse_args(argv)
    sides = {"this": estimator}
    if args.against is not None:
        other = step_bench.load_package(args.against.resolve())
        sides["other"] = importlib.import_module(f"{other.__name__}.estimator")
    out = {}
    for (n, b), blocks in GRID.items():
        runs = step_bench.alternate(sides, REPEATS, lambda side, seed: us_per_iteration(
            sides[side], n, b, blocks, seed))
        out[f"{n},{b}"] = step_bench.summarize(runs)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
