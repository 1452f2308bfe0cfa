"""Time the block draws: ``DrawStream`` microseconds per iteration.

Each grid point (n, b) draws a fixed number of whole blocks of subsets and
coins, as a run does, and reports the time per iteration of each repeat and
their median.  Repeat r uses seed r, so two commits make the same draws:

    PYTHONPATH=src python tools/draw_bench.py

To compare two commits, run the script from a checkout of each, alternating
which runs first, and compare the printed JSON.
"""

from __future__ import annotations

import json
import statistics
import time

from katyusha_h.estimator import DrawStream

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
REPEATS = 5


def us_per_iteration(n: int, b: int, blocks: int, seed: int) -> float:
    """The mean cost of one iteration's subset and coin, in microseconds,
    over ``blocks`` blocks after the first."""
    stream = DrawStream(n, b, seed)
    stream.subset()  # the first block, drawn outside the timing
    iterations = blocks * stream._block
    start = time.perf_counter()
    for _ in range(iterations):
        stream.subset()
        stream.random()
    return 1e6 * (time.perf_counter() - start) / iterations


def main() -> None:
    out = {}
    for (n, b), blocks in GRID.items():
        runs = [us_per_iteration(n, b, blocks, seed) for seed in range(REPEATS)]
        out[f"{n},{b}"] = {"median_us": statistics.median(runs), "runs": runs}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
