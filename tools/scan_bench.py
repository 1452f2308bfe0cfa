"""Time the schedule scans: ``verify``'s four, in nanoseconds per scanned point.

The scans are the ones a round of the benchmark's verify_scan workload
runs: the certificate over the alpha grid of step ``GRID_STEP`` and b in
``BATCH_SIZES`` for t = 1 .. ``T_MAX``, the denominator growth scans at
alpha = 0.5 and alpha = 1, and the certificate with xi forced to 2, as
``verify --inject-fault xi=2`` runs it.  A scanned point is one (alpha, b, t)
of a certificate and one t of a growth scan.  Each scan reports the time of
each repeat and their median:

    PYTHONPATH=src python tools/scan_bench.py

To compare this tree with another, name the other tree's ``src`` directory:

    PYTHONPATH=src python tools/scan_bench.py --against ../parent/src

As in ``step_bench.py``, the other tree's package loads in the same process,
this tree runs first in even repeats, and per scan the JSON gives each
side's median and quartiles, the median per-repeat ratio this/other and in
how many repeats this tree was the faster.  The scans are deterministic, so
the two trees must print the same report: if a scan's ``to_text()`` differs,
the script names the scan and exits 1 after the JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import step_bench  # tools/ leads sys.path when a script in it runs

from katyusha_h import verification

GRID_STEP = 0.01
BATCH_SIZES = (1, 2, 10)
T_MAX = 100_000
REPEATS = 10  # ten pairs per scan with --against, as a gain claim needs


def scans(module) -> dict:
    """Scan name: (scan function, its arguments, its scanned points), from
    ``module``, a package's ``verification``."""
    grid = module.default_alpha_grid(step=GRID_STEP)
    schedule = dict(alpha_grid=grid, t_max=T_MAX, batch_sizes=BATCH_SIZES)
    cells = len(grid) * len(BATCH_SIZES)
    return {
        "certificate": (module.scan_schedule, schedule, cells * T_MAX),
        "growth alpha=0.5": (module.scan_denominator_growth, dict(alpha=0.5, t_max=T_MAX), T_MAX),
        "growth alpha=1": (module.scan_denominator_growth, dict(alpha=1.0, t_max=T_MAX), T_MAX),
        "fault xi=2": (module.scan_schedule, dict(schedule, xi_override=2.0), cells * T_MAX),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="another tree's src directory to scan in alternation with this one")
    args = parser.parse_args(argv)
    sides = {"this": verification}
    if args.against is not None:
        other = step_bench.load_package(args.against.resolve())
        sides["other"] = importlib.import_module(f"{other.__name__}.verification")
    plans = {side: scans(module) for side, module in sides.items()}
    out, differ = {}, []
    for name in plans["this"]:
        texts = {}

        def ns_per_point(side: str, seed: int) -> float:
            scan, kwargs, points = plans[side][name]
            start = time.perf_counter()
            report = scan(**kwargs)
            elapsed = time.perf_counter() - start
            texts[side] = report.to_text()
            return 1e9 * elapsed / points

        out[name] = step_bench.summarize(
            step_bench.alternate(sides, REPEATS, ns_per_point), unit="ns")
        if len(set(texts.values())) > 1:
            differ.append(name)
    print(json.dumps(out))
    if differ:
        sys.exit(f"error: the two trees report differently on {', '.join(differ)}")


if __name__ == "__main__":
    main()
