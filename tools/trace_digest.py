"""Hash the trace records of a fixed grid of Katyusha-H runs.

A change that claims byte-identical output runs this script and compares its
digests with those recorded below: one per problem of the grid, over every
record of that problem's runs, and one over all runs.  The script exits 1
when any of them differs, and names on stderr each problem whose digest
moved:

    PYTHONPATH=src python tools/trace_digest.py [--verbose]

The grid is 3 problems x alpha in {0, 0.5, 0.75, 1} x b in {1, 3, 10, n} x
checkpoint cache on/off x an iteration stop and an epsilon stop (192 runs).
The wide problem (d = 300) makes the iteration-stopped runs cross the block
and span boundaries of the mini-batch draws at every b < n, with checkpoint
refreshes inside them.  ``--verbose`` prints one digest per run, so a
mismatch can be located.

OpenBLAS is pinned to one thread before numpy loads, as the benchmark pins
it, and the last line names that thread count.  With more threads, gemv on
the d = 300 rows sums in another order, so every one of its 64 runs (and the
digest) would depend on the machine.  Pinned, numpy 2.4.6 on x86-64 gives,
since trace_format 7,

    ls_l1: 64 runs sha256 78df3d6d465bef1e6d8bd71259cdfa0fdcb63ad4ba54e1a4c3b02ee4c9c055d8
    logistic_enet: 64 runs sha256 c3b6b0e117940c58046ab689a1ff0bc57a2c85622463d3246fd656c27ae030dc
    ls_sql2_wide: 64 runs sha256 d5b23f4b660e0a9d909d3d7ac2eed47e3a0acb0cbab93cb23a5c8e36364b499a
    all: 192 runs sha256 fd217045f648cc66d4e683c29c3ed8b498a1fcb63472aa7318d2e7732a0d5127
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import os
import re
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads

from katyusha_h import Regularizer, RunConfig, run, synthesize, with_reference  # noqa: E402

ALL = "all"
# problem name (ALL for every run) -> its recorded "<count> runs sha256 <hex>"
RECORDED = dict(re.findall(r"^ +(\w+): (\d+ runs sha256 [0-9a-f]{64})$", __doc__, re.M))
ALPHAS = (0.0, 0.5, 0.75, 1.0)
BATCHES = (1, 3, 10, None)  # None: b = n
STOPS = {
    "iterations": dict(iterations=1500, record_every=1),
    "epsilon": dict(epsilon=1e-7, max_iterations=30_000, record_every=5),
}


def problems() -> dict:
    """The grid's problems, each with a reference solution."""
    specs = {
        "ls_l1": (40, 6, "least_squares", 21, Regularizer.l1(0.02)),
        "logistic_enet": (40, 6, "logistic", 22, Regularizer.elastic_net(0.01, 0.02)),
        "ls_sql2_wide": (200, 300, "least_squares", 23, Regularizer.squared_l2(0.05)),
    }
    out = {}
    for name, (n, d, family, seed, reg) in specs.items():
        _, problem = synthesize(n, d, family, seed=seed, reg=reg)
        out[name] = with_reference(problem, tol=1e-10)
    return out


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(dataclasses.astuple(rec)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print one digest per run")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    lines = {}
    for name, problem in problems().items():
        part, first = hashlib.sha256(), count
        for alpha, b, cache, (stop, stopping) in itertools.product(
            ALPHAS, BATCHES, (False, True), STOPS.items()
        ):
            b = problem.n if b is None else b
            config = RunConfig(
                alpha=alpha, batch_size=b, cache_checkpoint_grads=cache, seed=count,
                lyapunov=True, **stopping,
            )
            one = digest(run(problem, config))
            total.update(one.encode())
            part.update(one.encode())
            count += 1
            if args.verbose:
                print(f"{name} alpha={alpha} b={b} cache={int(cache)} {stop}: {one}")
        lines[name] = f"{count - first} runs sha256 {part.hexdigest()}"
        print(f"{name}: {lines[name]}")
    lines[ALL] = f"{count} runs sha256 {total.hexdigest()}"
    print(f"{ALL}: {lines[ALL]} openblas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    moved = [name for name, line in lines.items() if RECORDED.get(name) != line]
    if moved:
        print(f"digest moved: {', '.join(moved)}", file=sys.stderr)
    return 1 if moved else 0

if __name__ == "__main__":
    sys.exit(main())
