"""Benchmark of katyusha-h: four workloads, end-to-end or traced per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload seeds_lyapunov --seed 0 --seconds 15 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else.
Set-up is repeated and its median reported as ``setup_s``; the workload's
round is repeated until ``--seconds`` of round time has been spent and the
median round is ``norm_wall_s``.  Both are normalized to a reference machine
speed by a gauge kernel timed between operations (see calibration.py); the
raw seconds are in the details.  With ``--trace 1`` the same rounds run
once untraced and once traced (half the seconds each) and the per-layer
metrics come from the traced copy.  Every round's outputs are checked; the
last line of standard output is the result object, the line before it the
details (provenance, checks, raw times, reported figures).  Spans of a
traced run and the result are also written under ``.bench_out/<workload>/``.

    python3 benchmarks/smoke.py   # every workload once at toy sizes
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 10  # set-ups per run, median reported ...
SETUP_ONCE_ABOVE_S = 1.0  # ... but one when the first takes longer than this


def bootstrap() -> None:
    """Make ``src/`` of this checkout the only source of the package.

    Pins BLAS to one thread before numpy loads: the workloads are single
    process and single threaded.  Modules that import numpy (the package,
    ``workloads``, ``tracing``, ``calibration``) are imported only after
    this has run.
    """
    package = ROOT / "src" / "katyusha_h"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import katyusha_h

    if Path(katyusha_h.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: katyusha_h imported from {katyusha_h.__file__}, not {package}")


# -- provenance ------------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _last_level_cache() -> str | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    if best is None:
        return None
    level, size = best
    if size.endswith("K"):
        size = f"{int(size[:-1]) / 1024:g} MiB"
    return f"L{level} {size}"


def provenance(workload, seed: int, ctx: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = _last_level_cache()
    return {
        "git_sha": _git_sha() or "unavailable (not a git checkout)",
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
        "memory_note": (
            f"every working set fits in the last-level cache ({llc}); "
            "no workload measures memory bandwidth; byte figures are computed "
            "from array sizes, not measured"
        ),
        "workload_seed": seed,
        "inputs": workload.provenance(ctx),
    }


# -- measurement -----------------------------------------------------------------


def _no_tick() -> None:
    pass


def _timed(fn, *args, tracer=None, layers=(), root=""):
    """Call fn(*args) and time it; under a tracer, inside a root span."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out
    with tracer.installed(layers), tracer.span(root):
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
    return elapsed, out


@dataclass
class Rounds:
    """Raw and gauge-normalized seconds of each round, the gauge kernel
    times, the checked operations of each round, and the last raw output."""

    times: list[float] = field(default_factory=list)
    norm_times: list[float] = field(default_factory=list)
    gauge_s: list[float] = field(default_factory=list)
    checked: list[list] = field(default_factory=list)
    last: object = None


def _rounds(workload, ctx, *, seconds=None, count=None, tracer=None, layers=(),
            gauged=False) -> Rounds:
    """Run whole rounds until ``seconds`` of raw round time or ``count`` rounds.

    With ``gauged``, the workload's gauge kernel runs between its operations
    and normalizes the round time; otherwise normalized equals raw.
    """
    import calibration

    out = Rounds()
    while True:
        if gauged:
            watch = calibration.Stopwatch(workload.gauge)
            out.last = workload.round(ctx, watch.tick)
            watch.close()
            elapsed, norm = watch.raw_s, watch.norm_s
            out.gauge_s += watch.gauge_s[1:]
        else:
            elapsed, out.last = _timed(workload.round, ctx, _no_tick, tracer=tracer,
                                       layers=layers, root="bench.round")
            norm = elapsed
        out.times.append(elapsed)
        out.norm_times.append(norm)
        out.checked.append(workload.check(ctx, out.last))
        if (len(out.times) >= count) if count is not None else (sum(out.times) >= seconds):
            return out


def _exact_counts(rounds) -> None:
    """Fail every operation whose exact counts differ from the first round's."""
    first = [op.counts for op in rounds[0]]
    for ops in rounds[1:]:
        if len(ops) != len(first):
            for op in ops:
                op.ok, op.detail = False, "round has a different number of operations"
            continue
        for op, expected in zip(ops, first):
            if op.counts != expected:
                op.ok = False
                op.detail = f"counts {op.counts} differ from the first round's {expected}"


def execute(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
            workdir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, details)."""
    import calibration
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = workdir or OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.prepare(seed, toy, workdir)

    setup_tracer = None
    if trace:
        setup_tracer = tracing.Tracer()
        _, ctx = _timed(workload.setup, inputs, tracer=setup_tracer,
                        layers=tracing.SETUP_LAYERS, root="bench.setup")
    else:
        # Set-ups run back to back, gauged once before and once after.
        gauge_before = workload.gauge.measure()
        setup_times = []
        while True:
            elapsed, ctx = _timed(workload.setup, inputs)
            setup_times.append(elapsed)
            if len(setup_times) >= SETUP_REPS or setup_times[0] > SETUP_ONCE_ABOVE_S:
                break
        setup_scale = workload.gauge.reference_s / (
            0.5 * (gauge_before + workload.gauge.measure()))

    measured = _rounds(workload, ctx, seconds=seconds / 2 if trace else seconds,
                       gauged=not trace)
    rounds, last = list(measured.checked), measured.last
    if trace:
        phase = tracing.Tracer()
        traced = _rounds(workload, ctx, count=len(measured.times), tracer=phase,
                         layers=tracing.PHASE_LAYERS)
        rounds += traced.checked
        last = traced.last
    _exact_counts(rounds)

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if not op.ok]
    first = rounds[0]
    iterations = sum(op.iterations for op in first) or 1
    if trace:
        cached = ctx.get("cache", False)
        extra = {
            "estimator.ifo_minibatch": (sum(op.ifo_minibatch for op in first), "count"),
            "estimator.ifo_checkpoint": (sum(op.ifo_checkpoint for op in first), "count"),
            "estimator.cache_bytes": (ctx["problem"].A.nbytes if cached else 0, "B"),
            "trace.overhead_frac": (sum(traced.times) / sum(measured.times) - 1.0, "1"),
        }
        metrics = tracing.layer_metrics(setup_tracer, phase, len(traced.times), extra)
        tracing.save_spans(workdir / "spans.npz", setup=setup_tracer, phase=phase)
    else:
        wall = statistics.median(measured.norm_times)
        metrics = {
            "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
            "norm_wall_s": (wall, "s"),
            "norm_us_per_iter": (1e6 * wall / iterations, "us"),
            "work_per_op": (statistics.fmean(op.work for op in first), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "trace": int(trace),
        "error_rate": len(failed) / len(ops),
        "failures": [f"{op.label}: {op.detail}" for op in failed[:10]],
        "raw_setup_s_each": [] if trace else setup_times,
        "wall_s": statistics.median(measured.times),
        "us_per_iter": 1e6 * statistics.median(measured.times) / iterations,
        "round_s_each": measured.times,
        "norm_round_s_each": measured.norm_times,
        "gauge": workload.gauge.name,
        "gauge_s_median": statistics.median(measured.gauge_s) if measured.gauge_s else None,
        "traced_round_s_each": traced.times if trace else [],
        "iterations_per_round": iterations,
        "reported": workload.report(last),
        "provenance": provenance(workload, seed, ctx),
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, details = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT / args.workload / f"result_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "details": details}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
