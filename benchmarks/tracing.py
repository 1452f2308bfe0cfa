"""Span tracer that instruments katyusha_h from outside the package.

The tracer replaces public functions and methods of the package with
wrappers that record one span per call (name, start, end, parent) in flat
in-memory arrays.  Nothing inside ``src/`` knows about it.  A layer's self
time is its span duration minus the part covered by its child spans; since
the benchmark is single-threaded, children nest strictly inside their parent
and that coverage is the sum of the direct children's durations.

Some boundaries also carry counters (rows touched, checkpoint outcomes,
reference-solve iterations, bytes written), recorded from each call's
arguments and result after the span has closed.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "katyusha_h"
ROOT_PREFIX = "bench."  # spans the benchmark opens itself, not a layer


# -- counters recorded at layer boundaries -----------------------------------


def _rows(problem, idx) -> int:
    return problem.n if isinstance(idx, slice) else len(idx)


def _grad_sum(c, args, kwargs, result):
    problem, idx = args[0], args[1]
    rows = _rows(problem, idx)
    c["problems.grad_sum.rows"] += rows
    c["problems.bytes_computed"] += 8 * rows * problem.d


def _value(c, args, kwargs, result):
    problem = args[0]
    c["problems.bytes_computed"] += 8 * problem.n * problem.d


def _component_grad_matrix(c, args, kwargs, result):
    problem = args[0]
    idx = args[2] if len(args) > 2 else kwargs.get("idx")
    rows = problem.n if idx is None else _rows(problem, idx)
    c["problems.bytes_computed"] += 8 * rows * problem.d


def _checkpoint_draw(c, args, kwargs, result):
    new, hit = result
    c["estimator.checkpoint.draws"] += 1
    if hit and new is args[0]:
        c["estimator.checkpoint.skips"] += 1  # provenance skip: w unchanged
    elif hit:
        c["estimator.checkpoint.refreshes"] += 1


def _run(c, args, kwargs, result):
    c["optimizers.iterations"] += result[-1].t


def _fista_solve(c, args, kwargs, result):
    _, _, gap, iterations = result
    c["problems.solve_reference.iterations"] += iterations
    c["problems.solve_reference.gap_achieved"] = max(
        c["problems.solve_reference.gap_achieved"], gap
    )
    if gap > kwargs["tol"]:
        c["problems.solve_reference.hit_cap"] = 1


def _scan(c, args, kwargs, result):
    c["verification.claims"] += len(result.claims)


def _write_trace(c, args, kwargs, result):
    c["experiment.write_trace.bytes"] += os.path.getsize(args[0])


@dataclass(frozen=True)
class Layer:
    """One traced boundary: span name, where the function lives, counters."""

    name: str
    owner: str  # "module" or "module:Class"
    attr: str
    observe: Callable | None = None
    span: bool = True  # False: count only, the caller's span keeps the time


# Boundaries traced while the benchmark sets up its inputs.  The reference
# solve is one span: its inner oracle calls are not traced, so its self time
# is the whole solve and the solver-phase oracle counts stay separate.
SETUP_LAYERS = (
    Layer("experiment.load_config", "experiment", "load_config"),
    Layer("experiment.build_problem", "experiment", "build_problem"),
    Layer("problems.parse_libsvm", "problems", "parse_libsvm"),
    Layer("problems.synthesize", "problems", "synthesize"),
    Layer("problems.solve_reference", "problems", "solve_reference"),
    Layer("problems.fista_solve", "optimizers", "fista_solve", _fista_solve, span=False),
)

# Boundaries traced while the benchmark runs the timed rounds.
PHASE_LAYERS = (
    Layer("schedule.scalar.advance", "schedule", "advance"),
    Layer("schedule.scalar.p_at", "schedule", "p_at"),
    Layer("schedule.scalar.tau_at", "schedule", "tau_at"),
    Layer("schedule.vector.alpha_sequence", "schedule", "alpha_sequence"),
    Layer("schedule.vector.denominator_sequence", "schedule", "denominator_sequence"),
    Layer("schedule.vector.p_sequence", "schedule", "p_sequence"),
    Layer("estimator.sample_subset", "estimator", "sample_subset"),
    Layer("estimator.svrg_estimate", "estimator", "svrg_estimate"),
    Layer("estimator.maybe_update_checkpoint", "estimator", "maybe_update_checkpoint",
          _checkpoint_draw),
    Layer("estimator.make_checkpoint", "estimator", "make_checkpoint"),
    Layer("problems.grad_sum", "problems:FiniteSumProblem", "grad_sum", _grad_sum),
    Layer("problems.full_grad", "problems:FiniteSumProblem", "full_grad"),
    Layer("problems.value", "problems:FiniteSumProblem", "value", _value),
    Layer("problems.component_grad_matrix", "problems:FiniteSumProblem",
          "component_grad_matrix", _component_grad_matrix),
    Layer("proximal.prox", "proximal", "prox"),
    Layer("optimizers.step", "optimizers", "katyusha_h_step"),
    Layer("optimizers.run", "optimizers", "run", _run),
    Layer("analysis.lyapunov", "analysis", "lyapunov"),
    Layer("analysis.check_lyapunov_bound", "analysis", "check_lyapunov_bound"),
    Layer("analysis.select_alpha", "analysis", "select_alpha"),
    Layer("verification.scan_schedule", "verification", "scan_schedule", _scan),
    Layer("verification.scan_denominator_growth", "verification",
          "scan_denominator_growth", _scan),
    Layer("experiment.run_single", "experiment", "run_single"),
    Layer("experiment.write_trace", "experiment", "write_trace", _write_trace),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans in flat arrays; installs and removes layer wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, layer: Layer, fn):
        counters = self.counters
        observe = layer.observe
        if not layer.span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(counters, args, kwargs, result)
                return result
            return counted
        perf = time.perf_counter
        open_, close = self._open, self._close
        name = layer.name

        def traced(*args, **kwargs):
            sid = open_(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid, t0, perf())
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self, layers) -> None:
        """Replace every reference to each layer's function inside the package.

        Modules that imported a function by name hold their own reference,
        so every ``katyusha_h`` module namespace is searched, not only the
        defining one.
        """
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for layer in layers:
            owner = _resolve(layer.owner)
            orig = vars(owner)[layer.attr]
            wrapper = self._wrap(layer, orig)
            for ns in namespaces + [owner]:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            ns, key, orig = self._patches.pop()
            setattr(ns, key, orig)

    @contextmanager
    def installed(self, layers):
        self.install(layers)
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        cover = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - cover
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }


def save_spans(path, **tracers: Tracer) -> None:
    """Write every tracer's spans to one .npz, keys prefixed by tracer name."""
    np.savez(path, **{f"{name}_{key}": value
                      for name, tracer in tracers.items()
                      for key, value in tracer.arrays().items()})


# -- per-layer metrics ---------------------------------------------------------

# Layers reported as calls / self_s / us_per_call.
TIMED = (
    "schedule.scalar.advance", "schedule.scalar.p_at", "schedule.scalar.tau_at",
    "schedule.vector.alpha_sequence", "schedule.vector.denominator_sequence",
    "schedule.vector.p_sequence",
    "estimator.sample_subset", "estimator.svrg_estimate",
    "problems.grad_sum", "problems.full_grad", "problems.value",
    "problems.component_grad_matrix",
    "proximal.prox", "optimizers.step", "analysis.lyapunov",
    "verification.scan_schedule", "verification.scan_denominator_growth",
    "experiment.write_trace",
)
# Layers reported by self time only.
SELF_ONLY = (
    "problems.parse_libsvm", "problems.synthesize", "problems.solve_reference",
    "optimizers.run", "analysis.check_lyapunov_bound", "analysis.select_alpha",
    "experiment.load_config", "experiment.build_problem",
)
# Counters reported per round, and their units.
ROUND_COUNTERS = {
    "estimator.checkpoint.draws": "count",
    "estimator.checkpoint.refreshes": "count",
    "estimator.checkpoint.skips": "count",
    "problems.grad_sum.rows": "count",
    "problems.bytes_computed": "B",
    "optimizers.iterations": "count",
    "verification.claims": "count",
    "experiment.write_trace.bytes": "B",
}
# Counters from the (single) traced set-up.
SETUP_COUNTERS = {
    "problems.solve_reference.iterations": "count",
    "problems.solve_reference.gap_achieved": "1",
    "problems.solve_reference.hit_cap": "count",
}


_SETUP_NAMES = {layer.name for layer in SETUP_LAYERS}


def layer_metrics(
    setup: "Tracer",
    phase: "Tracer",
    rounds: int,
    extra: dict[str, tuple[float, str]],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: phase figures per round, set-up figures per set-up.

    ``extra`` carries figures the tracer cannot see (ledger totals, cache
    bytes, tracing overhead); they are merged in unchanged.
    """
    phase_stats = phase.by_name()
    stats = {**setup.by_name(), **phase_stats}
    none = (0, 0.0, 0.0)
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        calls, _, self_s = stats.get(name, none)
        out[f"{name}.calls"] = (calls / rounds, "count")
        out[f"{name}.self_s"] = (self_s / rounds, "s")
        out[f"{name}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    for name in SELF_ONLY:
        per = 1 if name in _SETUP_NAMES else rounds
        out[f"{name}.self_s"] = (stats.get(name, none)[2] / per, "s")

    ckpt_self = sum(stats.get(n, none)[2] for n in
                    ("estimator.maybe_update_checkpoint", "estimator.make_checkpoint"))
    out["estimator.checkpoint.self_s"] = (ckpt_self / rounds, "s")
    for name, unit in ROUND_COUNTERS.items():
        out[name] = (phase.counters.get(name, 0.0) / rounds, unit)
    draws = phase.counters.get("estimator.checkpoint.draws", 0.0)
    refreshes = phase.counters.get("estimator.checkpoint.refreshes", 0.0)
    out["estimator.checkpoint.refresh_ratio"] = (
        refreshes / draws if draws else 0.0, "1")
    for name, unit in SETUP_COUNTERS.items():
        out[name] = (setup.counters.get(name, 0.0), unit)
    out["experiment.run_single.calls"] = (
        stats.get("experiment.run_single", none)[0] / rounds, "count")

    layer_self = sum(s[2] for n, s in phase_stats.items() if not n.startswith(ROOT_PREFIX))
    traced_wall = sum(s[1] for n, s in phase_stats.items() if n.startswith(ROOT_PREFIX))
    out["trace.coverage"] = (layer_self / traced_wall if traced_wall else 0.0, "1")
    out.update(extra)
    for name, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite: {value}")
    return out
