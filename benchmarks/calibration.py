"""Fixed reference computations that gauge how fast the machine runs now.

On a 2-vCPU virtual machine (Intel Xeon at 2.1 GHz) the speed changes with
the neighbours' load: the same solver loop took anywhere from 30 to 77 us
per iteration, in spells of seconds to minutes, and 60-second averages still
spread by 12%.  A gauge kernel timed between the operations of a round sees
the same slowdown; dividing each stretch of work by the kernel times around
it and multiplying by the kernel's reference time gives seconds at the
reference speed.  Measured this way, 8-second averages spread by 1-3%.

The kernels never call the package, so no change to the package moves them.
Each workload uses the gauge whose work is shaped like its own: ``SOLVER``
mixes scalar random draws and small-vector arithmetic (the shape of a solver
step) with long-array math; ``SCAN`` is long-array math only (the shape of
a schedule scan).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

_LONG = np.arange(1.0, 20_001.0)


def _scalar_kernel() -> float:
    rng = np.random.Generator(np.random.Philox(key=1))
    x = np.zeros(20)
    a = np.ones(20)
    counts: dict[int, int] = {}
    acc = 0.0
    for _ in range(1500):
        j = int(rng.integers(0, 100))
        counts[j] = counts.get(j, 0) + 1
        x = 0.5 * x + 0.1 * a
        acc += float(x @ a)
    return acc


def _vector_kernel(repeats: int) -> float:
    acc = 0.0
    for _ in range(repeats):
        acc += float(np.cumsum(_LONG ** 0.37)[-1])
    return acc


@dataclass(frozen=True)
class Gauge:
    """A kernel and its median time on the reference machine (2 vCPUs,
    Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4)."""

    name: str
    kernels: tuple[Callable[[], float], ...]
    reference_s: float

    def measure(self) -> float:
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - t0


SOLVER = Gauge("solver", (_scalar_kernel, partial(_vector_kernel, 20)), 0.0125)
SCAN = Gauge("scan", (partial(_vector_kernel, 80),), 0.0135)


class Stopwatch:
    """Times stretches of work between runs of a gauge kernel.

    The caller calls ``tick()`` after every operation.  Once the current
    stretch has lasted ``MIN_STRETCH_S``, the tick closes it and runs the
    gauge kernel, whose own time is not part of any stretch.  A stretch's
    normalized time is its raw time times ``reference_s`` over the mean of
    the gauge times on either side of it.
    """

    MIN_STRETCH_S = 0.25  # the kernel costs ~15 ms

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.gauge_s = [gauge.measure()]
        self._t = time.perf_counter()

    def tick(self) -> None:
        stretch = time.perf_counter() - self._t
        if stretch < self.MIN_STRETCH_S:
            return
        self.gauge_s.append(self.gauge.measure())
        self._add(stretch, 0.5 * (self.gauge_s[-2] + self.gauge_s[-1]))
        self._t = time.perf_counter()

    def close(self) -> None:
        """Count the time since the last tick, gauged by the last kernel run."""
        self._add(time.perf_counter() - self._t, self.gauge_s[-1])

    def _add(self, stretch: float, gauge_s: float) -> None:
        self.raw_s += stretch
        self.norm_s += stretch * self.gauge.reference_s / gauge_s
