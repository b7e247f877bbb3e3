"""Fixed reference computations that measure how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within seconds to minutes, whatever the library does.  The runner
interleaves a reference computation with the workload's units and scales
each timed interval by the reference's nominal time over the probe times
around the interval, so that a time reads as it would on a host where the
reference takes its nominal time.  No reference imports ``demandcast``: no
change to the library changes its cost, so a change that makes the library
faster or slower moves the scaled figures by the same share as the raw ones.

The host's slow spells do not slow every kind of code alike, nor both
cores alike, so each workload is scaled by the reference that resembles its
own work, run on each core its work runs on.  Within one long run on fixed
inputs, scaling by the matching reference cut the spread of 40-request
medians of ``forecast-rolling`` about fivefold and that of 20-export
medians of ``ingest-diagnose`` about threefold; a reference of another kind
added spread instead.  A probe on one core did not track the study, whose
two pool workers use both cores: it doubled the spread of the study's
figures in a calm hour, hence :func:`indexing_on_each_cpu`.
"""

from __future__ import annotations

import os
import statistics
import time
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

_rng = np.random.default_rng(20230814)
_SMALL = 0.1 * _rng.normal(size=(12, 12))
_WALK = np.cumsum(_rng.normal(size=3713))


def indexing() -> None:
    """Element-wise updates of a small NumPy matrix, as the Kalman filter runs without numba."""
    state = _SMALL.copy()
    for _ in range(150):
        for i in range(12):
            for j in range(12):
                state[i, j] = 0.5 * state[i, j] + 0.1 * _SMALL[j, i]


def indexing_on_each_cpu() -> None:
    """:func:`indexing` on each CPU this process may use in turn, for work that a pool spreads over all of them."""
    cpus = os.sched_getaffinity(0)
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            indexing()
    finally:
        os.sched_setaffinity(0, cpus)


def regressions() -> None:
    """Augmented Dickey-Fuller regressions on a 3713-day random walk, as the unit-root tests run them."""
    dx = np.diff(_WALK)
    for lag in range(0, 30, 2):
        y = dx[lag:]
        design = np.column_stack([_WALK[lag:-1], np.ones(y.size)] + [dx[lag - j: -j] for j in range(1, lag + 1)])
        np.linalg.lstsq(design, y, rcond=None)


# a scaled time reads as if the reference took this long; on a 2-vCPU Xeon
# (Sapphire Rapids) VM with single-threaded BLAS each takes 15-25 ms per CPU
NOMINAL_S = {
    indexing: 0.020,
    indexing_on_each_cpu: 0.020 * len(os.sched_getaffinity(0)),
    regressions: 0.020,
}


@dataclass
class HostClock:
    """Probes of one reference taken between timed intervals, and the scale each interval gets from them.

    An interval is scaled by the reference's nominal time over the mean
    probe time of the last probe before it, every probe inside it and the
    first probe after it.  Probes taken inside an interval are not part of
    its time; see :meth:`probed_within`.
    """

    reference: Callable[[], None]
    marks: list[tuple[float, float]] = field(default_factory=list)  # (end time, seconds)

    def mark(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.marks.append((t1, t1 - t0))

    def probed_within(self, start: float, end: float) -> float:
        """Seconds spent probing between ``start`` and ``end``."""
        return sum(seconds for t, seconds in self.marks if start <= t - seconds and t <= end)

    def scale(self, start: float, end: float) -> float:
        ends = [t for t, _ in self.marks]
        first = max(bisect_left(ends, start) - 1, 0)
        last = min(bisect_left(ends, end), len(self.marks) - 1)
        probes = [seconds for _, seconds in self.marks[first:last + 1]]
        return NOMINAL_S[self.reference] / statistics.mean(probes)
