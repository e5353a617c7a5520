"""Host-speed calibration for the benchmark's time metrics.

The benchmark was tuned on a 2-vCPU virtual machine (Intel Xeon, Linux 6.x
guest) whose speed swings by up to 1.6x in phases that last from seconds
to minutes, because other guests share the physical cores.  Steal time
stays near 1%, so the slowdown shows up as slower execution, in CPU time
as well as in wall time: one band-DP call (n=100, r=6) took between 171
and 288 ms within one minute.  No statistic taken inside a 20-second run
can remove a slow phase that lasts the whole run.

So fixed kernels, defined here and independent of the library, are timed
between items, and every item time is multiplied by the kernels' nominal
time divided by their time measured around the item.  Reported times are
in units of the reference host in a quiet phase.  Each workload uses the
kernels closest to its own work: a slowdown hits interpreter-bound
big-integer code and cache-bound numpy code to different degrees.  In 60
to 90 s of interleaved samples, the spread (IQR/median) of single calls
fell from 0.16-0.30 to 0.09-0.12 for band-DP calls (interpreter kernel)
and from 0.24-0.32 to 0.08-0.11 for Sinkhorn balances (dense kernel).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.25  # at most this long between kernel samples, between items
NEIGHBOURS = 2  # kernel samples taken on each side of an item

_BIG = 3**200  # DP state counts are integers of a few hundred bits
_DENSE = np.full((320, 320), 1.0 / 320)


def interpreter_kernel() -> int:
    """Dictionary updates with big-integer additions, like the band DP."""
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + _BIG
    return len(counts)


def dense_kernel() -> float:
    """Dense Sinkhorn sweeps on a matrix that outgrows the L2 cache."""
    row = np.ones(320)
    col = np.ones(320)
    for _ in range(8):
        row = 1.0 / (_DENSE @ col)
        col = 1.0 / (_DENSE.T @ row)
        balanced = row[:, None] * _DENSE * col[None, :]
        col = col / balanced.sum(axis=0)
    return float(col[0])


# name: (kernel, its time on the reference host in a quiet phase).  The
# times only fix the unit; they must never change once figures exist.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0038),
    "dense": (dense_kernel, 0.0034),
}


class Calibration:
    """The kernels that track one workload's speed, and their nominal time."""

    def __init__(self, names: tuple[str, ...]):
        self.kernels = [KERNELS[name][0] for name in names]
        self.nominal_s = sum(KERNELS[name][1] for name in names)

    def sample(self) -> float:
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return time.perf_counter() - start

    def factor_now(self) -> float:
        """Scale for a time measured just before this call."""
        return self.nominal_s / statistics.median(self.sample() for _ in range(3))


class SpeedLog:
    """Kernel samples along a run, and the scale for any interval of it."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.times: list[float] = []
        self.samples: list[float] = []

    def record(self) -> None:
        start = time.perf_counter()
        self.samples.append(self.calibration.sample())
        self.times.append(start)

    def record_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.record()

    def recent_factor(self) -> float:
        """Scale from the latest samples, for a time measured just now."""
        return self.calibration.nominal_s / statistics.median(self.samples[-NEIGHBOURS:])

    def factor(self, start: float, end: float) -> float:
        """Nominal kernel time over the median of the samples next to [start, end]."""
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = (
            self.samples[max(0, before - NEIGHBOURS):before]
            + self.samples[after:after + NEIGHBOURS]
        )
        return self.calibration.nominal_s / statistics.median(near)
