"""A meter of how fast the machine runs while the benchmark measures.

The speed of a shared machine drifts by tens of percent over seconds, which
moves every wall time with it. While the meter is on, a timer signal
interrupts the benchmark every INTERVAL_S seconds to time a fixed loop of
numpy operations on a 4-element array, the kind of per-object arithmetic
icp_lab does (about 0.5 ms, so 2.5 % of the run). A part's wall time divided
by the mean loop time sampled while it ran is that part's time in reference
loops, which the drift moves much less. The loop is benchmark code, so a
change to icp_lab moves a part's time in loops by the same factor as its
wall time.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
LOOP_N = 100
# a reference loop's time on a 2-vCPU x86-64 virtual machine (Python 3.11.7,
# numpy 2.4.6); converts a time in reference loops back into seconds
REFERENCE_LOOP_S = 0.5e-3
_VECTOR = np.arange(4.0)


def reference_loop_s() -> float:
    t0 = time.perf_counter()
    for _ in range(LOOP_N):
        np.log2(_VECTOR * 0.5 + 1.0).sum()
    return time.perf_counter() - t0


def sampled_loop_s() -> float:
    """Median of 20 reference loops timed back to back."""
    return statistics.median(reference_loop_s() for _ in range(20))


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def count(self) -> int:
        return len(self.samples)

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_loop_s())

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_s(self, first: int, end: int) -> float:
        """Mean loop time of samples first..end-1; for a part shorter than the
        interval, of the samples just before and after it."""
        window = self.samples[first:end] or self.samples[max(first - 1, 0):first + 1]
        return statistics.fmean(window) if window else reference_loop_s()
