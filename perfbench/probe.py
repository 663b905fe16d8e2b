"""How fast this machine runs the interpreter, sampled while measuring.

On a shared virtual machine the CPU speed drifts by tens of percent between
and within runs (see README.md).  A fixed kernel of pure interpreter work,
timed next to the program, measures that drift so the benchmark can report
times at a reference speed.  This module imports only the standard library:
the set-up child process imports it before it imports the library.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

#: Wall time between two samples of `SpeedProbe`.
INTERVAL_S = 0.05
#: Mean time of one `kernel` at the reference speed.
REFERENCE_S = 0.00053
#: Samples a request's speed estimate uses at least.
WINDOW = 10


def kernel():
    """Fixed interpreter work that allocates nothing the collector tracks."""
    h = 0
    for i in range(5000):
        h = (h * 31 + i) % 1_000_003
    return h


def slowdown_now(samples=20) -> float:
    """Mean time of `samples` kernels over the reference (1.25: 25% slower)."""
    start = perf_counter()
    for _ in range(samples):
        kernel()
    return (perf_counter() - start) / samples / REFERENCE_S


class SpeedProbe:
    """Samples the speed every `INTERVAL_S` of wall time while entered.

    A SIGALRM handler times `kernel`, also in the middle of a request.
    `spent` is the time the handler took, which the client takes out of
    each latency.
    """

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.times.append(start)
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start=None, end=None) -> float:
        """Mean kernel time over the reference (1.25: 25% slower than it).

        Over the samples taken in [start, end], widened on both sides to at
        least `WINDOW` samples; over the whole run without bounds.
        """
        if not self.samples:
            self._sample(None, None)
        lo, hi = 0, len(self.samples)
        if start is not None:
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            while hi - lo < WINDOW and (lo > 0 or hi < len(self.times)):
                lo = max(lo - 1, 0)
                hi = min(hi + 1, len(self.times))
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_S
