"""Host-speed calibration: wall times converted to reference seconds.

The benchmark runs on shared hosts whose speed changes under it: on the
two-vCPU VM it was tuned on, the same work took 1.0x to 1.8x its fastest
time, in states that last from tens of milliseconds to tens of seconds, and
a 35-second run could sit in the slow state throughout. Averaging longer
does not remove that; measuring the host's speed next to the work does.

A Calibrator runs a fixed kernel (plain Python and numpy matrix-vector
steps, none of it csdetect code) every INTERVAL_S of wall time while it is
running, from a SIGALRM interval timer, so the samples fall wherever the
program happens to be and do not depend on how csdetect structures its
work. The kernel's own time is cut out of every timed interval. The host's
slowdown at a sample is the median kernel time within WINDOW_S of it
divided by REFERENCE_S, the kernel's time at full speed on the tuning
machine. A timed interval in
reference seconds is the sum, over its stretches between kernel runs, of
each stretch's wall time divided by the slowdown of the sample nearest it.

A change to csdetect moves reference seconds as it moves wall seconds; a
change of host speed moves them only by the mismatch between the kernel's
slowdown and the program's.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1  # wall time between kernel runs
WINDOW_S = 1.0  # kernel samples within this distance are pooled into one slowdown
REFERENCE_S = 0.00283  # kernel wall time at full speed on the tuning machine (Xeon VM, 1 BLAS thread)

_rng = np.random.default_rng(0)
# (matrix, start vector, iterations): matrix-vector steps from smaller to
# larger than the default sensing matrix (112 x 368)
_STEPS = tuple(
    (_rng.standard_normal((rows, cols)), _rng.standard_normal(cols), iterations)
    for rows, cols, iterations in ((64, 256, 60), (112, 729, 20), (112, 3025, 5))
)


def kernel():
    """A few milliseconds of interpreter work and shrinkage-like numpy steps."""
    total = 0
    for i in range(6000):
        total += i * i
    for a, x0, iterations in _STEPS:
        x = x0.copy()
        for _ in range(iterations):
            r = a @ x
            x = x - 0.01 * (a.T @ r)
            x = np.sign(x) * np.maximum(np.abs(x) - 0.001, 0.0)
    return total


class Calibrator:
    def __init__(self):
        self.gaps = []  # (start, end) of every kernel run, in time order
        self._smoothed = None  # (run starts, sample times, slowdowns), computed on first use
        self._sampling = False

    def sample(self):
        """Run the kernel once and record its time."""
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.gaps.append((start, end))
        self._smoothed = None
        self._sampling = False

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S of wall time while inside. The handler
        runs in the main thread between bytecodes, so a sample waits for
        the numpy call in progress to return."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _slowdowns(self):
        if self._smoothed is None:
            mids = [(s + e) / 2.0 for s, e in self.gaps]
            durs = [e - s for s, e in self.gaps]
            slow = []
            for t in mids:
                lo = bisect.bisect_left(mids, t - WINDOW_S)
                hi = bisect.bisect_right(mids, t + WINDOW_S)
                slow.append(statistics.median(durs[lo:hi]) / REFERENCE_S)
            self._smoothed = ([s for s, _ in self.gaps], mids, slow)
        return self._smoothed

    def slowdown_at(self, t):
        _, mids, slow = self._slowdowns()
        i = bisect.bisect_left(mids, t)
        if i == len(mids) or (i > 0 and t - mids[i - 1] < mids[i] - t):
            i -= 1
        return slow[i]

    def median_slowdown(self):
        return statistics.median(self._slowdowns()[2])

    def measure(self, start, end):
        """(program wall seconds, reference seconds) of [start, end], kernel runs cut out."""
        if not self.gaps:
            raise RuntimeError("no calibration samples")
        starts = self._slowdowns()[0]
        i = max(0, bisect.bisect_left(starts, start) - 1)
        wall = ref = 0.0
        at = start
        for gap_start, gap_end in self.gaps[i:]:
            if gap_start >= end:
                break
            if gap_end <= at:
                continue
            if gap_start > at:
                wall += gap_start - at
                ref += (gap_start - at) / self.slowdown_at((at + gap_start) / 2.0)
            at = max(at, gap_end)
        if end > at:
            wall += end - at
            ref += (end - at) / self.slowdown_at((at + end) / 2.0)
        return wall, ref
