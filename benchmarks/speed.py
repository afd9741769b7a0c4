"""Machine-speed probe: times a fixed kernel every 20 ms from an interval timer.

On a shared machine, other tenants' load can halve this process's speed
for seconds to minutes at a time. Steal time stays near zero, so CPU time
is slowed as much as wall time. The probe runs a fixed pure-Python kernel
from a SIGALRM handler throughout the run, inside long requests too, and
the caller runs it once more between requests.  Each measured interval is
then rescaled by REFERENCE_KERNEL_S over the kernel's 20%-trimmed mean time
in and next to it. The result is in reference seconds: what the
interval would have taken had the kernel run at its reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time
from statistics import fmean

INTERVAL_S = 0.02
# The kernel's typical time on an undisturbed core of the machine the
# benchmark was written on: 2 virtual cores of an Intel Xeon, CPython 3.11.
REFERENCE_KERNEL_S = 140e-6
WINDOW_S = 0.01  # kernel samples this close to an interval describe its speed
MIN_SAMPLES = 2
# The trimmed mean follows the average slowdown over a long request, as a
# plain mean does, without its pull toward single outliers.
TRIM = 0.2


def kernel() -> int:
    """Fraction-free elimination on a fixed 8x8 integer matrix, three times."""
    for _ in range(3):
        k = 8
        m = [[(i * 7 + j * 3) % 11 + (i == j) * 50 for j in range(k)] for i in range(k)]
        prev = 1
        for c in range(k - 1):
            pivot = m[c][c]
            for i in range(c + 1, k):
                head, row_i, row_c = m[i][c], m[i], m[c]
                for j in range(c + 1, k):
                    row_i[j] = (row_i[j] * pivot - head * row_c[j]) // prev
            prev = pivot
    return m[k - 1][k - 1]


class SpeedProbe:
    """Context manager: samples the kernel's time while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._ends: list[float] = []
        self._busy = False

    def tick(self, signum=None, frame=None) -> None:
        """Time the kernel once; also the SIGALRM handler."""
        if self._busy:  # the timer fired during a tick the caller ran
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self._ends.append(end)
        self.durations.append(end - start)
        self._busy = False

    def __enter__(self) -> SpeedProbe:
        for _ in range(MIN_SAMPLES):
            self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_time(self, start: float, end: float) -> float:
        """Trimmed mean kernel time within WINDOW_S of [start, end], from at
        least MIN_SAMPLES samples (the nearest ones when the window holds fewer)."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        window = sorted(self.durations[lo:hi])
        cut = int(len(window) * TRIM)
        return fmean(window[cut:len(window) - cut])

    def reference_seconds(self, start: float, end: float) -> float:
        """[start, end] less the probe's own time in it, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self._ends, end)
        own = sum(self.durations[lo:max(lo, hi)])
        return (end - start - own) * REFERENCE_KERNEL_S / self.kernel_time(start, end)
