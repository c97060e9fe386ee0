"""A clock that runs in reference seconds: wall time corrected for host speed.

The machines this benchmark runs on are shared.  On a shared 2-core
machine (Python 3.11.7) the same pure-Python loop took 1.0 to 1.7 times
its quiet time, in slow episodes of 2 to 6 seconds that covered about a
third of the time, and the wall times of one workload spread by 20 to
34 % from run to run.

`SpeedClock` runs a fixed calibration loop every 50 ms from a SIGALRM
handler in the process it times, so on the same core as the work.  The loop
is the engine's own inner step (compose two permutation tuples, hash the
result into a dict), so a host slowdown that hits the engine hits the loop
alike.  The clock advances REF_S / (median of the last three calibration
times) reference seconds per second; the calibration itself (about 0.4 %
of the time) is left out.  On a quiet host, one reference second is about
one second.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REF_S = 200e-6   # the calibration loop's time on the quiet 2-core host
_P = tuple(range(12))[::-1]
_Q = (3, 1, 4, 0, 5, 9, 2, 6, 11, 8, 7, 10)


def _calibration_loop():
    seen = {}
    x = _P
    for i in range(150):
        x = tuple(map(_Q.__getitem__, x))
        seen[x] = i


class SpeedClock:
    """Reference seconds since start(); one per process, main thread only."""

    def __init__(self):
        self._recent: list[float] = []
        self._factor = 1.0
        self._last = 0.0    # perf_counter() when the clock was last advanced
        self._ref = 0.0     # reference seconds up to _last
        self.calibration_s = 0.0
        self._old_handler = None

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop()
        t1 = time.perf_counter()
        self._recent = (self._recent + [t1 - t0])[-3:]
        self._factor = REF_S / statistics.median(self._recent)
        self.calibration_s += t1 - t0
        return t1

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._ref += (t0 - self._last) * self._factor
        self._last = self._calibrate()

    def start(self):
        for _ in range(3):  # a first median before the first tick
            self._last = self._calibrate()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._last) * self._factor

    def mark(self) -> tuple:
        return self.now(), time.perf_counter(), self.calibration_s

    def mean_factor(self, mark: tuple) -> float:
        """Reference seconds per second of work since mark()."""
        ref0, raw0, cal0 = mark
        work = time.perf_counter() - raw0 - (self.calibration_s - cal0)
        return (self.now() - ref0) / work if work > 0 else self._factor
