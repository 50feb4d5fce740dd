"""Machine-speed calibration for the benchmark's timings.

The shared machines the benchmark runs on change speed by a third and
more from one minute to the next, and every wall time of the
interpreter-bound program moves with them.  While a :class:`SpeedSampler`
is active, a timer signal interrupts the measured work every
``INTERVAL_S`` of wall time and runs a short fixed snippet: calls of two
float lambdas, the interpreter work geocon's integrators are made of,
allocating nothing, so that the state the program leaves in the heap does
not change the snippet's time.  Time spent in snippets is taken out of the
measured intervals.  A scaled time is a wall time times ``REFERENCE_S``
over the median snippet time sampled during it: seconds at the speed the
machine had when the reference was recorded.  Wall times are kept beside.
Snippets between jobs instead of on a timer tracked the fixture jobs but
not the sweep, whose stages last seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Median snippet time sampled during the workloads on the machine the
# baseline was recorded on (2 vCPU x86-64 container, Python 3.11), where
# scaled and wall times then agree.  Changing it rescales every timing.
REFERENCE_S = 0.0016
INTERVAL_S = 0.05


def _snippet_work():
    f = lambda a, b: a * 0.999 + b * 1e-3  # noqa: E731
    g = lambda a, b: b * 0.998 - a * 1e-3  # noqa: E731
    a, b = 0.1, 0.2
    for _ in range(8000):
        a, b = f(a, b), g(a, b)
    return a


def snippet() -> float:
    """Wall time of the calibration snippet, in seconds.  It runs once
    untimed first, to warm the caches the program's work evicted, and the
    garbage collector is paused meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _snippet_work()
        t0 = time.perf_counter()
        _snippet_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class WallClock:
    """Wall time only: ``since`` reports the wall time as the scaled time."""

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), 0

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        wall = time.perf_counter() - mark[0]
        return wall, wall


class SpeedSampler:
    """Context manager sampling the machine speed while work runs.

    ``since(mark)`` gives the (wall, scaled) seconds since ``mark()``, both
    without the time spent in snippets.  The scale comes from the median of
    the snippets sampled during the interval, or of the last ``WINDOW``
    snippets when the interval held fewer."""

    WINDOW = 20

    def __init__(self):
        self.snippets: list[float] = []
        self.spent = 0.0  # wall seconds spent in the signal handler

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.snippets.append(snippet())
        self.spent += time.perf_counter() - t0

    def mark(self) -> tuple[float, int]:
        return time.perf_counter() - self.spent, len(self.snippets)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        wall = time.perf_counter() - self.spent - mark[0]
        window = self.snippets[min(mark[1], len(self.snippets) - self.WINDOW) :] or [snippet()]
        return wall, wall * REFERENCE_S / statistics.median(window)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)
        return False
