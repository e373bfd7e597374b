"""Host speed, sampled from a timer signal; imports nothing but numpy, so a
child interpreter can use it without changing what its imports cost."""

import bisect
import signal
import time

import numpy as np

TICK_S = 0.01
HOST_NOMINAL_S = 35e-6  # the snippet's time at the fast speed; scaled times assume that speed

_PROBE_CDF = np.cumsum(np.full(8, 0.125))
_PROBE_U = np.linspace(0.0, 1.0, 20)


def _snippet() -> None:
    for u in _PROBE_U:
        int(np.searchsorted(_PROBE_CDF, u))


class HostSpeed:
    """How fast the host is running this process, sampled from a timer signal.

    The host shares its cores: the CPU alternates between a fast and a slow
    speed, up to 1.8x apart, every few seconds, and one call can span both.
    Every TICK_S a SIGALRM handler times a fixed snippet of Python-level numpy
    calls, like ewm's per-step code, after running it once so that the
    program's own cache footprint does not enter the timing.  A call's time is
    scaled by HOST_NOMINAL_S / (mean snippet time during the call), which takes
    out the host's speed and keeps the program's.  On a 2-core shared host the
    IQR/median of ten runs fell from 0.27 to 0.03-0.11 for detect's wall_s, and
    from 0.24 to 0.04 for the set-up time."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (time of tick, snippet seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        _snippet()  # warm the caches first, so only the host's speed is timed
        start = time.perf_counter()
        _snippet()
        self.ticks.append((start, time.perf_counter() - start))

    def snippet_s(self, start: float, end: float) -> float:
        """Mean snippet time over the ticks during [start, end], widened by two
        ticks on either side so that short calls get a few samples."""
        times = [t for t, _ in self.ticks]
        lo = max(0, bisect.bisect_left(times, start) - 2)
        hi = bisect.bisect_right(times, end) + 2
        window = [d for _, d in self.ticks[lo:hi]]
        return sum(window) / len(window) if window else HOST_NOMINAL_S

    def mean_s(self) -> float:
        """Mean snippet time over every tick so far."""
        return sum(d for _, d in self.ticks) / len(self.ticks) if self.ticks else HOST_NOMINAL_S

    def scaled_s(self, start: float, end: float) -> float:
        """The time from start to end at the host's fast speed."""
        return (end - start) * HOST_NOMINAL_S / self.snippet_s(start, end)
