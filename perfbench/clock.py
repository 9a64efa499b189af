"""A steady clock for a machine whose CPU speed drifts while it runs.

On a shared host the same Python work can take anywhere from 1x to 2x
its uncontended time, in phases lasting seconds to minutes, and CPU time
drifts with wall time.  `SteadyClock` samples the machine's current speed
every INTERVAL_S seconds of wall time by timing a small fixed probe from
a SIGALRM handler (no extra thread), and advances at wall rate times
`REF_PROBE_S / probe time`.  Its readings are "reference seconds": what
the interval would have taken on this host with the probe running at
`REF_PROBE_S`, i.e. uncontended.  The probe and the reference are part of
the benchmark and never change with the measured library, so only a change
of the library's own work moves steady readings.  Contention does not slow
every kind of work alike, so steady readings of one batch still differ by
a few percent between runs, where raw wall time differs by up to 2x.
"""

from __future__ import annotations

import gc
import signal
import time

# Probe time on an uncontended 2-core Xeon VM at CPython 3.11.  Short,
# frequent probes average the speed over an op better than long, rare ones.
REF_PROBE_S = 2.1e-5
INTERVAL_S = 0.004
_SIZE = 256
_parent = list(range(_SIZE))
_RESET = range(_SIZE)


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _probe() -> int:
    """Fixed union-find work with no allocation, so no collection runs in it."""
    parent = _parent
    parent[:] = _RESET
    joined = 0
    for k in range(100):
        a = _find(parent, (k * 37) & 255)
        b = _find(parent, (k * 101 + 7) & 255)
        if a != b:
            parent[a] = b
            joined += 1
    return joined


class SteadyClock:
    """Context manager; `now()` reads steady seconds while it is active."""

    def __init__(self):
        self._steady = 0.0
        self._last = time.perf_counter()
        self._speed = 1.0
        self._start_wall = self._last
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _probe()  # warms the probe's code and data after the interrupted work
            t1 = time.perf_counter()
            _probe()
            t2 = time.perf_counter()
        finally:
            if gc_was_on:
                gc.enable()
        self._steady += (t0 - self._last) * self._speed
        self._speed = REF_PROBE_S / (t2 - t1)
        self._last = t2

    def __enter__(self) -> "SteadyClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._last = self._start_wall = time.perf_counter()
        self._tick(signal.SIGALRM, None)  # the first interval needs a speed too
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def now(self) -> float:
        return self._steady + (time.perf_counter() - self._last) * self._speed

    def wall(self) -> float:
        """Raw wall seconds since the clock started."""
        return time.perf_counter() - self._start_wall
