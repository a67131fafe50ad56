"""Host speed sampler: takes the shared host's speed drift out of timings.

The benchmark runs on shared hosts whose speed drifts: on the 2-core VM
where it was defined, a fixed pure-Python loop took anywhere from 0.22 s to
0.36 s from one second to the next, and runs of identical work spread by a
quarter or more.  The drift comes and goes in seconds, so it cannot be
averaged out of a 20-second run, but it slows every piece of Python code on
the host alike.

A `Sampler` runs a fixed probe in a daemon thread every `INTERVAL` seconds
and records the probe's own CPU time, so waiting for the interpreter lock
does not count.  The probe is exact rational Gauss-Jordan elimination with
the standard library's `Fraction`, the kind of work smodlab does; a probe of
plain integer and dict operations, tried first, caught only part of the
drift (wall times rose about 1.2 times as fast as its cost).  `scale` turns
a wall time measured over [t0, t1] into the time the same work takes at
reference speed, where one probe takes `REFERENCE_PROBE_S`:

    scaled = wall * REFERENCE_PROBE_S / mean(probe times in [t0 - WINDOW, t1 + WINDOW])

A change to smodlab does not touch the probe, so it moves scaled times as it
moves wall times; the host's drift moves both the timing and the probes, and
cancels.  The probe costs about 0.4 ms of the measured thread's time every
`INTERVAL` (1%), the same on every commit.
"""

from __future__ import annotations

import bisect
import gc
import threading
import time
from array import array
from fractions import Fraction

INTERVAL = 0.04  # seconds between probes
WINDOW = 0.12  # probes this far either side of a timing also count for it
# thread CPU time of one probe at reference speed: about its median, run in
# the sampler thread, on the x86 VM (Python 3.11.7) where the benchmark was
# defined
REFERENCE_PROBE_S = 4.0e-4


# a fixed 4 x 5 rational matrix, full rank
_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 7 + 1, (i + 2 * j) % 5 + 1)
                      for j in range(5)) for i in range(4))


def probe() -> list:
    """Fixed exact rational work: Gauss-Jordan elimination of `_MATRIX`."""
    m = [list(row) for row in _MATRIX]
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Sampler:
    """Probe times in a background thread, between `start` and `stop`."""

    def __init__(self):
        self.times = array("d")  # perf_counter at the end of each probe
        self.costs = array("d")  # thread CPU time of each probe
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe",
                                        daemon=True)
        self._prefix = None

    def start(self):
        """Start probing; returns once the first probe is recorded."""
        self._thread.start()
        self._first.wait()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while True:
            # a collection the probe's allocations set off would scan the
            # checking thread's objects and land in the probe's time
            collecting = gc.isenabled()
            gc.disable()
            try:
                begin = time.thread_time()
                probe()
                cost = time.thread_time() - begin
            finally:
                if collecting:
                    gc.enable()
            self.costs.append(cost)
            self.times.append(time.perf_counter())
            self._first.set()
            if self._stop.wait(INTERVAL):
                return

    def _mean_cost(self, t0: float, t1: float) -> float:
        times = self.times
        n = len(times)
        if self._prefix is None or len(self._prefix) != n + 1:
            prefix = array("d", [0.0])
            for c in self.costs[:n]:
                prefix.append(prefix[-1] + c)
            self._prefix = prefix
        lo = bisect.bisect_left(times, t0 - WINDOW, 0, n)
        hi = bisect.bisect_right(times, t1 + WINDOW, 0, n)
        if lo == hi:  # no probe in the window: take the nearest one
            k = min(lo, n - 1)
            if k > 0 and t0 - times[k - 1] < times[k] - t1:
                k -= 1
            return self.costs[k]
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        """`seconds` of wall time measured over [t0, t1], at reference speed."""
        return seconds * REFERENCE_PROBE_S / self._mean_cost(t0, t1)

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than reference speed the host ran over [t0, t1]."""
        return self._mean_cost(t0, t1) / REFERENCE_PROBE_S
