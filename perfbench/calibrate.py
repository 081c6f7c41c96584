"""Host-speed calibration: a fixed pure-Python kernel timed through a run.

The benchmark runs on shared hosts whose CPU speed drifts by up to 1.6x,
both from one second to the next and from one minute to the next, with
nothing else running in the guest.  The end-to-end times of one run are
therefore scaled to a reference speed.  While a ``Speedometer`` is on, a
timer interrupts the benchmark every ``INTERVAL`` seconds, in set-up and in
the middle of units alike, and times the kernel below; the time spent in
these interruptions is left out of every measured interval
(``Speedometer.busy``).  Each unit's time is then multiplied by
``REFERENCE_SECONDS`` over the kernel's median time during that unit, over
at least ``MIN_SAMPLES`` kernel runs taken during and around it, and the
set-up times by the same ratio over all the set-ups.  A slower
package makes the units slower but not the kernel, so the scaled time still
rises; a slower host makes both slower, and the scaled time stays put.

The kernel does the kind of work the package does: a Dijkstra search with
``heapq`` over dict-held distances on a fixed sparse weighted graph of 2,000
vertices.  Its data stays in cache, so a run barely disturbs the unit it
interrupts.  A kernel over a 60,000-vertex graph that missed cache on
purpose scaled no better in the same runs and added 45 MB to
``peak_rss_mb``.  The kernel uses only the standard library, so no change
to the package can move it.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

# The kernel's time on the machine where the benchmark was written (a
# 2-vCPU Intel Xeon KVM guest, Python 3.11).  Scaled times read as seconds
# on that machine at its usual speed.
REFERENCE_SECONDS = 0.0075
INTERVAL = 0.25   # seconds between kernel runs; they take about 3% of the run
MIN_SAMPLES = 8   # kernel runs behind each factor, so short units are not left to one

_N, _DEGREE, _SEED = 2000, 6, 20261017


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(_SEED)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(_N)]

    def add(u: int, v: int) -> None:
        w = 0.5 + rng.random()
        adj[u].append((v, w))
        adj[v].append((u, w))

    for v in range(1, _N):
        add(rng.randrange(v), v)
    for _ in range(_N * _DEGREE // 2 - (_N - 1)):
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            add(u, v)
    return adj


_ADJ = _graph()


def _dijkstra(source: int) -> dict[int, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def kernel_seconds() -> float:
    """Wall seconds of one run of the kernel."""
    start = time.perf_counter()
    _dijkstra(0)
    return time.perf_counter() - start


class Speedometer:
    """Kernel times sampled on a timer through one run: a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0   # wall seconds spent in the timer's handler so far
        self._ticking = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # the timer fired again inside a slow kernel run
            return
        self._ticking = True
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would time the package's heap, not the host
        try:
            self.samples.append(kernel_seconds())
        finally:
            if collecting:
                gc.enable()
            self.busy += time.perf_counter() - start
            self._ticking = False

    def scale(self, start: int, stop: int, floor: int = 0) -> float:
        """Factor that takes wall seconds to reference seconds, from the
        kernel samples ``start`` to ``stop`` taken over the same stretch of
        the run, widened on both sides (not below ``floor``) until it holds
        ``MIN_SAMPLES``.  The median keeps a kernel run that was itself
        interrupted from moving the factor."""
        while stop - start < MIN_SAMPLES and (start > floor or stop < len(self.samples)):
            start, stop = max(start - 1, floor), min(stop + 1, len(self.samples))
        return REFERENCE_SECONDS / statistics.median(self.samples[start:stop])


for _ in range(3):  # warm the kernel's code and allocator before any timing
    kernel_seconds()
