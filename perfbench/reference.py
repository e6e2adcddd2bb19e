"""A fixed reference kernel that end-to-end host times are divided by.

Host speed on a shared machine swings by up to 2x in spells of seconds to
minutes, and CPU time swings with it.  The program's speed and this
kernel's swing together, so a span of program time divided by the kernel's
time measured next to it stays put while both swing.  The kernel uses
nothing from the program: a change to the program moves the program's
time, not the kernel's.

:func:`to_reference_s` converts measured seconds to *reference seconds*:
measured seconds x :data:`REFERENCE_S` / the kernel's measured time, that
is, the time the work would take on a host where the kernel takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: the kernel's time in the fast state of the 2-vCPU machine the benchmark
#: was built on (about its 10th percentile over 20 s of repeats)
REFERENCE_S = 0.0021
#: name of the span a traced run records around each kernel run
KERNEL_SPAN = "reference_kernel"


class _Event:
    __slots__ = ("time", "kind", "item")

    def __init__(self, time_us: float, kind: int, item: int) -> None:
        self.time = time_us
        self.kind = kind
        self.item = item

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class _Server:
    def __init__(self) -> None:
        self.busy_until = 0.0
        self.served = 0
        self.waits: list[float] = []

    def serve(self, time_us: float, duration_us: float) -> float:
        start = max(time_us, self.busy_until)
        self.waits.append(start - time_us)
        self.busy_until = start + duration_us
        self.served += 1
        return self.busy_until


def _heap_and_dict() -> int:
    heap: list[tuple[int, int]] = []
    sums: dict[int, int] = {}
    for i in range(1_500):
        heapq.heappush(heap, (i * 7919 % 10007, i))
        sums[i % 512] = sums.get(i % 512, 0) + i
    while heap:
        heapq.heappop(heap)
    return len(sums)


def _queueing() -> float:
    """A small event-driven queue: objects, a heap and a few numpy calls."""
    servers = [_Server() for _ in range(8)]
    events: list[_Event] = []
    now = 0.0
    for i in range(400):
        now += (i * 37 % 101) * 0.9
        heapq.heappush(events, _Event(now, 0, i))
    done = 0
    while events:
        event = heapq.heappop(events)
        if event.kind == 0:
            end = servers[event.item % 8].serve(event.time, 25.0 if event.item & 1 else 50.0)
            heapq.heappush(events, _Event(end, 1, event.item))
        else:
            done += 1
    served = np.array([s.served for s in servers], dtype=float)
    return float(served.mean()) + float(np.percentile(served, 99)) + done


def kernel_s() -> float:
    """Seconds one run of the kernel takes now (cyclic GC held off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _heap_and_dict()
        _queueing()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference_s(measured_s: float, kernel_measured_s: float) -> float:
    return measured_s * REFERENCE_S / kernel_measured_s


class Stopwatch:
    """Program time of one timed phase, in measured and reference seconds.

    The phase calls :meth:`lap` between steps of its work.  Once a
    segment of at least :data:`SEGMENT_S` has run, the kernel is timed and
    the segment is converted with it; the kernel's own time is left out of
    both totals.  :meth:`stop` closes the last segment the same way.  With
    a span ``recorder``, each kernel run is recorded as a
    :data:`KERNEL_SPAN` span of layer ``bench``, so that no layer's self
    time counts it.
    """

    SEGMENT_S = 0.03

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.measured_s = 0.0
        self.reference_s = 0.0
        self._start = time.perf_counter()

    def lap(self) -> None:
        if time.perf_counter() - self._start >= self.SEGMENT_S:
            self._close()

    def stop(self) -> None:
        self._close()

    def _close(self) -> None:
        segment = time.perf_counter() - self._start
        if self.recorder is None:
            kernel = kernel_s()
        else:
            span = self.recorder.begin("bench", KERNEL_SPAN)
            kernel = kernel_s()
            self.recorder.end(span)
        self.measured_s += segment
        self.reference_s += to_reference_s(segment, kernel)
        self._start = time.perf_counter()
