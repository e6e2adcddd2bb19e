"""Discrete-event simulation core.

A deliberately small DES kernel: an event heap plus priority-queued
:class:`Resource` objects.  Jobs acquire one resource at a time for a fixed
duration; when a resource frees it grants the highest-priority waiter.

Priorities are tuples ordered ascending; the simulator uses
``(priority_class, enqueue_time, seq)`` so that reads (class 0) overtake
garbage collection (class 1) and writes (class 2) that have not yet started —
the paper's "read operations ... have priority to respond because of the
lower flash chip accessing time".  A job already holding the resource is
never preempted (flash commands are not interruptible).

Heap entries are ``(when, seq, callback, weak)`` and dispatch in
``(when, seq)`` order; ``seq`` is the order of scheduling, so same-time
events run first-scheduled first.  Two rules keep the heap small without
changing that order:

* **A hold is one event.**  ``Resource.acquire(..., then=cont)`` stores the
  holder's continuation with the job; at ``free_at`` one event runs
  ``cont()`` and then the release (which grants the next waiter).  This is
  exactly the order of scheduling the continuation and the release as two
  events: both would sit at ``free_at`` with adjacent sequence numbers
  (continuation first), so nothing could dispatch between them, and every
  event the continuation schedules at ``free_at`` gets a later sequence
  number and already ran after the release.
* **Sorted batches are fed lazily.**  :meth:`EventLoop.schedule_sorted`
  reserves one sequence number per entry at call time — the numbers
  ``schedule`` would have handed out in a loop over the batch — but keeps
  only the next pending entry in the heap; dispatching entry *i* pushes
  entry *i + 1* before running *i*.  The batch is sorted by ``(when,
  seq)``, the heap's own key, so the heap minimum is always the minimum
  over the heap plus every entry not yet pushed, and dispatch order is
  unchanged.

``events_processed`` therefore counts heap events dispatched: one per
hold, one per arrival, plus the simulator's other callbacks.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Sequence, TypeVar

__all__ = ["EventLoop", "Resource", "PRIO_READ", "PRIO_GC", "PRIO_WRITE"]

PRIO_READ = 0
PRIO_GC = 1
PRIO_WRITE = 2

T = TypeVar("T")


class EventLoop:
    """Minimal event loop: schedule callbacks at absolute times."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None], bool]] = []
        #: sequence numbers handed out so far (reserved batch entries too)
        self._next_seq = 0
        self._weak_pending = 0
        #: reserved :meth:`schedule_sorted` entries not yet in the heap
        self._unfed = 0
        #: entries discarded without dispatch (trailing weak events)
        self._dropped = 0
        self.now = 0.0
        #: optional :class:`repro.analysis.Sanitizer`; when set, every event
        #: dispatch is checked for simulated-time monotonicity.
        self.sanitizer = None

    #: scheduling times this close below ``now`` are float-rounding residue
    #: from summed phase durations, not logic errors; they clamp to ``now``.
    TIME_EPSILON = 1e-9

    @property
    def events_processed(self) -> int:
        """Heap events dispatched so far.

        Every entry gets one sequence number and is dispatched, still
        pending, or dropped undispatched, so the count is derived rather
        than kept per event (and stays exact mid-run for samplers).
        """
        return self._next_seq - len(self._heap) - self._unfed - self._dropped

    def _clamp_us(self, when: float) -> float:
        if self.now - when > self.TIME_EPSILON:
            raise ValueError(f"cannot schedule in the past ({when} < {self.now})")
        return self.now

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when`` (>= now).

        ``when`` within :data:`TIME_EPSILON` below ``now`` clamps to ``now``
        (chained ``start + duration`` arithmetic can round a hair under the
        current time); anything further in the past raises.
        """
        if when < self.now:
            when = self._clamp_us(when)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback, False))

    def schedule_sorted(
        self, whens_us: Sequence[float], callback: Callable[[T], None],
        args: Sequence[T],
    ) -> None:
        """Run ``callback(args[i])`` at absolute time ``whens_us[i]``.

        ``whens_us`` must be non-decreasing.  The batch orders exactly as
        ``for i: schedule(whens_us[i], ...)`` would — its sequence numbers
        are reserved now, in index order — but only the next pending entry
        sits in the heap (see the module docstring), so a long arrival
        trace neither deepens the heap nor needs a callable per entry.
        Times in the past raise (or clamp) as in :meth:`schedule`.
        """
        n = len(whens_us)
        if n == 0:
            return
        if any(b < a for a, b in zip(whens_us, whens_us[1:])):
            raise ValueError("schedule_sorted needs non-decreasing times")
        if whens_us[0] < self.now:
            floor_us = self._clamp_us(whens_us[0])
            whens_us = [max(when_us, floor_us) for when_us in whens_us]
        base = self._next_seq
        self._next_seq = base + n
        self._unfed += n - 1
        heap = self._heap
        index = 0

        def dispatch() -> None:
            nonlocal index
            i = index
            index = i + 1
            if index < n:
                self._unfed -= 1
                heapq.heappush(heap, (whens_us[index], base + index, dispatch, False))
            callback(args[i])

        heapq.heappush(heap, (whens_us[0], base, dispatch, False))

    def schedule_weak(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule a *weak* event: one that never keeps the loop alive.

        Weak events dispatch normally while ordinary ("strong") work is
        pending, but once the heap holds only weak events an unbounded
        :meth:`run` drops them without dispatch — so periodic samplers
        scheduled this way can never extend ``now`` past the last real
        event and never perturb a run's makespan.  Bounded runs
        (``run(until=...)``) dispatch weak events up to the horizon like
        any other event.
        """
        if when < self.now:
            when = self._clamp_us(when)
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback, True))
        self._weak_pending += 1

    def every(self, interval_us: float, fn: Callable[[], None]) -> None:
        """Weakly invoke ``fn()`` every ``interval_us`` of simulated time.

        The metronome re-arms only while strong work remains pending, so
        two concurrent samplers cannot keep each other alive: the tick
        chain dies with the last real event and any trailing weak tick is
        dropped by :meth:`run`.
        """
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")

        def tick() -> None:
            fn()
            if self.pending_strong:
                self.schedule_weak(self.now + interval_us, tick)

        self.schedule_weak(self.now + interval_us, tick)

    @property
    def pending_strong(self) -> int:
        """Number of pending events that keep the loop alive."""
        return len(self._heap) - self._weak_pending + self._unfed

    def run(self, until: float | None = None) -> None:
        """Process events until the heap drains (or ``until`` is reached).

        An unbounded run stops as soon as only weak events remain (see
        :meth:`schedule_weak`): the trailing weak events are discarded
        without dispatch, leaving ``now`` at the last strong event.
        """
        heap = self._heap
        pop = heapq.heappop
        sanitizer = self.sanitizer
        while heap:
            if until is None and self._weak_pending == len(heap):
                self._dropped += len(heap)
                heap.clear()
                self._weak_pending = 0
                break
            if until is not None and heap[0][0] > until:
                break
            when, _, callback, weak = pop(heap)
            if weak:
                self._weak_pending -= 1
            if sanitizer is not None:
                sanitizer.on_event(when, self.now)
            self.now = when
            callback()

    def __bool__(self) -> bool:
        return bool(self._heap)


class Resource:
    """A serially-reusable resource with priority-ordered waiters.

    ``acquire`` grants immediately when idle, otherwise parks the job in a
    priority heap.  The holder calls nothing explicitly: the resource
    schedules one event at ``start + duration`` that runs the job's ``then``
    continuation (if any), releases, and grants the next waiter.
    ``on_grant`` callbacks receive the grant time.  A traced hold is one
    ``{kind}_acquire`` record whose ``dur_us`` fixes its release time.
    """

    __slots__ = (
        "loop", "name", "busy", "free_at", "_waiters", "_seq", "_then",
        "busy_time_us", "grants", "wait_time_us", "gc_busy_time_us",
        "trace", "kind", "sanitizer",
    )

    def __init__(self, loop: EventLoop, name: str = "", kind: str = "resource") -> None:
        self.loop = loop
        self.name = name
        self.busy = False
        self.free_at = 0.0
        self._waiters: list[tuple[
            tuple, int, float, float,
            Callable[[float], None] | None, Callable[[], None] | None,
        ]] = []
        self._seq = count()
        #: the current holder's continuation, run by the release event
        self._then: Callable[[], None] | None = None
        # --- statistics ---
        self.busy_time_us = 0.0
        self.grants = 0
        self.wait_time_us = 0.0
        #: busy time booked for *internal* (GC-priority) work — copyback,
        #: erase, fault relocation.  Booked at grant time by the caller
        #: (see ``SSDSimulator._charge_gc``); latency attribution samples
        #: the delta across a host job's wait to separate GC stall from
        #: plain queueing.
        self.gc_busy_time_us = 0.0
        # --- observability (no-op unless a recorder is attached) ---
        #: optional :class:`repro.obs.trace.TraceRecorder`; when set, each
        #: grant emits ``{kind}_acquire`` with the service duration, which
        #: is the whole hold: the release runs at ``ts_us + dur_us``.
        self.trace = None
        self.kind = kind
        #: optional :class:`repro.analysis.Sanitizer`; when set, every
        #: grant is checked for mutual exclusion against shadow state.
        self.sanitizer = None

    def acquire(
        self,
        priority: tuple,
        duration_us: float,
        on_grant: Callable[[float], None] | None,
        then: Callable[[], None] | None = None,
    ) -> None:
        """Request the resource for ``duration_us`` at ``priority`` (lower first).

        ``on_grant(start_us)`` (if given) fires when the job begins
        service.  At ``start_us + duration_us`` one event runs ``then()``
        (if given) while the job still holds the resource, then releases
        it and grants the next waiter.
        """
        if duration_us < 0:
            raise ValueError("duration must be non-negative")
        if not self.busy:
            self._grant(self.loop.now, duration_us, on_grant, then, self.loop.now)
        else:
            heapq.heappush(
                self._waiters,
                (priority, next(self._seq), self.loop.now, duration_us, on_grant, then),
            )

    @property
    def queue_depth(self) -> int:
        """Number of jobs currently waiting (excludes the holder)."""
        return len(self._waiters)

    def _grant(
        self,
        start_us: float,
        duration_us: float,
        on_grant: Callable[[float], None] | None,
        then: Callable[[], None] | None,
        enqueued_us: float,
    ) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_grant(self, start_us, duration_us)
        self.busy = True
        self.free_at = free_at = start_us + duration_us
        self.busy_time_us += duration_us
        self.grants += 1
        self.wait_time_us += start_us - enqueued_us
        self._then = then
        if self.trace is not None:
            self.trace.emit(
                start_us, f"{self.kind}_acquire", self.name, "resource",
                dur_us=duration_us, args={"wait_us": start_us - enqueued_us},
            )
        if on_grant is not None:
            on_grant(start_us)
        self.loop.schedule(free_at, self._release)

    def _release(self) -> None:
        if self._then is not None:
            self._then()
        self.busy = False
        if self._waiters:
            _, _, enqueued_us, duration_us, on_grant, then = heapq.heappop(self._waiters)
            self._grant(self.loop.now, duration_us, on_grant, then, enqueued_us)

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of ``elapsed_us`` this resource spent busy."""
        if elapsed_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / elapsed_us)
