"""DES kernel: event ordering, resource queueing disciplines."""

import heapq
from itertools import count

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.ssd.engine import PRIO_GC, PRIO_READ, PRIO_WRITE, EventLoop, Resource


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(9.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]
        assert loop.now == 9.0

    def test_fifo_within_same_timestamp(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(1.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2]

    def test_rejects_past_events(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: loop.schedule(1.0, lambda: None))
        with pytest.raises(ValueError):
            loop.run()

    def test_clamps_float_rounding_residue(self):
        """``when`` a hair below ``now`` (summed-duration round-off) clamps.

        Chained ``start + duration`` arithmetic can produce a completion
        time that is one ULP below the loop's current time; that must not
        blow up a multi-hour simulation.
        """
        loop = EventLoop()
        seen = []

        def at_now_minus_epsilon():
            loop.schedule(loop.now - 5e-10, lambda: seen.append(loop.now))

        loop.schedule(1.0, at_now_minus_epsilon)
        loop.run()
        assert seen == [1.0]  # clamped to now, not scheduled in the past

    def test_clamp_tolerance_is_tight(self):
        loop = EventLoop()
        loop.schedule(
            1.0, lambda: loop.schedule(loop.now - 1e-6, lambda: None)
        )
        with pytest.raises(ValueError, match="past"):
            loop.run()

    def test_events_scheduled_during_run_are_processed(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: loop.schedule(2.0, lambda: seen.append("late")))
        loop.run()
        assert seen == ["late"]

    def test_run_until_stops_early(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(10.0, lambda: seen.append(2))
        loop.run(until=5.0)
        assert seen == [1]
        assert bool(loop)  # pending events remain

    def test_counts_events(self):
        loop = EventLoop()
        for t in range(5):
            loop.schedule(float(t), lambda: None)
        loop.run()
        assert loop.events_processed == 5


class TestResource:
    def test_immediate_grant_when_idle(self):
        loop = EventLoop()
        res = Resource(loop)
        starts = []
        loop.schedule(0.0, lambda: res.acquire((0, 0), 10.0, starts.append))
        loop.run()
        assert starts == [0.0]
        assert res.free_at == 10.0

    def test_serialises_contending_jobs(self):
        loop = EventLoop()
        res = Resource(loop)
        starts = {}

        def submit() -> None:
            res.acquire((PRIO_WRITE, 0), 10.0, lambda s: starts.__setitem__("a", s))
            res.acquire((PRIO_WRITE, 1), 5.0, lambda s: starts.__setitem__("b", s))

        loop.schedule(0.0, submit)
        loop.run()
        assert starts == {"a": 0.0, "b": 10.0}
        assert res.busy_time_us == 15.0

    def test_priority_order_among_waiters(self):
        loop = EventLoop()
        res = Resource(loop)
        order = []

        def submit() -> None:
            res.acquire((PRIO_WRITE, 0), 10.0, lambda s: order.append("holder"))
            res.acquire((PRIO_WRITE, 1), 1.0, lambda s: order.append("write"))
            res.acquire((PRIO_GC, 2), 1.0, lambda s: order.append("gc"))
            res.acquire((PRIO_READ, 3), 1.0, lambda s: order.append("read"))

        loop.schedule(0.0, submit)
        loop.run()
        # Holder is never preempted; waiters drain by priority class.
        assert order == ["holder", "read", "gc", "write"]

    def test_fifo_within_priority_class(self):
        loop = EventLoop()
        res = Resource(loop)
        order = []

        def submit() -> None:
            res.acquire((PRIO_WRITE, loop.now), 10.0, lambda s: order.append(0))
            for i in (1, 2, 3):
                res.acquire((PRIO_WRITE, loop.now), 1.0, lambda s, i=i: order.append(i))

        loop.schedule(0.0, submit)
        loop.run()
        assert order == [0, 1, 2, 3]

    def test_wait_time_accounting(self):
        loop = EventLoop()
        res = Resource(loop)
        loop.schedule(0.0, lambda: res.acquire((0, 0), 10.0, lambda s: None))
        loop.schedule(0.0, lambda: res.acquire((0, 1), 1.0, lambda s: None))
        loop.run()
        assert res.wait_time_us == pytest.approx(10.0)
        assert res.grants == 2

    def test_rejects_negative_duration(self):
        loop = EventLoop()
        res = Resource(loop)
        with pytest.raises(ValueError):
            res.acquire((0, 0), -1.0, lambda s: None)

    def test_zero_duration_jobs_pass_through(self):
        loop = EventLoop()
        res = Resource(loop)
        starts = []
        loop.schedule(0.0, lambda: res.acquire((0, 0), 0.0, starts.append))
        loop.schedule(0.0, lambda: res.acquire((0, 1), 0.0, starts.append))
        loop.run()
        assert starts == [0.0, 0.0]

    def test_utilization(self):
        loop = EventLoop()
        res = Resource(loop)
        loop.schedule(0.0, lambda: res.acquire((0, 0), 25.0, lambda s: None))
        loop.run()
        assert res.utilization(100.0) == pytest.approx(0.25)
        assert res.utilization(0.0) == 0.0
        assert res.utilization(10.0) == 1.0  # clamped

    def test_queue_depth(self):
        loop = EventLoop()
        res = Resource(loop)
        depths = []

        def submit() -> None:
            res.acquire((0, 0), 10.0, lambda s: None)
            res.acquire((0, 1), 1.0, lambda s: None)
            res.acquire((0, 2), 1.0, lambda s: None)
            depths.append(res.queue_depth)

        loop.schedule(0.0, submit)
        loop.run()
        assert depths == [2]
        assert res.queue_depth == 0


class TestWeakEvents:
    def test_weak_events_fire_while_strong_work_pending(self):
        loop = EventLoop()
        seen = []
        loop.schedule_weak(1.0, lambda: seen.append("weak"))
        loop.schedule(2.0, lambda: seen.append("strong"))
        loop.run()
        assert seen == ["weak", "strong"]

    def test_trailing_weak_events_are_dropped(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("strong"))
        loop.schedule_weak(5.0, lambda: seen.append("weak"))
        loop.run()
        assert seen == ["strong"]
        assert loop.now == 1.0  # weak tail never advanced the clock
        assert not loop

    def test_weak_only_heap_runs_nothing(self):
        loop = EventLoop()
        seen = []
        loop.schedule_weak(1.0, lambda: seen.append("weak"))
        loop.run()
        assert seen == []
        assert loop.now == 0.0

    def test_bounded_run_dispatches_weak_events(self):
        # run(until=...) is an explicit horizon: weak events inside it
        # fire like any other (samplers must tick across run segments)
        loop = EventLoop()
        seen = []
        loop.schedule_weak(1.0, lambda: seen.append("weak"))
        loop.run(until=2.0)
        assert seen == ["weak"]
        assert loop.now == 1.0

    def test_pending_strong_excludes_weak(self):
        loop = EventLoop()
        loop.schedule_weak(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert len(loop._heap) == 2
        assert loop.pending_strong == 1
        loop.run()
        assert loop.pending_strong == 0

    def test_weak_past_time_rejected_like_strong(self):
        loop = EventLoop()
        loop.schedule(10.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_weak(5.0, lambda: None)


class TestEvery:
    def test_metronome_ticks_while_strong_work_remains(self):
        loop = EventLoop()
        ticks = []
        loop.schedule(10.0, lambda: None)
        loop.every(3.0, lambda: ticks.append(loop.now))
        loop.run()
        assert ticks == [3.0, 6.0, 9.0]
        assert loop.now == 10.0

    def test_metronome_never_outlives_the_last_strong_event(self):
        loop = EventLoop()
        ticks = []
        loop.schedule(2.0, lambda: None)
        loop.every(5.0, lambda: ticks.append(loop.now))
        loop.run()
        assert ticks == []  # first tick at 5.0 would be past the run
        assert loop.now == 2.0

    def test_two_metronomes_cannot_keep_each_other_alive(self):
        loop = EventLoop()
        a, b = [], []
        loop.schedule(7.0, lambda: None)
        loop.every(2.0, lambda: a.append(loop.now))
        loop.every(3.0, lambda: b.append(loop.now))
        loop.run()
        assert loop.now == 7.0
        assert a == [2.0, 4.0, 6.0]
        assert b == [3.0, 6.0]

    def test_rejects_non_positive_interval(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.every(0.0, lambda: None)


class TwoEventResource:
    """Reference: the resource as it was before holds became one event.

    ``_grant`` runs ``on_grant`` and then schedules the release as its own
    event; a holder that needs a continuation schedules it from
    ``on_grant`` at ``start + duration`` (see :func:`hold`), so the
    continuation and the release are two events with adjacent sequence
    numbers.
    """

    def __init__(self, loop, name):
        self.loop = loop
        self.name = name
        self.kind = "resource"
        self.busy = False
        self.free_at = 0.0
        self._waiters = []
        self._seq = count()
        self.busy_time_us = 0.0
        self.grants = 0
        self.wait_time_us = 0.0
        self.trace = None

    def acquire(self, priority, duration_us, on_grant):
        if not self.busy:
            self._grant(self.loop.now, duration_us, on_grant, self.loop.now)
        else:
            heapq.heappush(
                self._waiters,
                (priority, next(self._seq), self.loop.now, duration_us, on_grant),
            )

    def _grant(self, start_us, duration_us, on_grant, enqueued_us):
        self.busy = True
        self.free_at = start_us + duration_us
        self.busy_time_us += duration_us
        self.grants += 1
        self.wait_time_us += start_us - enqueued_us
        self.trace.emit(start_us, f"{self.kind}_acquire", self.name, dur_us=duration_us)
        on_grant(start_us)
        self.loop.schedule(self.free_at, self._release)

    def _release(self):
        self.busy = False
        if self._waiters:
            _, _, enqueued_us, duration_us, on_grant = heapq.heappop(self._waiters)
            self._grant(self.loop.now, duration_us, on_grant, enqueued_us)


def hold(loop, res, priority, duration_us, on_grant, then):
    """Acquire ``res`` with a continuation on either implementation."""
    if isinstance(res, Resource):
        res.acquire(priority, duration_us, on_grant, then)
        return

    def granted(start_us):
        on_grant(start_us)
        if then is not None:
            loop.schedule(start_us + duration_us, then)

    res.acquire(priority, duration_us, granted)


class _Log:
    """Stand-in trace recorder: one shared, ordered log of records (a
    hold's record carries its duration, which fixes its release time)."""

    def __init__(self, records):
        self.records = records

    def emit(self, ts_us, name, track="", cat="sim", dur_us=None, args=None):
        self.records.append((name, ts_us, track, dur_us))


#: one job: arrival, resource, priority class, duration, continuation kind,
#: second hold (resource, duration) for chained jobs
JOB = st.tuples(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.integers(0, 2),
    st.sampled_from([PRIO_READ, PRIO_GC, PRIO_WRITE]),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.sampled_from(["none", "log", "echo", "chain"]),
    st.tuples(st.integers(0, 2), st.sampled_from([0.0, 1.0])),
)
#: the script: jobs and bare probe events, scheduled in the drawn order
SCRIPT = st.lists(
    st.one_of(JOB, st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0])),
    max_size=25,
)


def drive(make_resource, script):
    """Run ``script`` on three resources; return everything observable."""
    loop = EventLoop()
    records = []
    resources = [make_resource(loop, f"r{i}") for i in range(3)]
    for res in resources:
        res.trace = _Log(records)

    def start(jid, job):
        _, r, prio, dur_us, then_kind, (r2, dur2_us) = job

        def on_grant(start_us):
            records.append(("grant", start_us, jid))

        def cont():
            records.append(("then", loop.now, jid))
            if then_kind == "echo":
                # scheduled at the release time: must run after the release
                loop.schedule(loop.now, lambda: records.append(("echo", loop.now, jid)))
            elif then_kind == "chain":
                hold(
                    loop, resources[r2], (prio, loop.now), dur2_us, on_grant,
                    lambda: records.append(("then2", loop.now, jid)),
                )

        hold(
            loop, resources[r], (prio, loop.now), dur_us, on_grant,
            None if then_kind == "none" else cont,
        )

    for jid, item in enumerate(script):
        if isinstance(item, float):
            loop.schedule(item, lambda jid=jid: records.append(("probe", loop.now, jid)))
        else:
            loop.schedule(item[0], lambda jid=jid, job=item: start(jid, job))
    loop.run()
    stats = [(r.busy_time_us, r.wait_time_us, r.grants) for r in resources]
    return records, stats, loop.now, loop.events_processed


class TestOneEventHolds:
    @given(SCRIPT)
    def test_matches_two_event_reference(self, script):
        records, stats, now, events = drive(Resource, script)
        ref_records, ref_stats, ref_now, ref_events = drive(TwoEventResource, script)
        assert records == ref_records
        assert stats == ref_stats
        assert now == ref_now
        # one event fewer per hold that carried a continuation
        continuations = sum(
            1 + (item[4] == "chain") for item in script
            if not isinstance(item, float) and item[4] != "none"
        )
        assert events == ref_events - continuations

    def test_continuation_runs_before_release_and_next_grant(self):
        loop = EventLoop()
        records = []
        res = Resource(loop, "r")
        res.trace = _Log(records)

        def submit() -> None:
            res.acquire((0, 0), 5.0, None, lambda: records.append(("then", loop.now, res.busy)))
            res.acquire((0, 1), 1.0, None)

        loop.schedule(0.0, submit)
        loop.run()
        # then() runs while the first hold is still held, and before the
        # waiter's acquire at the same time
        assert records == [
            ("resource_acquire", 0.0, "r", 5.0),
            ("then", 5.0, True),
            ("resource_acquire", 5.0, "r", 1.0),
        ]
        assert loop.events_processed == 3  # submit + one event per hold

    def test_hold_without_continuation_is_one_event(self):
        loop = EventLoop()
        res = Resource(loop)
        loop.schedule(0.0, lambda: res.acquire((0, 0), 2.0, None))
        loop.run()
        assert loop.events_processed == 2
        assert res.grants == 1 and not res.busy


class TestScheduleSorted:
    @staticmethod
    def replay(whens, pre, post, lazy, until_steps=()):
        """Dispatch log of a batch at ``whens`` between other events.

        ``pre`` events are scheduled before the batch, ``post`` after it;
        each batch callback also schedules an event at ``now``.
        """
        loop = EventLoop()
        log = []

        def arrival(i):
            log.append(("arrival", loop.now, i, loop.events_processed))
            loop.schedule(loop.now, lambda: log.append(("echo", loop.now, i)))

        for k, t in enumerate(pre):
            loop.schedule(t, lambda k=k: log.append(("pre", loop.now, k)))
        if lazy:
            loop.schedule_sorted(whens, arrival, list(range(len(whens))))
        else:
            for i, t in enumerate(whens):
                loop.schedule(t, lambda i=i: arrival(i))
        for k, t in enumerate(post):
            loop.schedule(t, lambda k=k: log.append(("post", loop.now, k)))
        pending = []
        for horizon in until_steps:
            loop.run(until=horizon)
            pending.append(loop.pending_strong)
        loop.run()
        return log, loop.now, loop.events_processed, pending

    TIMES = st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 5.0]), max_size=12)

    @given(TIMES, TIMES, TIMES)
    def test_matches_eager_scheduling(self, whens, pre, post):
        whens = sorted(whens)
        assert self.replay(whens, pre, post, lazy=True) == self.replay(
            whens, pre, post, lazy=False
        )

    @given(TIMES, TIMES, st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), max_size=4))
    def test_bounded_slices_match(self, whens, pre, steps):
        whens = sorted(whens)
        steps = sorted(steps)
        assert self.replay(whens, pre, (), lazy=True, until_steps=steps) == (
            self.replay(whens, pre, (), lazy=False, until_steps=steps)
        )

    def test_ties_with_earlier_scheduled_events(self):
        # a keeper window tick scheduled before the trace wins the tie; a
        # sampler scheduled after it loses; arrivals keep index order
        log, _, _, _ = self.replay([1.0, 1.0, 2.0], pre=[1.0], post=[1.0], lazy=True)
        assert [entry[:3] for entry in log] == [
            ("pre", 1.0, 0), ("arrival", 1.0, 0), ("arrival", 1.0, 1),
            ("post", 1.0, 0), ("echo", 1.0, 0), ("echo", 1.0, 1),
            ("arrival", 2.0, 2), ("echo", 2.0, 2),
        ]

    def test_events_processed_is_exact_mid_run(self):
        log, _, events, _ = self.replay([0.0, 0.0, 3.0], pre=[], post=[], lazy=True)
        assert [entry[3] for entry in log if entry[0] == "arrival"] == [1, 2, 5]
        assert events == 6

    def test_pending_strong_counts_unfed_entries(self):
        loop = EventLoop()
        loop.schedule_sorted([1.0, 2.0, 3.0], lambda _: None, [0, 1, 2])
        assert len(loop._heap) == 1
        assert loop.pending_strong == 3
        seen = []
        for horizon in (1.0, 2.0, 2.5):
            loop.run(until=horizon)
            seen.append(loop.pending_strong)
        assert seen == [2, 1, 1]
        loop.run(until=3.0)
        assert loop.pending_strong == 0 and not loop

    def test_weak_samplers_live_while_entries_remain(self):
        loop = EventLoop()
        ticks = []
        loop.schedule_sorted([5.0, 12.0], lambda _: None, [0, 1])
        loop.every(4.0, lambda: ticks.append(loop.now))
        loop.run()
        # the tick due at 12.0 was scheduled after the batch: it loses the
        # tie to the last entry and is then dropped as trailing weak work
        assert ticks == [4.0, 8.0]
        assert loop.now == 12.0

    def test_rejects_past_times(self):
        loop = EventLoop()
        loop.schedule(10.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError, match="past"):
            loop.schedule_sorted([5.0, 11.0], lambda _: None, [0, 1])
        seen = []
        loop.schedule_sorted([10.0 - 5e-10, 10.0], seen.append, [0, 1])
        loop.run()
        assert seen == [0, 1] and loop.now == 10.0

    def test_rejects_unsorted_batches(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="non-decreasing"):
            loop.schedule_sorted([2.0, 1.0], lambda _: None, [0, 1])
        assert loop.pending_strong == 0

    def test_empty_batch_is_a_no_op(self):
        loop = EventLoop()
        loop.schedule_sorted([], lambda _: None, [])
        assert loop.pending_strong == 0 and not loop
        loop.run()
        assert loop.events_processed == 0 and loop.now == 0.0
