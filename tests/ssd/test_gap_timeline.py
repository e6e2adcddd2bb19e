"""_GapTimeline: the fast model's work-conserving resource approximation."""

from itertools import takewhile

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.ssd import SSDConfig
from repro.ssd.fastmodel import _GapTimeline
from repro.ssd.timing import ServiceTimes

TIMES = ServiceTimes.from_config(SSDConfig())
#: tPROG: the longest phase offset, so the furthest a request time steps back
TPROG = TIMES.write_die_us
PHASES = [TIMES.read_die_us, TIMES.read_bus_us, TIMES.write_bus_us, TIMES.write_die_us]


class TestBasicPlacement:
    def test_idle_resource_serves_at_request_time(self):
        tl = _GapTimeline()
        assert tl.place(10.0, 5.0) == 15.0
        assert tl.tail == 15.0

    def test_busy_resource_queues(self):
        tl = _GapTimeline()
        tl.place(0.0, 10.0)
        assert tl.place(2.0, 5.0) == 15.0

    def test_gap_recorded_when_request_after_tail(self):
        tl = _GapTimeline()
        tl.place(0.0, 5.0)       # busy [0, 5]
        tl.place(20.0, 5.0)      # busy [20, 25]; gap [5, 20]
        assert tl.gaps == [[5.0, 20.0]]

    def test_backfills_gap(self):
        tl = _GapTimeline()
        tl.place(0.0, 5.0)
        tl.place(20.0, 5.0)      # gap [5, 20]
        end = tl.place(6.0, 4.0)  # fits in the gap at 6
        assert end == 10.0
        assert tl.tail == 25.0   # tail unchanged

    def test_gap_split_on_interior_placement(self):
        tl = _GapTimeline()
        tl.place(0.0, 2.0)
        tl.place(30.0, 2.0)      # gap [2, 30]
        tl.place(10.0, 5.0)      # occupies [10, 15]
        assert [2.0, 10.0] in tl.gaps
        assert [15.0, 30.0] in tl.gaps

    def test_gap_consumed_from_start(self):
        tl = _GapTimeline()
        tl.place(0.0, 2.0)
        tl.place(10.0, 2.0)      # gap [2, 10]
        tl.place(0.0, 8.0)       # rt before gap: starts at 2, fills whole gap
        assert tl.gaps == []

    def test_too_small_gap_skipped(self):
        tl = _GapTimeline()
        tl.place(0.0, 2.0)
        tl.place(4.0, 2.0)       # gap [2, 4]
        end = tl.place(0.0, 3.0)  # does not fit; goes to tail
        assert end == 9.0

    def test_old_gaps_pruned(self):
        tl = _GapTimeline()
        tl.place(0.0, 1.0)
        tl.place(10.0, 1.0)      # gap [1, 10]
        tl.place(100_000.0, 1.0)
        tl.place(100_001.0, 1.0)
        assert [1.0, 10.0] not in tl.gaps


class TestWorkConservation:
    @given(
        jobs=st.lists(
            st.tuples(st.floats(0, 1000), st.floats(0.1, 50)),
            min_size=1,
            max_size=60,
        )
    )
    def test_no_overlap_and_no_early_start(self, jobs):
        """Bookings never start before their request time, and total busy
        time equals the sum of durations (no lost or duplicated work)."""
        tl = _GapTimeline()
        intervals = []
        # Process in arrival order like the fast model does.
        for rt, dur in sorted(jobs):
            end = tl.place(rt, dur)
            start = end - dur
            assert start >= rt - 1e-9
            intervals.append((start, end))
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-6, "bookings overlap"

    def test_utilisation_beats_scalar_timeline(self):
        """The scenario that motivated gaps: a late-requesting job must not
        block earlier-requesting jobs from idle windows."""
        tl = _GapTimeline()
        tl.place(0.0, 1.0)        # short job
        tl.place(100.0, 10.0)     # requested late: gap [1, 100]
        # Ten early jobs fit in the gap instead of queueing at the tail.
        ends = [tl.place(float(i), 5.0) for i in range(1, 11)]
        assert max(ends) < 100.0


class _ScanEveryGap:
    """The booking rule without the no-backfill fast path: every call that
    finds gaps scans them all for a fit."""

    _PRUNE_HORIZON = _GapTimeline._PRUNE_HORIZON

    def __init__(self) -> None:
        self.tail = 0.0
        self.gaps: list[list[float]] = []

    def place(self, rt: float, dur: float) -> float:
        gaps = self.gaps
        if gaps:
            prune_before = rt - self._PRUNE_HORIZON
            while gaps and gaps[0][1] <= prune_before:
                gaps.pop(0)
            for gi in range(len(gaps)):
                gap = gaps[gi]
                gap_start = gap[0]
                start = rt if rt > gap_start else gap_start
                if gap[1] - start >= dur:
                    end = start + dur
                    if start - gap_start > 1e-9:
                        old_end = gap[1]
                        gap[1] = start
                        if old_end - end > 1e-9:
                            gaps.insert(gi + 1, [end, old_end])
                    else:
                        gap[0] = end
                        if gap[1] - end <= 1e-9:
                            del gaps[gi]
                    return end
        tail = self.tail
        if rt > tail:
            if rt - tail > 1e-9:
                gaps.append([tail, rt])
                if len(gaps) > 32:
                    gaps.pop(0)
            end = rt + dur
        else:
            end = tail + dur
        self.tail = end
        return end


def replay_both(jobs) -> dict:
    """Book ``(request-time step, duration)`` jobs on a timeline and on the
    scan-every-gap reference; every end, tail and gap list must match.

    Returns how often the stream pruned a gap and hit the 32-gap cap.
    """
    fast, slow = _GapTimeline(), _ScanEveryGap()
    seen = {"pruned": 0, "capped": 0, "backfilled": 0}
    rt = 0.0
    for step, dur in jobs:
        rt = max(0.0, rt + step)
        stale = sum(1 for _ in takewhile(
            lambda gap: gap[1] <= rt - slow._PRUNE_HORIZON, slow.gaps
        ))
        seen["pruned"] += stale > 0
        seen["capped"] += len(slow.gaps) - stale == 32 and rt - slow.tail > 1e-9
        tail = slow.tail
        end = fast.place(rt, dur)
        assert end == slow.place(rt, dur)
        seen["backfilled"] += slow.tail == tail
        assert fast.tail == slow.tail
        assert fast.gaps == slow.gaps
    return seen


STEPS = st.one_of(
    st.floats(-TPROG, 0.0),              # a phase offset: the request steps back
    st.floats(0.0, 300.0),               # ordinary arrivals
    st.floats(5_000.0, 12_000.0),        # past the prune horizon
)
DURATIONS = st.one_of(st.sampled_from(PHASES), st.floats(0.1, 2 * TPROG))


class TestNoBackfillFastPath:
    @settings(max_examples=300, deadline=None)
    @given(jobs=st.lists(st.tuples(STEPS, DURATIONS), min_size=1, max_size=300))
    def test_matches_scanning_every_gap(self, jobs):
        replay_both(jobs)

    def test_long_stream_prunes_caps_and_backfills(self):
        """A seeded stream long enough to reach every branch of the rule."""
        rng = np.random.default_rng(19)
        n = 20_000
        steps = np.where(
            rng.random(n) < 0.3,
            -rng.uniform(0.0, TPROG, n),
            rng.exponential(150.0, n),
        )
        steps[rng.random(n) < 0.002] += 6_000.0
        # the phases shorter than tPROG leave more than 32 gaps in a horizon
        jobs = zip(steps.tolist(), rng.choice(PHASES[:3], n).tolist())
        seen = replay_both(jobs)
        assert min(seen.values()) > 0, seen
