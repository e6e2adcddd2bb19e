"""Runtime sanitizer: each invariant trips on a deliberately corrupted run."""

import heapq

import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.ssd import SSDConfig
from repro.ssd.engine import EventLoop, Resource
from repro.ssd.ftl.mapping import FlashArrayState, MappingTable


def small_state() -> FlashArrayState:
    return FlashArrayState(
        SSDConfig(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=8,
            pages_per_block=4,
        )
    )


class TestMappingBijectivity:
    def test_corrupt_reverse_entry_detected(self):
        mapping = MappingTable()
        mapping.bind(1, 100)
        mapping.bind(2, 200)
        mapping._p2l[200] = 1  # corrupt: two PPNs now claim LPN 1
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_mapping(mapping)
        assert exc.value.invariant == "mapping-bijectivity"
        assert "mapping-bijectivity" in str(exc.value)

    def test_dangling_forward_entry_detected(self):
        mapping = MappingTable()
        mapping.bind(7, 70)
        del mapping._p2l[70]  # forward half survives, reverse half gone
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_mapping(mapping)
        assert exc.value.invariant == "mapping-bijectivity"

    def test_attached_sanitizer_checks_each_bind(self):
        mapping = MappingTable()
        sanitizer = Sanitizer()
        mapping.attach_sanitizer(sanitizer)
        mapping.bind(1, 10)
        mapping.bind(2, 20)
        mapping.unbind_ppn(10)
        assert sanitizer.mapping_ops == 3

    def test_clean_mapping_passes(self):
        mapping = MappingTable()
        mapping.bind(1, 10)
        Sanitizer().check_mapping(mapping)  # no raise


class TestResourceMutualExclusion:
    def test_double_grant_detected(self):
        loop = EventLoop()
        channel = Resource(loop, name="ch0", kind="channel")
        sanitizer = Sanitizer()
        sanitizer.on_grant(channel, 0.0, 10.0)
        with pytest.raises(SanitizerError) as exc:
            sanitizer.on_grant(channel, 5.0, 1.0)  # starts inside [0, 10)
        assert exc.value.invariant == "resource-mutual-exclusion"
        assert "double-granted" in exc.value.detail

    def test_negative_duration_detected(self):
        loop = EventLoop()
        die = Resource(loop, name="die3", kind="die")
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().on_grant(die, 0.0, -1.0)
        assert exc.value.invariant == "resource-mutual-exclusion"

    def test_back_to_back_grants_pass(self):
        loop = EventLoop()
        channel = Resource(loop, name="ch0", kind="channel")
        sanitizer = Sanitizer()
        sanitizer.on_grant(channel, 0.0, 10.0)
        sanitizer.on_grant(channel, 10.0, 5.0)  # touching intervals are fine
        assert sanitizer.grants_checked == 2

    def test_real_resource_contention_is_clean(self):
        """The engine's own grant chain never trips the shadow check."""
        loop = EventLoop()
        channel = Resource(loop, name="ch0", kind="channel")
        sanitizer = Sanitizer()
        loop.sanitizer = sanitizer
        channel.sanitizer = sanitizer
        starts = []
        for _ in range(4):
            channel.acquire((0, loop.now, 0), 7.0, starts.append)
        loop.run()
        assert starts == [0.0, 7.0, 14.0, 21.0]
        assert sanitizer.grants_checked == 4


class TestEventTimeMonotonicity:
    def test_skewed_event_detected(self):
        loop = EventLoop()
        loop.sanitizer = Sanitizer()
        loop.schedule(10.0, lambda: None)
        loop.run()
        assert loop.now == 10.0
        # bypass schedule()'s guard: push a past-time event straight into
        # the heap, the way a corrupted component would
        heapq.heappush(loop._heap, (5.0, 0, lambda: None, False))
        with pytest.raises(SanitizerError) as exc:
            loop.run()
        assert exc.value.invariant == "event-time-monotonicity"

    def test_normal_run_is_clean(self):
        loop = EventLoop()
        sanitizer = Sanitizer()
        loop.sanitizer = sanitizer
        for t in (3.0, 1.0, 2.0):
            loop.schedule(t, lambda: None)
        loop.run()
        assert sanitizer.events_checked == 3


class TestCapacityConservation:
    def test_inflated_live_count_detected(self):
        state = small_state()
        plane = state.planes[0]
        for lpn in range(6):
            state.write(lpn, plane)
        plane.live_pages += 1  # corrupt the books
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_plane(plane)
        assert exc.value.invariant == "capacity-conservation"

    def test_skewed_block_validity_detected(self):
        state = small_state()
        plane = state.planes[0]
        for lpn in range(6):
            state.write(lpn, plane)
        plane.valid_count[0] -= 1  # per-block books no longer sum to live
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_plane(plane)
        assert exc.value.invariant == "capacity-conservation"

    @pytest.mark.parametrize("pool", ["sealed", "free", "active"])
    def test_retired_block_still_in_a_pool_detected(self, pool):
        state = small_state()
        plane = state.planes[0]
        for lpn in range(6):
            state.write(lpn, plane)
        block = {
            "sealed": min(plane.sealed_blocks()),
            "free": plane.blocks - 1,
            "active": plane.active_block,
        }[pool]
        plane.bad_blocks.add(block)  # marked bad but never taken out of use
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().check_plane(plane)
        assert exc.value.invariant == "capacity-conservation"
        assert f"retired block {block}" in exc.value.detail

    @pytest.mark.parametrize("corrupt", ["live", "validity", "active"])
    def test_program_check_names_the_program(self, corrupt):
        state = small_state()
        plane = state.planes[0]
        for lpn in range(6):
            state.write(lpn, plane)
        if corrupt == "live":
            plane.live_pages += 1
        elif corrupt == "validity":
            plane.valid_count[0] -= 1
        else:
            plane.bad_blocks.add(plane.active_block)
        with pytest.raises(SanitizerError) as exc:
            Sanitizer().after_program(plane)
        assert exc.value.invariant == "capacity-conservation"
        assert exc.value.trace[-1].endswith("program plane=0")

    def test_clean_plane_passes(self):
        state = small_state()
        plane = state.planes[0]
        for lpn in range(6):
            state.write(lpn, plane)
        sanitizer = Sanitizer()
        sanitizer.check_plane(plane)
        assert sanitizer.conservation_checks == 1


class TestReporting:
    def test_error_carries_recent_event_trace(self):
        loop = EventLoop()
        channel = Resource(loop, name="ch0", kind="channel")
        sanitizer = Sanitizer()
        sanitizer.on_grant(channel, 0.0, 10.0)
        with pytest.raises(SanitizerError) as exc:
            sanitizer.on_grant(channel, 2.0, 1.0)
        assert exc.value.trace  # the good grant is in the ring buffer
        assert "recent events" in str(exc.value)
        assert "grant channel/ch0" in str(exc.value)

    def test_stats_expose_all_counters(self):
        stats = Sanitizer().stats()
        assert set(stats) == {
            "events_checked",
            "grants_checked",
            "mapping_ops",
            "conservation_checks",
        }
