"""FTL mapping and plane-state invariants."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.analysis import Sanitizer
from repro.ssd import Geometry, SSDConfig
from repro.ssd.ftl.mapping import FlashArrayState, MappingTable, PlaneState


def tiny_geometry() -> Geometry:
    return Geometry(
        SSDConfig(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=4,
            pages_per_block=4,
        )
    )


class TestMappingTable:
    def test_bind_and_lookup(self):
        table = MappingTable()
        assert table.lookup(5) is None
        assert table.bind(5, 100) is None
        assert table.lookup(5) == 100
        assert table.reverse(100) == 5
        assert 5 in table
        assert len(table) == 1

    def test_overwrite_returns_old_ppn(self):
        table = MappingTable()
        table.bind(5, 100)
        old = table.bind(5, 200)
        assert old == 100
        assert table.lookup(5) == 200
        assert table.reverse(100) is None

    def test_bind_rejects_occupied_ppn(self):
        table = MappingTable()
        table.bind(1, 100)
        with pytest.raises(ValueError):
            table.bind(2, 100)

    def test_unbind_ppn(self):
        table = MappingTable()
        table.bind(7, 42)
        assert table.unbind_ppn(42) == 7
        assert table.lookup(7) is None
        assert len(table) == 0

    def test_unbind_unknown_raises(self):
        with pytest.raises(KeyError):
            MappingTable().unbind_ppn(1)


class TestPlaneState:
    def test_initial_accounting(self):
        plane = PlaneState(0, tiny_geometry())
        assert plane.free_pages == plane.total_pages == 16
        assert plane.live_pages == 0
        Sanitizer().check_plane(plane)

    def test_sequential_allocation_within_block(self):
        plane = PlaneState(0, tiny_geometry())
        ppns = [plane.allocate_page() for _ in range(4)]
        assert ppns == sorted(ppns)
        # First block's pages are consecutive.
        assert ppns[1] - ppns[0] == 1
        Sanitizer().check_plane(plane)

    def test_allocation_rolls_to_next_block(self):
        plane = PlaneState(0, tiny_geometry())
        for _ in range(5):
            plane.allocate_page()
        assert plane.live_pages == 5
        assert len(plane.sealed_blocks()) == 1
        Sanitizer().check_plane(plane)

    def test_fills_completely_then_raises(self):
        plane = PlaneState(0, tiny_geometry())
        for _ in range(plane.total_pages):
            plane.allocate_page()
        assert plane.free_pages == 0
        with pytest.raises(RuntimeError):
            plane.allocate_page()

    def test_invalidate_and_erase_cycle(self):
        plane = PlaneState(0, tiny_geometry())
        ppns = [plane.allocate_page() for _ in range(4)]  # fills block 0
        plane.allocate_page()  # block 1 active
        for ppn in ppns:
            plane.invalidate(ppn)
        block0 = 0
        assert plane.valid_count[block0] == 0
        plane.erase_block(block0)
        assert plane.erase_count[block0] == 1
        assert plane.free_blocks >= 1
        Sanitizer().check_plane(plane)

    def test_erase_rejects_valid_pages(self):
        plane = PlaneState(0, tiny_geometry())
        for _ in range(5):
            plane.allocate_page()
        with pytest.raises(ValueError):
            plane.erase_block(0)  # sealed but still valid

    def test_erase_rejects_active_block(self):
        plane = PlaneState(0, tiny_geometry())
        with pytest.raises(ValueError):
            plane.erase_block(plane.active_block)

    def test_invalidate_rejects_foreign_ppn(self):
        plane = PlaneState(0, tiny_geometry())
        with pytest.raises(ValueError):
            plane.invalidate(10**9)

    @given(ops=st.lists(st.integers(0, 9), min_size=1, max_size=60))
    def test_accounting_invariant_under_random_workload(self, ops):
        """live + dead + free == total after any overwrite sequence."""
        state = FlashArrayState(
            SSDConfig(
                channels=2,
                chips_per_channel=1,
                dies_per_chip=1,
                planes_per_die=1,
                blocks_per_plane=8,
                pages_per_block=4,
            )
        )
        plane = state.planes[0]
        for lpn in ops:
            if not plane.has_free_page():
                break
            state.write(lpn, plane)
            Sanitizer().check_plane(plane)
        # Mapping stays bijective.
        seen = set()
        for lpn in set(ops):
            ppn = state.mapping.lookup(lpn)
            if ppn is not None:
                assert ppn not in seen
                seen.add(ppn)
                assert state.mapping.reverse(ppn) == lpn


class TestFlashArrayState:
    def test_write_invalidates_old_location(self):
        state = FlashArrayState(
            SSDConfig(
                channels=2,
                chips_per_channel=1,
                dies_per_chip=1,
                planes_per_die=1,
                blocks_per_plane=4,
                pages_per_block=4,
            )
        )
        plane = state.planes[0]
        first = state.write(9, plane)
        second = state.write(9, plane)
        assert first != second
        assert state.mapping.lookup(9) == second
        assert plane.dead_pages == 1

    def test_needs_gc_threshold(self):
        config = SSDConfig(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=100,
            pages_per_block=4,
        )
        state = FlashArrayState(config)
        plane = state.planes[0]
        assert not state.needs_gc(plane)
        # Exhaust blocks below the threshold.
        while plane.free_blocks >= state.gc_threshold_blocks:
            for _ in range(config.pages_per_block):
                state.write(hash((plane.free_blocks, plane.next_page)) % 10**6, plane)
        assert state.needs_gc(plane)
