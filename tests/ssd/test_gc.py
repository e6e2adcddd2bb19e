"""Greedy garbage collection."""

from repro.analysis import Sanitizer
from repro.ssd import SSDConfig
from repro.ssd.ftl.gc import GarbageCollector
from repro.ssd.ftl.mapping import FlashArrayState


def make_state(blocks=8, pages=4) -> FlashArrayState:
    return FlashArrayState(
        SSDConfig(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=blocks,
            pages_per_block=pages,
            gc_threshold=0.25,  # 2 blocks
            gc_restore=0.4,     # 3 blocks
        )
    )


def fill_blocks(state, plane, n_pages, start_lpn=0):
    for i in range(n_pages):
        state.write(start_lpn + i, plane)


class TestVictimSelection:
    def test_prefers_fewest_valid(self):
        state = make_state()
        gc = GarbageCollector(state)
        plane = state.planes[0]
        fill_blocks(state, plane, 8)          # seals blocks 0 and 1 full
        state.write(0, plane)                 # invalidate one page of block 0
        victim = gc.pick_victim(plane)
        assert victim == 0

    def test_ignores_fully_valid_blocks(self):
        state = make_state()
        gc = GarbageCollector(state)
        plane = state.planes[0]
        fill_blocks(state, plane, 8)
        assert gc.pick_victim(plane) is None  # both sealed blocks fully valid

    def test_prefers_empty_block_immediately(self):
        state = make_state()
        gc = GarbageCollector(state)
        plane = state.planes[0]
        fill_blocks(state, plane, 4)          # block 0 full
        fill_blocks(state, plane, 4)          # overwrite same LPNs: block 0 dead
        assert plane.valid_count[0] == 0
        assert gc.pick_victim(plane) == 0


class TestCollection:
    def test_reclaims_space_and_preserves_mapping(self):
        state = make_state()  # 8 blocks, threshold 2, restore 3
        gc = GarbageCollector(state)
        plane = state.planes[0]
        # Overwrite a 12-LPN working set until free blocks fall below the
        # restore level; half the written pages are then dead.
        fill_blocks(state, plane, 12, start_lpn=0)
        fill_blocks(state, plane, 12, start_lpn=0)
        assert plane.free_blocks < state.gc_restore_blocks
        items = gc.collect(plane)
        assert gc.collections == len(items) >= 1
        assert plane.free_blocks >= state.gc_restore_blocks
        Sanitizer().check_plane(plane)
        # Logical data survives (possibly relocated).
        for lpn in range(12):
            assert state.mapping.lookup(lpn) is not None

    def test_moves_counted(self):
        state = make_state()
        gc = GarbageCollector(state)
        plane = state.planes[0]
        fill_blocks(state, plane, 4, start_lpn=0)   # block 0: lpn 0..3
        state.write(0, plane)                        # block 1 gets lpn 0; block 0 has 3 valid
        items = gc.collect(plane) if state.needs_gc(plane) else []
        # Force a collection regardless of threshold for the assertion:
        if not items:
            victim = gc.pick_victim(plane)
            assert victim == 0
            item = gc._reclaim(plane, victim)
            assert item.moves == 3
            assert gc.pages_moved == 3

    def test_maybe_collect_noop_above_threshold(self):
        state = make_state()
        gc = GarbageCollector(state)
        plane = state.planes[0]
        assert gc.maybe_collect(plane) == []

    def test_collect_stops_when_no_reclaimable_victim(self):
        state = make_state(blocks=4)
        gc = GarbageCollector(state)
        plane = state.planes[0]
        # Fill the device with unique live data: nothing reclaimable.
        fill_blocks(state, plane, 12)
        items = gc.collect(plane)
        assert items == []


class TestGcUnderPressure:
    def test_sustained_overwrites_never_exhaust_plane(self):
        state = make_state(blocks=16, pages=4)
        gc = GarbageCollector(state)
        plane = state.planes[0]
        # Working set of 8 LPNs, overwritten many times: GC must keep up.
        for round_ in range(60):
            lpn = round_ % 8
            if not plane.has_free_page():
                gc.collect(plane)
            state.write(lpn, plane)
            gc.maybe_collect(plane)
            Sanitizer().check_plane(plane)
        assert gc.collections > 0
        for lpn in range(8):
            assert state.mapping.lookup(lpn) is not None


class TestFreeBlockReuse:
    def test_round_robin_reuse_spreads_wear(self):
        """The FIFO free-block pool must not hammer one block.

        Greedy GC is not a wear-leveller, so the distribution is uneven —
        but every block of the active plane must participate, and no single
        block may absorb more than a handful of times its fair share.
        """
        state = FlashArrayState(
            SSDConfig(
                channels=2,
                chips_per_channel=1,
                dies_per_chip=1,
                planes_per_die=1,
                blocks_per_plane=16,
                pages_per_block=4,
                gc_threshold=0.2,
                gc_restore=0.35,
            )
        )
        gc = GarbageCollector(state)
        plane = state.planes[0]
        for i in range(2000):
            if not plane.has_free_page():
                gc.collect(plane)
            state.write(i % 8, plane)
            gc.maybe_collect(plane)
        counts = plane.erase_count
        assert all(c >= 1 for c in counts), "every block should cycle through"
        mean = sum(counts) / len(counts)
        assert max(counts) < 4 * mean
