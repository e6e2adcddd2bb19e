"""Greedy garbage collection.

When a plane's free-block pool falls below the configured threshold, the
collector repeatedly picks the sealed block with the fewest valid pages,
copies its valid pages to the plane's active block (plane-internal copyback),
erases it, and returns it to the free pool — until the restore level is
reached or no victim would reclaim space.

State mutation is immediate (so subsequent allocations see reclaimed space);
the *timing* cost is returned as :class:`GCWorkItem` records that the
simulator charges to the plane's die as internal jobs.

With a :class:`~repro.ssd.faults.FaultInjector` attached, each erase is
allowed to fail: the victim's valid pages have already been moved out, but
the block is retired into the plane's bad-block table instead of rejoining
the free pool.  The erase *attempt* still costs full ``tBERS`` (the returned
work item's timing is unchanged); only the reclaimed capacity is lost.
Retired blocks are never sealed or free, so victim selection skips them
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mapping import FlashArrayState, PlaneState

__all__ = ["GCWorkItem", "GarbageCollector"]


@dataclass(frozen=True)
class GCWorkItem:
    """Timing record of one reclaimed block: ``moves`` copybacks + 1 erase.

    ``retired`` marks a victim whose erase failed — the time was spent, but
    the block went to the bad-block table instead of the free pool.
    """

    plane_index: int
    block: int
    moves: int
    retired: bool = False

    def die_us(self, times) -> float:
        """Die occupancy of this reclaim: copybacks plus the erase attempt."""
        return self.moves * times.move_die_us + times.erase_us


class GarbageCollector:
    """Greedy (min-valid-pages) victim selection per plane."""

    def __init__(
        self,
        state: FlashArrayState,
        *,
        faults=None,
        sanitizer=None,
        probe=None,
    ) -> None:
        self.state = state
        #: optional :class:`repro.ssd.faults.FaultInjector`; when attached,
        #: erases may fail and retire their block
        self.faults = faults
        #: optional :class:`repro.analysis.Sanitizer`; when attached, every
        #: reclaimed block re-checks conservation and mapping bijectivity
        self.sanitizer = sanitizer
        #: optional :class:`repro.obs.probe.DeviceProbe`; when attached,
        #: every reclaim is reported against its channel
        self._probe = probe
        cfg = state.config
        self._planes_per_channel = (
            cfg.chips_per_channel * cfg.dies_per_chip * cfg.planes_per_die
        )
        #: total blocks reclaimed (successfully erased)
        self.collections = 0
        #: total valid pages copied (write amplification numerator)
        self.pages_moved = 0

    def pick_victim(self, plane: PlaneState) -> int | None:
        """Sealed block with the fewest valid pages, or None if no candidate.

        A victim that is still fully valid reclaims nothing (the copyback
        consumes exactly as many pages as the erase frees), so it is not
        eligible.  Bad blocks are never sealed, so they are never candidates.

        Ties on valid count break toward the least-erased block, then the
        lowest index — a fully deterministic order (bare set iteration
        would let the victim, and thus the whole downstream timeline, vary
        with the process hash seed) that also keeps reclaim pressure from
        hammering one block.
        """
        best_block: int | None = None
        best_key: tuple[int, int, int] | None = None
        for block in sorted(plane.sealed_blocks()):
            valid = plane.valid_count[block]
            if valid >= plane.pages_per_block:
                continue  # full block == not worth it
            key = (valid, plane.erase_count[block], block)
            if best_key is None or key < best_key:
                best_key = key
                best_block = block
        return best_block

    def maybe_collect(self, plane: PlaneState) -> list[GCWorkItem]:
        """Run GC on ``plane`` if below threshold; return timing work items."""
        if not self.state.needs_gc(plane):
            return []
        return self.collect(plane)

    def collect(self, plane: PlaneState) -> list[GCWorkItem]:
        """Reclaim blocks until the restore level (or no progress)."""
        items: list[GCWorkItem] = []
        while plane.free_blocks < self.state.gc_restore_blocks:
            victim = self.pick_victim(plane)
            if victim is None:
                break
            items.append(self._reclaim(plane, victim))
        return items

    def _reclaim(self, plane: PlaneState, victim: int) -> GCWorkItem:
        moves = self.state.relocate(plane, victim)
        channel = plane.plane_index // self._planes_per_channel
        retired = False
        if self.faults is not None and self.faults.erase_fails(
            channel, plane.erase_count[victim]
        ):
            plane.retire_block(victim)
            self.faults.note_retirement(plane.pages_per_block)
            retired = True
        else:
            plane.erase_block(victim)
            self.collections += 1
        self.pages_moved += moves
        if self._probe is not None:
            self._probe.gc_reclaim(channel, moves, retired)
        if self.sanitizer is not None:
            self.sanitizer.after_gc(self.state, plane)
        return GCWorkItem(plane.plane_index, victim, moves, retired=retired)
