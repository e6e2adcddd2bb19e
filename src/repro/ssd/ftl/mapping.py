"""Page-level address mapping and per-plane flash state.

:class:`PlaneState` owns the physical pages of one plane: a pool of free
(erased) blocks, one *active* block receiving appends, and per-block
valid-page counts.  :class:`MappingTable` owns the LPN→PPN map and keeps the
plane states consistent on overwrite (old page invalidated) and on GC moves.
:class:`FlashArrayState` bundles one mapping table with all plane states for
a device.

Invariants maintained (and property-tested):

* every mapped LPN resolves to exactly one PPN and back (bijection);
* a plane's ``free_pages + live_pages + dead_pages + retired_pages ==
  pages_per_plane`` (retired pages belong to bad blocks);
* valid counts per block never exceed ``pages_per_block`` or drop below 0;
* a bad block is never sealed, free, or active — it can never be
  allocated from, GC'd, or erased again.
"""

from __future__ import annotations

from collections import deque

from ..config import SSDConfig
from ..geometry import Geometry

__all__ = ["PlaneState", "MappingTable", "FlashArrayState"]


class PlaneState:
    """Free-space and validity bookkeeping for one plane.

    Pages inside the active block are handed out strictly in order (flash
    forbids out-of-order programming within a block).
    """

    __slots__ = (
        "plane_index",
        "base_ppn",
        "pages_per_block",
        "blocks",
        "_free_blocks",
        "active_block",
        "next_page",
        "valid_count",
        "_sealed",
        "erase_count",
        "live_pages",
        "dead_pages",
        "bad_blocks",
        "retired_pages",
    )

    def __init__(self, plane_index: int, geometry: Geometry) -> None:
        cfg = geometry.config
        self.plane_index = plane_index
        self.base_ppn = geometry.plane_base_ppn(plane_index)
        self.pages_per_block = cfg.pages_per_block
        self.blocks = cfg.blocks_per_plane
        self._free_blocks: deque[int] = deque(range(self.blocks))
        self.active_block: int = self._free_blocks.popleft()
        self.next_page: int = 0
        #: valid (live) pages per block
        self.valid_count = [0] * self.blocks
        #: blocks fully written and no longer active (GC candidates)
        self._sealed: set[int] = set()
        self.erase_count = [0] * self.blocks
        self.live_pages = 0
        self.dead_pages = 0
        #: blocks permanently retired after program/erase failures
        self.bad_blocks: set[int] = set()
        #: pages lost to retired blocks (capacity gone for good)
        self.retired_pages = 0

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Erased blocks available (excludes the active block)."""
        return len(self._free_blocks)

    @property
    def free_pages(self) -> int:
        """Programmable pages remaining in this plane."""
        active_left = self.pages_per_block - self.next_page
        return self.free_blocks * self.pages_per_block + active_left

    @property
    def total_pages(self) -> int:
        return self.blocks * self.pages_per_block

    @property
    def usable_pages(self) -> int:
        """Physical pages not lost to retired (bad) blocks."""
        return self.total_pages - self.retired_pages

    def has_free_page(self) -> bool:
        return self.free_pages > 0

    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        """Consume the next page of the active block; return its PPN.

        Raises :class:`RuntimeError` when the plane is physically full —
        callers must run GC (or check :meth:`has_free_page`) first.
        """
        if self.next_page >= self.pages_per_block:
            self._seal_active()
        block, page = self.active_block, self.next_page
        self.next_page += 1
        self.valid_count[block] += 1
        self.live_pages += 1
        if self.next_page >= self.pages_per_block and self._free_blocks:
            # Seal eagerly so free_blocks reflects reality between allocations.
            self._seal_active()
        return self.base_ppn + block * self.pages_per_block + page

    def _seal_active(self) -> None:
        if not self._free_blocks:
            raise RuntimeError(
                f"plane {self.plane_index} out of space (GC did not keep up)"
            )
        self._sealed.add(self.active_block)
        self.active_block = self._free_blocks.popleft()
        self.next_page = 0

    def invalidate(self, ppn: int) -> None:
        """Mark the page at ``ppn`` dead (after an overwrite or GC move)."""
        block = self._block_of(ppn)
        if self.valid_count[block] <= 0:
            raise ValueError(f"invalidate on empty block {block}")
        self.valid_count[block] -= 1
        self.live_pages -= 1
        self.dead_pages += 1

    def erase_block(self, block: int) -> None:
        """Erase a sealed, fully-invalid block and return it to the pool."""
        if block == self.active_block:
            raise ValueError("cannot erase the active block")
        if self.valid_count[block] != 0:
            raise ValueError(f"block {block} still has {self.valid_count[block]} valid pages")
        if block not in self._sealed:
            raise ValueError(f"block {block} is not sealed")
        self._sealed.remove(block)
        self.dead_pages -= self.pages_per_block
        self.erase_count[block] += 1
        self._free_blocks.append(block)

    # ------------------------------------------------------------------
    # Bad-block retirement (fault injection)
    # ------------------------------------------------------------------
    def next_program_block(self) -> int:
        """Block that will receive the next programmed page."""
        if self.next_page < self.pages_per_block:
            return self.active_block
        if not self._free_blocks:
            raise RuntimeError(
                f"plane {self.plane_index} out of space (GC did not keep up)"
            )
        return self._free_blocks[0]

    def begin_retire_active(self) -> int:
        """Pull the failing active block out of service; returns its id.

        A fresh active block is installed from the free pool so relocation
        (and subsequent host writes) have somewhere to go.  The failing
        block's unprogrammed pages leave the free pool permanently here;
        its programmed pages stay accounted as live/dead until the caller
        relocates the valid ones and calls :meth:`retire_block`.
        """
        if not self._free_blocks:
            raise RuntimeError(
                f"plane {self.plane_index}: no spare block to replace the "
                "failing active block"
            )
        failed = self.active_block
        self.retired_pages += self.pages_per_block - self.next_page
        self.active_block = self._free_blocks.popleft()
        self.next_page = 0
        return failed

    def retire_block(self, block: int, *, programmed_pages: int | None = None) -> None:
        """Permanently remove a fully-invalid block from service.

        ``programmed_pages`` is how many of the block's pages were actually
        programmed (all of them for a sealed block — the default; the
        failure-time ``next_page`` for a block pulled via
        :meth:`begin_retire_active`).  Those pages must all be dead by now:
        callers relocate valid data first.
        """
        if block == self.active_block:
            raise ValueError("cannot retire the active block (begin_retire_active first)")
        if self.valid_count[block] != 0:
            raise ValueError(
                f"block {block} still has {self.valid_count[block]} valid pages"
            )
        if block in self.bad_blocks:
            raise ValueError(f"block {block} is already retired")
        if programmed_pages is None:
            programmed_pages = self.pages_per_block
        self._sealed.discard(block)
        self.dead_pages -= programmed_pages
        self.retired_pages += programmed_pages
        self.bad_blocks.add(block)

    def retire_free_block(self, block: int) -> None:
        """Retire an erased block straight out of the free pool."""
        self._free_blocks.remove(block)  # raises ValueError if not free
        self.retired_pages += self.pages_per_block
        self.bad_blocks.add(block)

    def block_of(self, ppn: int) -> int:
        """Block index (within this plane) holding ``ppn``."""
        return self._block_of(ppn)

    # ------------------------------------------------------------------
    def sealed_blocks(self) -> set[int]:
        """Blocks eligible as GC victims."""
        return self._sealed

    def pages_in_block(self, block: int) -> range:
        """PPNs covered by ``block`` in this plane."""
        start = self.base_ppn + block * self.pages_per_block
        return range(start, start + self.pages_per_block)

    def _block_of(self, ppn: int) -> int:
        offset = ppn - self.base_ppn
        if not 0 <= offset < self.total_pages:
            raise ValueError(f"PPN {ppn} not in plane {self.plane_index}")
        return offset // self.pages_per_block


class MappingTable:
    """Bidirectional LPN↔PPN map with overwrite semantics."""

    __slots__ = ("_l2p", "_p2l", "_sanitizer")

    def __init__(self) -> None:
        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}
        #: optional :class:`repro.analysis.Sanitizer`; when attached, every
        #: bind/unbind re-checks the bijection incrementally
        self._sanitizer = None

    def attach_sanitizer(self, sanitizer) -> None:
        self._sanitizer = sanitizer

    def __len__(self) -> int:
        return len(self._l2p)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._l2p

    def lookup(self, lpn: int) -> int | None:
        """PPN currently holding ``lpn``, or None if never written."""
        return self._l2p.get(lpn)

    def reverse(self, ppn: int) -> int | None:
        """LPN stored at ``ppn``, or None if the page is dead/free."""
        return self._p2l.get(ppn)

    def bind(self, lpn: int, ppn: int) -> int | None:
        """Map ``lpn`` to ``ppn``; return the displaced old PPN (if any)."""
        if ppn in self._p2l:
            raise ValueError(f"PPN {ppn} already holds LPN {self._p2l[ppn]}")
        old = self._l2p.get(lpn)
        if old is not None:
            del self._p2l[old]
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        if self._sanitizer is not None:
            self._sanitizer.on_bind(self, lpn, ppn)
        return old

    def unbind_ppn(self, ppn: int) -> int:
        """Remove the mapping entry at ``ppn`` (GC move source). Returns LPN."""
        lpn = self._p2l.pop(ppn)
        del self._l2p[lpn]
        if self._sanitizer is not None:
            self._sanitizer.on_unbind(self, lpn, ppn)
        return lpn


class FlashArrayState:
    """All FTL state for one device: mapping + every plane."""

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.geometry = Geometry(config)
        self.mapping = MappingTable()
        self.planes = [PlaneState(i, self.geometry) for i in range(config.planes)]
        self.gc_threshold_blocks = max(1, int(config.blocks_per_plane * config.gc_threshold))
        self.gc_restore_blocks = max(
            self.gc_threshold_blocks + 1,
            int(config.blocks_per_plane * config.gc_restore),
        )

    def plane_of_ppn(self, ppn: int) -> PlaneState:
        return self.planes[self.geometry.plane_index(ppn)]

    def write(self, lpn: int, plane: PlaneState) -> int:
        """Program ``lpn`` into ``plane``; handles overwrite invalidation."""
        ppn = plane.allocate_page()
        old = self.mapping.bind(lpn, ppn)
        if old is not None:
            self.plane_of_ppn(old).invalidate(old)
        return ppn

    def relocate(self, plane: PlaneState, block: int) -> int:
        """Copy ``block``'s valid pages to ``plane``'s active block (GC
        reclaim and program-failure retirement); returns the pages moved."""
        mapping = self.mapping
        moves = 0
        for ppn in plane.pages_in_block(block):
            lpn = mapping.reverse(ppn)
            if lpn is None:
                continue
            mapping.unbind_ppn(ppn)
            plane.invalidate(ppn)
            mapping.bind(lpn, plane.allocate_page())
            moves += 1
        return moves

    def needs_gc(self, plane: PlaneState) -> bool:
        return plane.free_blocks < self.gc_threshold_blocks

    def mapped_pages(self) -> int:
        return len(self.mapping)

    def retired_blocks(self) -> int:
        """Device-wide count of blocks retired to the bad-block tables."""
        return sum(len(plane.bad_blocks) for plane in self.planes)

    def usable_pages(self) -> int:
        """Device-wide physical pages not lost to retired blocks."""
        return sum(plane.usable_pages for plane in self.planes)
