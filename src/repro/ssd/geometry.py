"""Physical addressing across the channel/chip/die/plane/block/page hierarchy.

A physical page is identified either structurally (:class:`PhysicalAddress`)
or as a flat integer **PPN** (physical page number).  The flat form is what
the FTL mapping table stores; the structural form is what the timing engine
consumes.  Conversions between the two are exact inverses, which the property
tests in ``tests/ssd/test_geometry.py`` verify exhaustively.

PPN layout (most-significant first)::

    channel | chip | die | plane | block | page

so that consecutive PPNs within one plane are consecutive pages of one block,
and striding by ``pages_per_plane`` moves to the next plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .config import SSDConfig

__all__ = ["PhysicalAddress", "Geometry"]


@dataclass(frozen=True, order=True)
class PhysicalAddress:
    """Structural address of one flash page."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def plane_key(self) -> tuple[int, int, int, int]:
        """Key identifying the plane that holds this page."""
        return (self.channel, self.chip, self.die, self.plane)

    def die_key(self) -> tuple[int, int, int]:
        """Key identifying the die that executes commands for this page."""
        return (self.channel, self.chip, self.die)


class Geometry:
    """Address arithmetic for one :class:`~repro.ssd.config.SSDConfig`.

    Instances are cheap and stateless; they only precompute the mixed-radix
    strides used for PPN packing/unpacking.
    """

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        c = config
        self._page_stride = 1
        self._block_stride = c.pages_per_block
        self._plane_stride = self._block_stride * c.blocks_per_plane
        self._die_stride = self._plane_stride * c.planes_per_die
        self._chip_stride = self._die_stride * c.dies_per_chip
        self._channel_stride = self._chip_stride * c.chips_per_channel
        self.total_pages = self._channel_stride * c.channels

    # ------------------------------------------------------------------
    # PPN packing
    # ------------------------------------------------------------------
    def pack(self, addr: PhysicalAddress) -> int:
        """Flatten a structural address into a PPN."""
        self._check(addr)
        return (
            addr.channel * self._channel_stride
            + addr.chip * self._chip_stride
            + addr.die * self._die_stride
            + addr.plane * self._plane_stride
            + addr.block * self._block_stride
            + addr.page
        )

    def unpack(self, ppn: int) -> PhysicalAddress:
        """Expand a PPN into a structural address."""
        if not 0 <= ppn < self.total_pages:
            raise ValueError(f"PPN {ppn} out of range [0, {self.total_pages})")
        channel, rem = divmod(ppn, self._channel_stride)
        chip, rem = divmod(rem, self._chip_stride)
        die, rem = divmod(rem, self._die_stride)
        plane, rem = divmod(rem, self._plane_stride)
        block, page = divmod(rem, self._block_stride)
        return PhysicalAddress(channel, chip, die, plane, block, page)

    def channel_of(self, ppn: int) -> int:
        """Channel index of a PPN without a full unpack."""
        return ppn // self._channel_stride

    def chip_of(self, ppn: int) -> tuple[int, int]:
        """(channel, chip) pair of a PPN without a full unpack."""
        channel, rem = divmod(ppn, self._channel_stride)
        return channel, rem // self._chip_stride

    def plane_index(self, ppn: int) -> int:
        """Flat plane index (0 .. planes-1) of a PPN."""
        return ppn // self._plane_stride

    def plane_base_ppn(self, plane_index: int) -> int:
        """First PPN of a flat plane index."""
        if not 0 <= plane_index < self.config.planes:
            raise ValueError(f"plane index {plane_index} out of range")
        return plane_index * self._plane_stride

    # ------------------------------------------------------------------
    # Enumeration helpers
    # ------------------------------------------------------------------
    def checked_channel_sets(
        self, channel_sets: Mapping[int, Iterable[int]]
    ) -> dict[int, list[int]]:
        """Each tenant's channel set as sorted distinct channel ids; raises
        ``ValueError`` for an empty set or a channel out of range."""
        sets = {wid: sorted(set(chs)) for wid, chs in channel_sets.items()}
        for wid, chs in sets.items():
            if not chs:
                raise ValueError(f"workload {wid} has an empty channel set")
            for ch in chs:
                if not 0 <= ch < self.config.channels:
                    raise ValueError(f"workload {wid}: channel {ch} out of range")
        return sets

    def planes_in_channels(self, channels: list[int]) -> list[int]:
        """Flat plane indices belonging to the given channel set, sorted."""
        per_channel = self.config.planes // self.config.channels
        out: list[int] = []
        for ch in sorted(channels):
            if not 0 <= ch < self.config.channels:
                raise ValueError(f"channel {ch} out of range")
            start = ch * per_channel
            out.extend(range(start, start + per_channel))
        return out

    def iter_dies(self) -> Iterator[tuple[int, int, int]]:
        """Yield every (channel, chip, die) key in the device."""
        c = self.config
        for channel in range(c.channels):
            for chip in range(c.chips_per_channel):
                for die in range(c.dies_per_chip):
                    yield (channel, chip, die)

    # ------------------------------------------------------------------
    def _check(self, addr: PhysicalAddress) -> None:
        c = self.config
        bounds = (
            (addr.channel, c.channels, "channel"),
            (addr.chip, c.chips_per_channel, "chip"),
            (addr.die, c.dies_per_chip, "die"),
            (addr.plane, c.planes_per_die, "plane"),
            (addr.block, c.blocks_per_plane, "block"),
            (addr.page, c.pages_per_block, "page"),
        )
        for value, limit, name in bounds:
            if not 0 <= value < limit:
                raise ValueError(f"{name} {value} out of range [0, {limit})")
