"""SSD hardware configuration.

:class:`SSDConfig` captures the structural and timing parameters of the
simulated device.  The defaults reproduce Table I of the SSDKeeper paper
(16 KiB pages, 128 pages/block, 4096 blocks/plane, 4 planes/chip,
2 chips/channel, 8 channels, 20 us read, 200 us write, 1.5 ms erase,
512 GiB physical capacity).

All times in this package are expressed in **microseconds** and all sizes in
**bytes** unless a name says otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["SSDConfig", "KNOBS", "KiB", "MiB", "GiB"]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: blocks per plane of :meth:`SSDConfig.small` (the paper's device has 4096)
_SMALL_BLOCKS_PER_PLANE = 64

#: Counterfactual knob name -> config fields it scales.  The what-if
#: engine (``repro.obs.whatif``) re-simulates a run with one knob scaled
#: by a factor; keeping the mapping here, next to the fields, means a
#: renamed field breaks loudly instead of silently freezing a knob.
#: ``gc_threshold`` scales *both* watermarks so the hysteresis band
#: keeps its shape (``__post_init__`` enforces threshold < restore).
KNOBS: dict[str, tuple[str, ...]] = {
    "bus_bandwidth": ("channel_bandwidth_mbps",),
    "read_latency": ("read_latency_us",),
    "write_latency": ("write_latency_us",),
    "erase_latency": ("erase_latency_us",),
    "command_overhead": ("command_overhead_us",),
    "gc_threshold": ("gc_threshold", "gc_restore"),
}


@dataclass(frozen=True)
class SSDConfig:
    """Structural and timing description of one SSD device.

    The geometry forms the hierarchy ``channel -> chip -> die -> plane ->
    block -> page``.  A die is the unit that accepts and executes flash
    commands; a plane has its own page/cache registers; a block is the erase
    unit and a page the read/write unit.

    Parameters mirror Table I of the paper; ``dies_per_chip`` is implicit in
    the paper (capacity arithmetic requires 1) and kept explicit here so other
    devices can be modelled.
    """

    #: Number of independent channels (buses) in the controller.
    channels: int = 8
    #: Flash chips (packages) attached to each channel.
    chips_per_channel: int = 2
    #: Dies per chip; each die executes one flash command at a time.
    dies_per_chip: int = 1
    #: Planes per die; planes add register-level parallelism.
    planes_per_die: int = 4
    #: Blocks per plane; a block is the erase unit.
    blocks_per_plane: int = 4096
    #: Pages per block; a page is the read/program unit.
    pages_per_block: int = 128
    #: Bytes per flash page.
    page_size: int = 16 * KiB

    #: Flash array read (tR) latency in microseconds.
    read_latency_us: float = 20.0
    #: Flash array program (tPROG) latency in microseconds.
    write_latency_us: float = 200.0
    #: Block erase (tBERS) latency in microseconds.
    erase_latency_us: float = 1500.0
    #: Channel bus bandwidth used to move one page between controller and
    #: chip registers, in MB/s.  400 MB/s moves a 16 KiB page in 40 us,
    #: which is in line with ONFI 3-era buses modelled by SSDSim.
    channel_bandwidth_mbps: float = 400.0
    #: Fixed per-command bus overhead (command/address cycles), microseconds.
    command_overhead_us: float = 0.2

    #: Fraction of blocks kept free per plane before GC triggers.
    gc_threshold: float = 0.02
    #: GC stops reclaiming once this free fraction is restored.
    gc_restore: float = 0.04
    #: Over-provisioning fraction of the logical space exposed to tenants.
    overprovisioning: float = 0.07

    def __post_init__(self) -> None:
        for field in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")
        for field in (
            "read_latency_us",
            "write_latency_us",
            "erase_latency_us",
            "channel_bandwidth_mbps",
        ):
            value = getattr(self, field)
            if value <= 0:
                raise ValueError(f"{field} must be positive, got {value!r}")
        if self.command_overhead_us < 0:
            raise ValueError("command_overhead_us must be non-negative")
        if not 0 < self.gc_threshold < self.gc_restore < 1:
            raise ValueError("require 0 < gc_threshold < gc_restore < 1")
        if not 0 <= self.overprovisioning < 1:
            raise ValueError("overprovisioning must be in [0, 1)")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def chips(self) -> int:
        """Total chip count across the device."""
        return self.channels * self.chips_per_channel

    @property
    def dies(self) -> int:
        """Total die count across the device."""
        return self.chips * self.dies_per_chip

    @property
    def planes(self) -> int:
        """Total plane count across the device."""
        return self.dies * self.planes_per_die

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def pages_per_chip(self) -> int:
        return self.pages_per_plane * self.planes_per_die * self.dies_per_chip

    @property
    def pages_per_channel(self) -> int:
        return self.pages_per_chip * self.chips_per_channel

    @property
    def total_pages(self) -> int:
        return self.pages_per_channel * self.channels

    @property
    def physical_capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    @property
    def logical_pages(self) -> int:
        """Pages exposed to tenants after over-provisioning."""
        return int(self.total_pages * (1.0 - self.overprovisioning))

    @property
    def page_transfer_us(self) -> float:
        """Time to move one page over the channel bus, in microseconds."""
        return self.page_size / self.channel_bandwidth_mbps  # repro-lint: disable=R001 (MB/s equals bytes/us, so bytes divided by it is microseconds)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "SSDConfig":
        """The exact Table-I configuration (512 GiB, 8 channels)."""
        return cls()

    @classmethod
    def small(cls) -> "SSDConfig":
        """A shrunken device for tests and fast sweeps.

        Keeps the channel/chip topology of the paper but reduces the block
        count so that GC behaviour can be exercised with short traces.
        """
        return cls(blocks_per_plane=_SMALL_BLOCKS_PER_PLANE)

    def replace(self, **changes: object) -> "SSDConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def scale_knob(self, knob: str, factor: float) -> "SSDConfig":
        """Return a copy with one :data:`KNOBS` entry scaled by ``factor``.

        Raises ``KeyError`` for an unknown knob and lets
        ``__post_init__``'s :class:`ValueError` propagate when the
        scaled value is out of range (e.g. ``gc_threshold`` scaled past
        1) — the what-if engine treats that as "knob inapplicable to
        this configuration" rather than an error.
        """
        fields = KNOBS[knob]
        return self.replace(
            **{field: getattr(self, field) * factor for field in fields}
        )

    def describe(self) -> str:
        """Human-readable one-paragraph summary (used by examples)."""
        cap = self.physical_capacity_bytes / GiB
        return (
            f"SSD: {self.channels} channels x {self.chips_per_channel} chips, "
            f"{self.dies_per_chip} die(s)/chip, {self.planes_per_die} planes/die, "
            f"{self.blocks_per_plane} blocks/plane, {self.pages_per_block} pages/block, "
            f"{self.page_size // KiB} KiB pages => {cap:.1f} GiB physical; "
            f"tR={self.read_latency_us:.0f}us tPROG={self.write_latency_us:.0f}us "
            f"tBERS={self.erase_latency_us:.0f}us bus={self.channel_bandwidth_mbps:.0f}MB/s"
        )
