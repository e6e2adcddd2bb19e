"""Geometry: PPN packing bijection and enumeration helpers."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.ssd import Geometry, PhysicalAddress, SSDConfig


@pytest.fixture
def geo(small_config):
    return Geometry(small_config)


class TestPackUnpack:
    def test_zero_address(self, geo):
        assert geo.pack(PhysicalAddress(0, 0, 0, 0, 0, 0)) == 0

    def test_last_address(self, geo):
        c = geo.config
        addr = PhysicalAddress(
            c.channels - 1,
            c.chips_per_channel - 1,
            c.dies_per_chip - 1,
            c.planes_per_die - 1,
            c.blocks_per_plane - 1,
            c.pages_per_block - 1,
        )
        assert geo.pack(addr) == geo.total_pages - 1

    @given(ppn=st.integers(min_value=0, max_value=8 * 2 * 1 * 4 * 64 * 128 - 1))
    def test_roundtrip_from_ppn(self, ppn):
        geo = Geometry(SSDConfig.small())
        assert geo.pack(geo.unpack(ppn)) == ppn

    @given(
        channel=st.integers(0, 7),
        chip=st.integers(0, 1),
        plane=st.integers(0, 3),
        block=st.integers(0, 63),
        page=st.integers(0, 127),
    )
    def test_roundtrip_from_address(self, channel, chip, plane, block, page):
        geo = Geometry(SSDConfig.small())
        addr = PhysicalAddress(channel, chip, 0, plane, block, page)
        assert geo.unpack(geo.pack(addr)) == addr

    def test_pack_rejects_out_of_range(self, geo):
        with pytest.raises(ValueError):
            geo.pack(PhysicalAddress(99, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            geo.pack(PhysicalAddress(0, 0, 0, 0, 0, -1))

    def test_unpack_rejects_out_of_range(self, geo):
        with pytest.raises(ValueError):
            geo.unpack(-1)
        with pytest.raises(ValueError):
            geo.unpack(geo.total_pages)

    def test_consecutive_ppns_walk_pages_first(self, geo):
        a0 = geo.unpack(0)
        a1 = geo.unpack(1)
        assert a1.page == a0.page + 1
        assert (a1.channel, a1.chip, a1.die, a1.plane, a1.block) == (
            a0.channel,
            a0.chip,
            a0.die,
            a0.plane,
            a0.block,
        )


class TestFastExtractors:
    @given(ppn=st.integers(min_value=0, max_value=8 * 2 * 4 * 64 * 128 - 1))
    def test_channel_of_matches_unpack(self, ppn):
        geo = Geometry(SSDConfig.small())
        assert geo.channel_of(ppn) == geo.unpack(ppn).channel

    @given(ppn=st.integers(min_value=0, max_value=8 * 2 * 4 * 64 * 128 - 1))
    def test_chip_of_matches_unpack(self, ppn):
        # channel | chip | die | plane | block | page, most significant first
        geo = Geometry(SSDConfig.small())
        c = geo.config
        pages_per_chip = c.dies_per_chip * c.planes_per_die * c.pages_per_plane
        addr = geo.unpack(ppn)
        assert (addr.channel, addr.chip) == divmod(ppn // pages_per_chip, c.chips_per_channel)

    @given(ppn=st.integers(min_value=0, max_value=8 * 2 * 4 * 64 * 128 - 1))
    def test_plane_index_consistent_with_base(self, ppn):
        geo = Geometry(SSDConfig.small())
        plane = geo.plane_index(ppn)
        base = geo.plane_base_ppn(plane)
        assert base <= ppn < base + geo.config.pages_per_plane


class TestEnumeration:
    def test_planes_in_channels_counts(self, geo):
        per_channel = geo.config.planes // geo.config.channels
        planes = geo.planes_in_channels([0, 3])
        assert len(planes) == 2 * per_channel
        assert planes == sorted(planes)

    def test_planes_in_channels_disjoint_per_channel(self, geo):
        all_planes = geo.planes_in_channels(list(range(geo.config.channels)))
        assert all_planes == list(range(geo.config.planes))

    def test_planes_in_channels_rejects_bad_channel(self, geo):
        with pytest.raises(ValueError):
            geo.planes_in_channels([geo.config.channels])

    def test_plane_base_rejects_bad_index(self, geo):
        with pytest.raises(ValueError):
            geo.plane_base_ppn(geo.config.planes)

    def test_iter_dies_unique_and_complete(self, geo):
        c = geo.config
        dies = {
            (addr.channel, addr.chip, addr.die)
            for addr in map(geo.unpack, map(geo.plane_base_ppn, range(c.planes)))
        }
        assert len(dies) == c.dies

    def test_plane_channel_relationship(self, geo):
        # Planes of channel k must map back to channel k via base PPNs.
        for ch in range(geo.config.channels):
            for plane in geo.planes_in_channels([ch]):
                assert geo.channel_of(geo.plane_base_ppn(plane)) == ch

    def test_address_ordering_is_lexicographic(self):
        assert PhysicalAddress(0, 0, 0, 0, 0, 1) < PhysicalAddress(0, 0, 0, 0, 1, 0)
