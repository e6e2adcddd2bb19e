"""FTL controller: placement policy, pre-seeding, reallocation."""

import pytest

from repro.ssd import FTLController, SSDConfig
from repro.ssd.ftl.page_alloc import PageAllocMode


@pytest.fixture
def controller(small_config):
    return FTLController(
        small_config,
        channel_sets={0: [0, 1, 2, 3], 1: [4, 5, 6, 7]},
        page_modes={0: PageAllocMode.DYNAMIC, 1: PageAllocMode.STATIC},
    )


class TestConstruction:
    def test_rejects_empty_channel_sets(self, small_config):
        with pytest.raises(ValueError):
            FTLController(small_config, channel_sets={})
        with pytest.raises(ValueError):
            FTLController(small_config, channel_sets={0: []})

    def test_rejects_out_of_range_channel(self, small_config):
        with pytest.raises(ValueError):
            FTLController(small_config, channel_sets={0: [99]})

    def test_tenant_space_divides_logical_pages(self, small_config):
        ctrl = FTLController(small_config, channel_sets={0: [0], 1: [1]})
        assert ctrl.tenant_lpn_space == small_config.logical_pages // 2

    def test_default_mode_is_static(self, small_config):
        ctrl = FTLController(small_config, channel_sets={0: [0]})
        assert ctrl.page_modes[0] is PageAllocMode.STATIC


class TestWritePlacement:
    def test_write_stays_in_tenant_channels(self, controller):
        geo = controller.geometry
        for lpn in range(100):
            ppn, _ = controller.place_write(0, lpn)
            assert geo.channel_of(ppn) in (0, 1, 2, 3)
            ppn, _ = controller.place_write(1, lpn)
            assert geo.channel_of(ppn) in (4, 5, 6, 7)

    def test_unknown_workload_rejected(self, controller):
        with pytest.raises(KeyError):
            controller.place_write(9, 0)

    def test_lpn_over_tenant_space_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.place_write(0, controller.tenant_lpn_space)

    def test_overwrite_remaps(self, controller):
        first, _ = controller.place_write(0, 5)
        second, _ = controller.place_write(0, 5)
        assert first != second
        glpn = controller.global_lpn(0, 5)
        assert controller.state.mapping.lookup(glpn) == second


class TestReadResolution:
    def test_read_after_write_finds_data(self, controller):
        ppn, _ = controller.place_write(0, 7)
        assert controller.resolve_read(0, 7) == ppn
        assert controller.seeded_pages == 0

    def test_cold_read_preseeds_statically(self, controller):
        geo = controller.geometry
        ppn = controller.resolve_read(1, 0)
        assert controller.seeded_pages == 1
        assert geo.channel_of(ppn) in (4, 5, 6, 7)
        # Second read hits the same page without another seed.
        assert controller.resolve_read(1, 0) == ppn
        assert controller.seeded_pages == 1

    def test_tenants_do_not_alias(self, controller):
        p0 = controller.resolve_read(0, 42)
        p1 = controller.resolve_read(1, 42)
        assert p0 != p1

    def test_sequential_cold_reads_stripe_channels(self, controller):
        geo = controller.geometry
        channels = [geo.channel_of(controller.resolve_read(1, lpn)) for lpn in range(4)]
        assert len(set(channels)) == 4


class TestReallocation:
    def test_new_writes_follow_new_channels(self, controller):
        controller.place_write(0, 1)
        controller.reallocate({0: [6, 7], 1: [0, 1]})
        geo = controller.geometry
        for lpn in range(8):
            ppn, _ = controller.place_write(0, 100 + lpn)
            assert geo.channel_of(ppn) in (6, 7)

    def test_old_data_stays_readable(self, controller):
        before = controller.resolve_read(0, 3)
        controller.reallocate({0: [6, 7], 1: [0, 1]})
        assert controller.resolve_read(0, 3) == before

    def test_rejects_workload_set_change(self, controller):
        with pytest.raises(ValueError):
            controller.reallocate({0: [0]})
        with pytest.raises(ValueError):
            controller.reallocate({0: [0], 1: [1], 2: [2]})

    def test_rejects_bad_channels(self, controller):
        with pytest.raises(ValueError):
            controller.reallocate({0: [0], 1: [99]})
        with pytest.raises(ValueError):
            controller.reallocate({0: [], 1: [1]})

    def test_page_modes_update(self, controller):
        controller.reallocate(
            {0: [0], 1: [1]},
            page_modes={0: PageAllocMode.STATIC, 1: PageAllocMode.DYNAMIC},
        )
        assert controller.page_modes[0] is PageAllocMode.STATIC
        assert controller.page_modes[1] is PageAllocMode.DYNAMIC


class TestCapacityPressure:
    def test_fallback_finds_space_in_other_planes(self):
        config = SSDConfig(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=4,
            pages_per_block=4,
            overprovisioning=0.0,
        )
        ctrl = FTLController(config, channel_sets={0: [0, 1]})
        assert ctrl.tenant_lpn_space == 64  # one tenant owns every page
        # Write unique LPNs up to most of the device; the static stripe plus
        # fallback must never raise until space is truly gone.
        written = 0
        try:
            for lpn in range(64):
                ctrl.place_write(0, lpn)
                written += 1
        except RuntimeError:
            pass
        assert written >= 48  # nearly the whole device gets used

    def test_describe_mentions_tenants(self, controller):
        text = controller.describe()
        assert "wid 0" in text and "wid 1" in text
