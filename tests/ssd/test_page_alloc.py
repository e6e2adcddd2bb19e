"""Static and dynamic page placers."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.ssd import Geometry, SSDConfig
from repro.ssd.ftl.page_alloc import DynamicPagePlacer, PageAllocMode, StaticPagePlacer, make_placer


@pytest.fixture
def geo():
    return Geometry(SSDConfig.small())


def idle_load(_plane):
    return (0,)


def no_fill(_plane):
    return 0


class TestStaticPlacer:
    def test_consecutive_lpns_hit_different_channels(self, geo):
        placer = StaticPagePlacer(geo, [0, 1, 2, 3])
        channels = [
            geo.channel_of(geo.plane_base_ppn(placer.place(lpn)))
            for lpn in range(4)
        ]
        assert channels == [0, 1, 2, 3]

    def test_stays_within_allowed_channels(self, geo):
        allowed = [2, 5]
        placer = StaticPagePlacer(geo, allowed)
        for lpn in range(200):
            plane = placer.place(lpn)
            channel = geo.channel_of(geo.plane_base_ppn(plane))
            assert channel in allowed

    def test_deterministic(self, geo):
        placer = StaticPagePlacer(geo, [0, 1])
        assert [placer.place(i) for i in range(50)] == [
            placer.place(i) for i in range(50)
        ]

    def test_covers_all_planes_of_channel_set(self, geo):
        allowed = [0, 1]
        placer = StaticPagePlacer(geo, allowed)
        planes = {placer.place(lpn) for lpn in range(1000)}
        assert planes == set(geo.planes_in_channels(allowed))

    def test_rejects_empty_channel_set(self, geo):
        with pytest.raises(ValueError):
            StaticPagePlacer(geo, [])

    @given(lpn=st.integers(0, 10**6))
    def test_any_lpn_lands_in_allowed_set(self, lpn):
        geo = Geometry(SSDConfig.small())
        placer = StaticPagePlacer(geo, [1, 4, 6])
        plane = placer.place(lpn)
        channel = geo.channel_of(geo.plane_base_ppn(plane))
        assert channel in (1, 4, 6)


class TestDynamicPlacer:
    def test_picks_least_busy(self, geo):
        fills = {}
        placer = DynamicPagePlacer(geo, [0, 1], idle_load, lambda p: fills.get(p, 0))
        candidates = geo.planes_in_channels([0, 1])
        for p in candidates:
            fills[p] = 5
        idle = candidates[7]
        fills[idle] = 0
        assert placer.place(0) == idle

    def test_round_robins_on_ties(self, geo):
        placer = DynamicPagePlacer(geo, [0], idle_load, no_fill)
        picks = [placer.place(i) for i in range(8)]
        assert len(set(picks)) == len(picks)  # spreads over distinct planes

    def test_rejects_empty_channel_set(self, geo):
        with pytest.raises(ValueError):
            DynamicPagePlacer(geo, [], idle_load, no_fill)


class TestPerDieScan:
    """The placer asks ``load_fn`` once per die and must pick what a plain
    scan over per-plane ``(load, fill)`` keys picks: the first minimum from
    the rotation start, among the viable planes unless none is."""

    @given(
        channels=st.sets(st.integers(0, 7), min_size=1, max_size=8),
        steps=st.lists(
            st.tuples(
                st.lists(st.integers(0, 2), min_size=16, max_size=16),
                st.lists(st.integers(-3, 0), min_size=64, max_size=64),
                st.sets(st.integers(0, 63), max_size=64),
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_matches_a_scan_over_plane_keys(self, channels, steps):
        geo = Geometry(SSDConfig.small())
        per_die = geo.config.planes_per_die
        state = {}
        calls = []

        def die_load(plane):
            calls.append(plane // per_die)
            return (state["loads"][plane // per_die],)

        def fill(plane):
            return state["fills"][plane]

        def viable(plane):
            return plane not in state["dead"]

        placer = DynamicPagePlacer(geo, channels, die_load, fill, viable)
        candidates = list(placer.candidates)
        n, start = len(candidates), 0
        for loads, fills, dead in steps:
            state.update(loads=loads, fills=fills, dead=dead)
            calls.clear()
            picked = placer.place(0)
            assert len(calls) == len(set(calls))  # once per die per scan
            rotation = [(start + k) % n for k in range(n)]
            pool = [i for i in rotation if viable(candidates[i])] or rotation
            best = min(
                pool, key=lambda i: (loads[candidates[i] // per_die], fills[candidates[i]])
            )
            assert picked == candidates[best]
            start = (best + 1) % n

    def test_all_planes_out_falls_back_to_least_busy(self, geo):
        loads = {3: 0}
        placer = DynamicPagePlacer(
            geo, [0, 1], lambda p: (loads.get(p // 4, 1),),
            lambda p: -p, lambda p: False,
        )
        assert placer.place(0) == 15  # die 3's emptiest plane


class TestFactory:
    def test_make_static(self, geo):
        placer = make_placer(PageAllocMode.STATIC, geo, [0], idle_load, no_fill)
        assert isinstance(placer, StaticPagePlacer)

    def test_make_dynamic(self, geo):
        placer = make_placer(PageAllocMode.DYNAMIC, geo, [0], idle_load, no_fill)
        assert isinstance(placer, DynamicPagePlacer)
