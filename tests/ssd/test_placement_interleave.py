"""Channel interleaving of dynamic placement (regression tests).

An earlier revision ordered the dynamic placer's candidates channel-major,
so tie-broken writes serialised on one channel's bus.  These tests pin the
interleaved behaviour in both engines.
"""

from repro.ssd import (
    FastLatencyModel,
    Geometry,
    IORequest,
    OpType,
    PageAllocMode,
    SSDConfig,
    SSDSimulator,
)
from repro.ssd.ftl.page_alloc import DynamicPagePlacer


class TestPlacerInterleaving:
    def test_idle_ties_alternate_channels(self):
        geo = Geometry(SSDConfig.small())
        placer = DynamicPagePlacer(geo, [0, 1, 2, 3], lambda p: (0,))
        channels = [
            geo.channel_of(geo.plane_base_ppn(placer.place(i))) for i in range(8)
        ]
        # Consecutive equal-load picks must cycle through all four channels.
        assert channels[:4] == [0, 1, 2, 3]
        assert channels[4:] == [0, 1, 2, 3]


class TestEngineWriteSpreading:
    def _burst(self, n=64):
        return [
            IORequest(arrival_us=0.0, workload_id=0, op=OpType.WRITE, lpn=i)
            for i in range(n)
        ]

    def test_des_dynamic_burst_uses_every_channel(self, small_config):
        sim = SSDSimulator(
            small_config,
            {0: list(range(8))},
            {0: PageAllocMode.DYNAMIC},
        )
        sim.run(self._burst())
        used = [c for c in sim.channels if c.grants > 0]
        assert len(used) == small_config.channels

    def test_fast_dynamic_burst_matches_des_scale(self, small_config):
        reqs = self._burst()
        des = SSDSimulator(
            small_config, {0: list(range(8))}, {0: PageAllocMode.DYNAMIC}
        ).run([IORequest(r.arrival_us, r.workload_id, r.op, r.lpn) for r in reqs])
        fast = FastLatencyModel(
            small_config, [IORequest(r.arrival_us, r.workload_id, r.op, r.lpn) for r in reqs]
        ).run({0: list(range(8))}, {0: PageAllocMode.DYNAMIC})
        # A simultaneous 64-write burst over 16 dies: both engines should
        # land within 2x of each other (no single-channel pathologies).
        ratio = fast.write.mean_us / des.write.mean_us
        assert 0.5 < ratio < 2.0

    def test_dynamic_beats_static_for_colocated_writes(self, small_config):
        # All writes target LPNs that statically map to one channel.
        reqs = [
            IORequest(arrival_us=float(i), workload_id=0, op=OpType.WRITE, lpn=i * 8)
            for i in range(32)
        ]
        static = SSDSimulator(
            small_config, {0: list(range(8))}, {0: PageAllocMode.STATIC}
        ).run([IORequest(r.arrival_us, r.workload_id, r.op, r.lpn) for r in reqs])
        dynamic = SSDSimulator(
            small_config, {0: list(range(8))}, {0: PageAllocMode.DYNAMIC}
        ).run([IORequest(r.arrival_us, r.workload_id, r.op, r.lpn) for r in reqs])
        assert dynamic.write.mean_us < static.write.mean_us / 2
