"""The stack generalises beyond the paper's 8-channel / 4-tenant setting.

The paper fixes Table I's geometry; a reusable library must not.  These
tests run the full pipeline pieces on other channel counts, tenant counts
and hierarchies.
"""

import numpy as np
import pytest

from repro.core import LabelerConfig, StrategySpace, enumerate_strategies, label_sample
from repro.ssd import IORequest, OpType, SSDConfig, fast_simulate, simulate


class TestStrategySpaces:
    def test_sixteen_channel_four_tenants(self):
        space = StrategySpace(16, 4)
        # Shared + Isolated + (15 two-part - equal) + (C(15,3) four-part - equal)
        assert len(space) == 2 + 14 + (455 - 1)
        sets = space.by_label("13:1:1:1").channel_sets(16, [True] * 4)
        assert len(sets[0]) == 13

    def test_two_tenants_on_four_channels(self):
        space = StrategySpace(4, 2)
        assert [s.label for s in space] == ["Shared", "Isolated", "3:1", "1:3"]

    def test_odd_channel_count(self):
        # 7 channels: no equal two-part split exists; Isolated needs
        # divisibility and should raise when asked for concrete sets.
        strategies = enumerate_strategies(7, 2)
        labels = [s.label for s in strategies]
        assert "3:4" in labels and "4:3" in labels
        with pytest.raises(ValueError):
            strategies[1].channel_sets(7, [True, False])  # Isolated, 7 % 2 != 0

    def test_eight_tenants_isolated(self):
        space = StrategySpace(8, 8)
        sets = space.isolated.channel_sets(8, [True] * 8)
        assert all(len(chs) == 1 for chs in sets.values())


class TestOtherDevices:
    @pytest.fixture
    def wide_config(self):
        """4 channels, 4 chips each, 2 dies per chip."""
        return SSDConfig(
            channels=4,
            chips_per_channel=4,
            dies_per_chip=2,
            planes_per_die=2,
            blocks_per_plane=32,
            pages_per_block=64,
        )

    def test_simulation_on_wide_device(self, wide_config):
        reqs = [
            IORequest(arrival_us=float(i) * 30, workload_id=i % 2,
                      op=OpType(i % 2), lpn=i * 3, length=2)
            for i in range(200)
        ]
        sets = {0: [0, 1], 1: [2, 3]}
        result = simulate(reqs, wide_config, sets)
        assert result.requests == 200
        assert wide_config.dies == 32

    def test_engines_agree_on_wide_device(self, wide_config):
        rng = np.random.default_rng(5)
        reqs = [
            IORequest(
                arrival_us=float(i) * 400,
                workload_id=0,
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 1024)),
            )
            for i in range(80)
        ]
        sets = {0: [0, 1, 2, 3]}
        exact = simulate(list(reqs), wide_config, sets)
        approx = fast_simulate(
            [IORequest(r.arrival_us, 0, r.op, r.lpn) for r in reqs],
            wide_config, sets,
        )
        assert approx.total_latency_us == pytest.approx(
            exact.total_latency_us, rel=0.02
        )

    def test_labeling_on_two_tenant_space(self):
        cfg = LabelerConfig(
            ssd=SSDConfig.small(),
            n_tenants=2,
            window_requests_max=200,
            window_s=0.02,
            replications=1,
        )
        space = StrategySpace(8, 2)
        sample = label_sample(cfg, np.random.default_rng(1), space)
        assert 0 <= sample.label < 8
        assert len(sample.total_latencies_us) == 8
        assert len(sample.features.to_array()) == 5  # 1 + 2*2


class TestSingleChannelDegenerate:
    def test_one_channel_device_serialises_everything(self):
        config = SSDConfig(
            channels=1, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=2, blocks_per_plane=16, pages_per_block=16,
        )
        reqs = [
            IORequest(arrival_us=0.0, workload_id=0, op=OpType.READ, lpn=i)
            for i in range(8)
        ]
        result = simulate(reqs, config, {0: [0]})
        # All eight reads share one die: completion is fully serial.
        assert result.read.max_us > 7 * config.read_latency_us
