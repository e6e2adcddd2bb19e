"""Latency statistics and simulation results."""

import math

import pytest

from repro.ssd import LatencyAccumulator, OpStats, OpType
from repro.ssd.metrics import build_result


class TestOpStats:
    def test_online_aggregation(self):
        stats = OpStats()
        for v in (10.0, 30.0, 20.0):
            stats.add(v)
        assert stats.count == 3
        assert stats.total_us == 60.0
        assert stats.mean_us == 20.0
        assert stats.max_us == 30.0
        assert stats.min_us == 10.0

    def test_empty_mean_is_zero(self):
        assert OpStats().mean_us == 0.0

    def test_percentile_requires_samples(self):
        stats = OpStats()
        stats.add(1.0)
        with pytest.raises(RuntimeError):
            stats.percentile(50)

    def test_percentile_with_samples(self):
        stats = OpStats(samples=[])
        for v in range(1, 101):
            stats.add(float(v))
        assert stats.percentile(0) == 1.0
        assert stats.percentile(100) == 100.0
        assert stats.percentile(50) == pytest.approx(50.5)

    def test_percentile_validates_range(self):
        stats = OpStats(samples=[1.0])
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_merged(self):
        a = OpStats()
        b = OpStats()
        a.add(1.0)
        b.add(3.0)
        merged = a.merged(b)
        assert merged.count == 2
        assert merged.total_us == 4.0
        assert merged.max_us == 3.0
        assert merged.min_us == 1.0

    def test_merged_keeps_samples_from_one_recorded_side(self):
        recorded = OpStats(samples=[])
        recorded.add(5.0)
        recorded.add(15.0)
        unrecorded = OpStats()
        unrecorded.add(100.0)  # non-empty but no samples
        for merged in (recorded.merged(unrecorded), unrecorded.merged(recorded)):
            assert merged.count == 3
            assert merged.samples == [5.0, 15.0]
            assert merged.percentile(100) == 15.0  # recorded subset only

    def test_merged_both_empty_min_is_zero(self):
        merged = OpStats().merged(OpStats())
        assert merged.count == 0
        assert merged.min_us == 0.0
        assert merged.samples is None

    def test_merged_both_recorded_concatenates(self):
        a = OpStats(samples=[])
        b = OpStats(samples=[])
        a.add(1.0)
        b.add(2.0)
        merged = a.merged(b)
        assert sorted(merged.samples) == [1.0, 2.0]

    def test_percentile_validates_before_requiring_samples(self):
        with pytest.raises(ValueError):
            OpStats().percentile(-1)

    def test_percentile_cache_tracks_new_samples(self):
        stats = OpStats(samples=[])
        stats.add(10.0)
        assert stats.percentile(100) == 10.0
        stats.add(30.0)  # cache must be invalidated by the new sample
        assert stats.percentile(100) == 30.0
        assert stats.percentile(0) == 10.0


class TestLatencyAccumulator:
    def test_per_workload_per_op(self):
        acc = LatencyAccumulator()
        acc.add(0, OpType.READ, 10.0)
        acc.add(0, OpType.WRITE, 100.0)
        acc.add(1, OpType.READ, 20.0)
        assert acc.stats(0, OpType.READ).count == 1
        assert acc.stats(1, OpType.WRITE).count == 0
        assert acc.workloads() == [0, 1]

    def test_op_totals(self):
        acc = LatencyAccumulator()
        acc.add(0, OpType.READ, 10.0)
        acc.add(1, OpType.READ, 30.0)
        totals = acc.op_totals(OpType.READ)
        assert totals.count == 2
        assert totals.total_us == 40.0

    def test_records_samples_when_enabled(self):
        acc = LatencyAccumulator(record_latencies=True)
        acc.add(0, OpType.READ, 5.0)
        assert acc.stats(0, OpType.READ).samples == [5.0]

    def test_unknown_workload_returns_empty_stats(self):
        acc = LatencyAccumulator()
        acc.add(0, OpType.READ, 5.0)
        missing = acc.stats(42, OpType.READ)
        assert missing.count == 0
        assert missing.mean_us == 0.0
        assert 42 not in acc.workloads()

    def test_op_totals_over_mixed_op_streams(self):
        acc = LatencyAccumulator(record_latencies=True)
        acc.add(0, OpType.READ, 10.0)
        acc.add(0, OpType.WRITE, 100.0)
        acc.add(1, OpType.READ, 30.0)
        acc.add(1, OpType.WRITE, 300.0)
        reads = acc.op_totals(OpType.READ)
        writes = acc.op_totals(OpType.WRITE)
        assert (reads.count, writes.count) == (2, 2)
        assert reads.total_us == 40.0
        assert writes.total_us == 400.0
        assert sorted(reads.samples) == [10.0, 30.0]
        assert sorted(writes.samples) == [100.0, 300.0]

    def test_set_stats_matches_fast_model_path(self):
        """The vectorised fast model installs pre-aggregated stats."""
        from repro.ssd.fastmodel import _bulk_stats
        import numpy as np

        acc = LatencyAccumulator(record_latencies=True)
        acc.add(0, OpType.READ, 7.0)  # online half
        bulk = _bulk_stats(np.array([10.0, 20.0, 30.0]))
        acc.set_stats(1, OpType.READ, bulk)
        assert acc.workloads() == [0, 1]
        assert acc.stats(1, OpType.READ).count == 3
        assert bulk.samples is None  # the fast model keeps no samples
        totals = acc.op_totals(OpType.READ)
        assert totals.count == 4
        assert totals.total_us == 67.0
        assert (totals.min_us, totals.max_us) == (7.0, 30.0)

    def test_set_stats_without_samples_keeps_recorded_side(self):
        """Mixed record flags: totals stay exact, samples cover the
        recorded subset instead of vanishing."""
        from repro.ssd.fastmodel import _bulk_stats
        import numpy as np

        acc = LatencyAccumulator(record_latencies=True)
        acc.add(0, OpType.READ, 7.0)
        acc.set_stats(1, OpType.READ, _bulk_stats(np.array([10.0])))
        totals = acc.op_totals(OpType.READ)
        assert totals.count == 2
        assert totals.total_us == 17.0
        assert totals.samples == [7.0]


class TestSimulationResult:
    def make_result(self):
        acc = LatencyAccumulator()
        acc.add(0, OpType.READ, 10.0)
        acc.add(0, OpType.WRITE, 200.0)
        acc.add(1, OpType.READ, 30.0)
        return build_result(acc, makespan_us=1000.0, requests=3, subrequests=5)

    def test_total_latency_is_paper_objective(self):
        result = self.make_result()
        assert result.total_latency_us == 240.0
        assert result.mean_total_us == pytest.approx(80.0)

    def test_per_workload_breakdown(self):
        result = self.make_result()
        totals = {
            wid: read.total_us + write.total_us
            for wid, (read, write) in result.per_workload.items()
        }
        assert totals == {0: 210.0, 1: 30.0}

    def test_means(self):
        result = self.make_result()
        assert result.mean_read_us == pytest.approx(20.0)
        assert result.mean_write_us == pytest.approx(200.0)

    def test_summary_is_informative(self):
        text = self.make_result().summary()
        assert "3 reqs" in text
        assert "GC" in text
        assert "p95" not in text  # no samples recorded

    def test_summary_includes_read_tail_when_recorded(self):
        acc = LatencyAccumulator(record_latencies=True)
        for v in range(1, 101):
            acc.add(0, OpType.READ, float(v))
        acc.add(0, OpType.WRITE, 200.0)
        result = build_result(acc, makespan_us=1000.0, requests=101, subrequests=101)
        text = result.summary()
        assert "read p95 95.0us" in text
        assert "p99 99.0us" in text

    def test_empty_result(self):
        result = build_result(
            LatencyAccumulator(), makespan_us=0.0, requests=0, subrequests=0
        )
        assert result.total_latency_us == 0.0
        assert result.mean_total_us == 0.0
        assert math.isinf(result.read.min_us)
