"""Chronological mixing of tenant streams."""

import pytest

from repro.ssd import IORequest, OpType
from repro.workloads import MixedWorkload, WorkloadSpec, generate, mix, synthesize_mix


def spec(name="t", write_ratio=0.5, rate=1000.0):
    return WorkloadSpec(name=name, write_ratio=write_ratio, rate_rps=rate,
                        footprint_pages=4096)


class TestMix:
    def test_merges_chronologically(self):
        s0, s1 = spec("a"), spec("b")
        streams = [
            generate(s0, 50, workload_id=0, seed=1),
            generate(s1, 50, workload_id=1, seed=2),
        ]
        mixed = mix(streams, [s0, s1])
        arrivals = [r.arrival_us for r in mixed.requests]
        assert arrivals == sorted(arrivals)
        assert len(mixed.requests) == 100

    def test_limit_truncates_head(self):
        s0, s1 = spec("a"), spec("b")
        streams = [
            generate(s0, 50, workload_id=0, seed=1),
            generate(s1, 50, workload_id=1, seed=2),
        ]
        mixed = mix(streams, [s0, s1], limit=30)
        assert len(mixed.requests) == 30
        full = mix(streams, [s0, s1])
        assert [r.arrival_us for r in mixed.requests] == [
            r.arrival_us for r in full.requests[:30]
        ]

    def test_rejects_misaligned_specs(self):
        with pytest.raises(ValueError):
            mix([[]], [spec(), spec()])

    def test_rejects_mislabelled_stream(self):
        bad = [IORequest(arrival_us=0.0, workload_id=1, op=OpType.READ, lpn=0)]
        with pytest.raises(ValueError):
            mix([bad], [spec()])


class TestMixedWorkloadStats:
    def make(self):
        s0 = spec("w", write_ratio=1.0)
        s1 = spec("r", write_ratio=0.0)
        streams = [
            generate(s0, 60, workload_id=0, seed=3),
            generate(s1, 40, workload_id=1, seed=4),
        ]
        return mix(streams, [s0, s1])

    def test_proportions_sum_to_one(self):
        mixed = self.make()
        props = mixed.proportions()
        assert sum(props) == pytest.approx(1.0)
        assert props[0] == pytest.approx(0.6, abs=0.01)

    def test_count_for(self):
        mixed = self.make()
        counts = [p * len(mixed.requests) for p in mixed.proportions()]
        assert counts == pytest.approx([60, 40])

    def test_write_fraction(self):
        mixed = self.make()
        assert mixed.write_fraction() == pytest.approx(0.6, abs=0.01)

    def test_duration_positive(self):
        assert self.make().duration_us() > 0

    def test_empty_mix_stats(self):
        empty = MixedWorkload(specs=[spec()], requests=[])
        assert empty.proportions() == [0.0]
        assert empty.write_fraction() == 0.0
        assert empty.duration_us() == 0.0


class TestSynthesizeMix:
    def test_total_requests_honoured(self):
        specs = [spec("a", rate=1000), spec("b", rate=3000)]
        mixed = synthesize_mix(specs, total_requests=400, seed=1)
        assert len(mixed.requests) == 400

    def test_counts_follow_rates(self):
        specs = [spec("a", rate=1000), spec("b", rate=3000)]
        mixed = synthesize_mix(specs, total_requests=1000, seed=2)
        props = mixed.proportions()
        assert props[1] == pytest.approx(0.75, abs=0.08)

    def test_requires_specs(self):
        with pytest.raises(ValueError):
            synthesize_mix([], total_requests=10)

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            synthesize_mix([spec()], total_requests=-1)

    def test_deterministic_per_seed(self):
        specs = [spec("a"), spec("b")]
        a = synthesize_mix(specs, total_requests=100, seed=5)
        b = synthesize_mix(specs, total_requests=100, seed=5)
        assert [r.lpn for r in a.requests] == [r.lpn for r in b.requests]
