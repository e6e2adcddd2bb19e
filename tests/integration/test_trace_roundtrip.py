"""Trace files drive the simulator identically to in-memory traces."""

import pytest

from repro.ssd import simulate
from repro.workloads import WorkloadSpec, generate, traces


class TestTraceDrivenSimulation:
    def test_file_trace_reproduces_in_memory_results(self, tmp_path, small_config):
        spec = WorkloadSpec(
            name="t", write_ratio=0.4, rate_rps=20_000, footprint_pages=4096
        )
        reqs = generate(spec, 400, workload_id=0, seed=9)
        path = tmp_path / "trace.csv"
        traces.dump(reqs, path)
        loaded = traces.load(path)

        sets = {0: list(range(small_config.channels))}
        direct = simulate(reqs, small_config, sets)
        from_file = simulate(loaded, small_config, sets)

        assert from_file.requests == direct.requests
        assert from_file.total_latency_us == pytest.approx(
            direct.total_latency_us, rel=1e-6
        )
        assert from_file.read.count == direct.read.count
        assert from_file.gc_collections == direct.gc_collections

    def test_multi_tenant_trace_roundtrip(self, tmp_path, small_config):
        specs = [
            WorkloadSpec(name="a", write_ratio=1.0, rate_rps=5000, footprint_pages=2048),
            WorkloadSpec(name="b", write_ratio=0.0, rate_rps=5000, footprint_pages=2048),
        ]
        reqs = sorted(
            generate(specs[0], 100, workload_id=0, seed=1)
            + generate(specs[1], 100, workload_id=1, seed=2),
            key=lambda r: r.arrival_us,
        )
        path = tmp_path / "mixed.csv"
        traces.dump(reqs, path)
        loaded = traces.load(path)
        sets = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
        a = simulate(reqs, small_config, sets)
        b = simulate(loaded, small_config, sets)
        assert b.per_workload.keys() == a.per_workload.keys()
        assert b.total_latency_us == pytest.approx(a.total_latency_us, rel=1e-6)
