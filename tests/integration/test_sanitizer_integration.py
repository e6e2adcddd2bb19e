"""Sanitizer end to end: a GC-heavy faulted run passes every invariant check,
and the sanitizer never perturbs the simulated outcome."""

import pytest

from repro.analysis import Sanitizer
from repro.ssd import FaultConfig, SSDConfig, SSDSimulator, simulate
from repro.ssd.request import OpType
from repro.workloads import WorkloadSpec, synthesize_mix

FAULTS = FaultConfig(
    seed=99,
    read_ber=0.05,
    program_fail_rate=0.003,
    erase_fail_rate=0.2,
    wear_coupling=0.1,
    max_read_retries=2,
)


def gc_config() -> SSDConfig:
    """Small planes: a few thousand writes overwrite the footprint many
    times over, so GC and block retirement both trigger."""
    return SSDConfig(
        channels=8,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=8,
    )


def two_tenant_trace(total=3600, seed=3):
    specs = [
        WorkloadSpec(
            name="writer", write_ratio=0.9, rate_rps=5000.0, footprint_pages=300
        ),
        WorkloadSpec(
            name="reader", write_ratio=0.3, rate_rps=5000.0, footprint_pages=300
        ),
    ]
    return synthesize_mix(specs, total_requests=total, seed=seed).requests


def split_sets(config):
    half = config.channels // 2
    return {0: list(range(half)), 1: list(range(half, config.channels))}


class TestFullRunUnderSanitizer:
    @pytest.fixture(scope="class")
    def sanitized(self):
        config = gc_config()
        sanitizer = Sanitizer()
        sim = SSDSimulator(
            config, split_sets(config), faults=FAULTS, sanitizer=sanitizer
        )
        result = sim.run(two_tenant_trace())
        return sim, result, sanitizer

    def test_run_completes_with_gc_and_faults(self, sanitized):
        sim, result, _ = sanitized
        assert result.requests == 3600
        assert sim.controller.gc.collections > 0
        assert sim.faults.retired_blocks > 0

    def test_every_check_family_exercised(self, sanitized):
        _, _, sanitizer = sanitized
        stats = sanitizer.stats()
        assert stats["events_checked"] > 0
        assert stats["grants_checked"] > 0
        assert stats["mapping_ops"] > 0
        assert stats["conservation_checks"] > 0  # GC/retire sweeps ran

    def test_sanitizer_does_not_perturb_results(self, sanitized):
        """Byte-identical summary with the sanitizer on vs off."""
        _, with_sanitizer, _ = sanitized
        config = gc_config()
        without = simulate(
            two_tenant_trace(), config, split_sets(config), faults=FAULTS
        )
        assert with_sanitizer.summary() == without.summary()
        assert with_sanitizer.total_latency_us == without.total_latency_us
        assert with_sanitizer.makespan_us == without.makespan_us

    def test_convenience_wrapper_accepts_sanitizer(self):
        config = gc_config()
        sanitizer = Sanitizer()
        result = simulate(
            two_tenant_trace(total=400),
            config,
            split_sets(config),
            faults=FAULTS,
            sanitizer=sanitizer,
        )
        assert result.requests == 400
        assert sanitizer.stats()["events_checked"] > 0


def test_host_programs_are_conservation_checked():
    """With no GC pass to sweep a plane, each host program still re-checks
    the books of the plane it was written to."""
    config = SSDConfig.small()
    requests = two_tenant_trace(total=1_500)
    sanitizer = Sanitizer()
    sim = SSDSimulator(
        config, split_sets(config), faults=FAULTS, sanitizer=sanitizer
    )
    result = sim.run(requests)
    assert result.gc_collections == 0 and sim.faults.retired_blocks > 0
    programs = sum(r.length for r in requests if r.op is OpType.WRITE)
    assert sanitizer.stats()["conservation_checks"] >= programs
