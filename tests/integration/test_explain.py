"""End-to-end critical-path + what-if explanation (golden acceptance).

The acceptance contract for the explainer:

* **exact sum** — on the seeded two-tenant GC+faults run, the
  per-resource critical-path times sum to the run makespan within
  1e-6 us (the ``critpath-exact-sum`` invariant), both directly and
  when routed through the runtime sanitizer;
* **zero perturbation** — arming attribution + extraction leaves the
  baseline run's latency summary byte-identical to an unarmed run;
* the **what-if sweep** over the same trace produces a nonempty ranked
  table whose top counterfactual is verified by an identical second
  re-simulation.
"""

import math

import pytest

from repro.analysis import Sanitizer
from repro.obs import Observability
from repro.obs.attribution import TOLERANCE_US
from repro.obs.critpath import extract_critical_path
from repro.obs.whatif import run_whatif
from repro.ssd import FaultConfig, SSDConfig, simulate
from repro.workloads import WorkloadSpec, synthesize_mix


def gc_fault_scenario():
    """Seeded 2-tenant GC+faults run (same shape as the attribution one)."""
    config = SSDConfig(blocks_per_plane=6, pages_per_block=16)
    specs = [
        WorkloadSpec(name="writer", write_ratio=0.9, rate_rps=4000.0,
                     footprint_pages=220),
        WorkloadSpec(name="reader", write_ratio=0.2, rate_rps=3000.0,
                     footprint_pages=220),
    ]
    requests = synthesize_mix(specs, total_requests=1200, seed=7).requests
    sets = {0: [0], 1: [1]}
    faults = FaultConfig(seed=5, read_ber=0.08, program_fail_rate=0.001,
                         erase_fail_rate=0.005)
    return requests, config, sets, faults


@pytest.fixture(scope="module")
def explained_run():
    requests, config, sets, faults = gc_fault_scenario()
    obs = Observability(attribution=True)
    sanitizer = Sanitizer()
    result = simulate(requests, config, sets, record_latencies=True,
                      obs=obs, faults=faults, sanitizer=sanitizer)
    report = extract_critical_path(
        obs.attribution.records, result.makespan_us, sanitizer=sanitizer,
    )
    return requests, config, sets, faults, obs, result, report, sanitizer


class TestGoldenExactSum:
    def test_resource_times_sum_to_makespan(self, explained_run):
        *_, result, report, _san = explained_run
        covered_us = math.fsum(
            value
            for row in report.resources.values()
            for value in row.values()
        )
        covered_us += report.host_gap_us + report.internal_tail_us
        assert covered_us == pytest.approx(
            result.makespan_us, abs=TOLERANCE_US
        )
        assert abs(report.residual_us) <= TOLERANCE_US
        assert report.total_us() == pytest.approx(
            result.makespan_us, abs=1e-9
        )

    def test_chain_is_contiguous_and_chronological(self, explained_run):
        *_, report, _san = explained_run
        assert report.steps[-1].end_us == pytest.approx(report.makespan_us)
        assert report.steps[0].start_us == pytest.approx(0.0, abs=1e-9)
        for prev, cur in zip(report.steps, report.steps[1:]):
            assert cur.start_us == pytest.approx(prev.end_us, abs=1e-9)

    def test_gc_pressure_shows_on_the_path(self, explained_run):
        *_, report, _san = explained_run
        # the run is GC-bound by construction: die gc/wait time dominates
        assert report.phase_totals_us["gc_stall_us"] > 0.0
        assert report.ranked()[0][0].startswith("die")

    def test_sanitizer_counted_the_check(self, explained_run):
        *_, result, _report, sanitizer = explained_run
        stats = sanitizer.stats()
        assert stats["critpath_checks"] == 1
        assert stats["attribution_checks"] == result.requests
        assert all(v > 0 for v in stats.values()), stats


class TestZeroPerturbation:
    def test_summary_byte_identical_with_explainer_armed(self, explained_run):
        requests, config, sets, faults, _obs, armed, *_ = explained_run
        plain = simulate(requests, config, sets, record_latencies=True,
                         faults=faults)
        assert armed.summary() == plain.summary()
        assert armed.makespan_us == plain.makespan_us


class TestWhatIfEndToEnd:
    def test_sweep_on_gc_bound_run(self, explained_run):
        requests, config, sets, faults, _obs, result, *_ = explained_run
        report = run_whatif(requests, config, sets, faults=faults,
                            baseline=result)
        ranked = report.ranked()
        assert ranked, "sweep produced no applicable counterfactuals"
        assert ranked[0].verified
        # this trace pins each tenant to one channel of a tiny device;
        # halving tPROG must beat doing nothing
        by_name = {row.name: row for row in ranked}
        assert by_name["tPROG_half"].speedup > 1.0
