"""Fleet observability acceptance: zero perturbation, exact federation,
migration-span semantics, and the byte-identical report contract."""

import json

import pytest

from repro.harness.fleetlab import (
    build_fleet_scenario,
    default_migration,
    run_fleet,
)
from repro.obs.fleet import merge_histograms
from repro.ssd.fleet import Fleet, seeded_placement
from repro.ssd.simulator import SSDSimulator

DEVICES = 3
TENANTS = 6
REQUESTS = 400
SEED = 21


@pytest.fixture(scope="module")
def armed_run():
    """One observed fleet run: result, observer, report."""
    return run_fleet(
        n_devices=DEVICES, n_tenants=TENANTS,
        total_requests=REQUESTS, seed=SEED,
    )


def bare_fleet(record_latencies=True):
    """The same scenario with no observability plane attached."""
    traces, config, sets = build_fleet_scenario(
        n_devices=DEVICES, n_tenants=TENANTS,
        total_requests=REQUESTS, seed=SEED,
    )
    sims = [
        SSDSimulator(config, sets, record_latencies=record_latencies)
        for _ in range(DEVICES)
    ]
    placement = seeded_placement(TENANTS, DEVICES, SEED)
    fleet = Fleet(sims, placement=placement, seed=SEED)
    plan = default_migration(traces, placement, DEVICES)
    return fleet, traces, [plan] if plan is not None else []


class TestZeroPerturbation:
    def test_armed_and_unarmed_summaries_byte_identical(self, armed_run):
        """Attaching the full fleet observability plane must not perturb
        any device's simulated outcome."""
        armed_result, _, _ = armed_run
        fleet, traces, migrations = bare_fleet()
        unarmed_result = fleet.run(traces, migrations)
        assert [r.summary() for r in armed_result.results] == [
            r.summary() for r in unarmed_result.results
        ]
        assert armed_result.completions == unarmed_result.completions
        assert armed_result.makespan_us == unarmed_result.makespan_us


class TestExactFederation:
    def test_rollup_histograms_equal_manual_merge(self, armed_run):
        """The federated fleet histograms agree exactly — bucket counts,
        totals and extrema — with a by-hand merge of the per-device
        registries."""
        _, observer, _ = armed_run
        merged = observer.registry.federate()
        for name in ("sim.read_latency_us", "sim.write_latency_us"):
            parts = [
                reg.get(name)
                for reg in observer.registry.devices.values()
                if reg.get(name) is not None
            ]
            assert parts, f"no device recorded {name}"
            manual = merge_histograms(name, parts)
            out = merged.get(name)
            assert out.counts == manual.counts
            assert out.count == manual.count
            assert out.total == manual.total
            assert out.min == manual.min
            assert out.max == manual.max

    def test_fleet_counters_cover_every_request(self, armed_run):
        result, observer, report = armed_run
        counters = report["rollup"]["counters"]
        assert counters["fleet.requests"] == REQUESTS
        assert counters["fleet.requests"] == sum(
            r.requests for r in result.results
        )
        assert counters["fleet.devices"] == DEVICES
        assert counters["fleet.migrations"] == len(result.migrations)


class TestMigrationSpan:
    def test_span_equals_drain_to_first_destination_completion(self):
        """The recorded migration span must equal the gap between
        drain-start and the first completion of the migrated tenant on
        the destination device, measured by an independent completion
        log (within 1e-6 us)."""
        fleet, traces, migrations = bare_fleet()
        completions = []
        fleet.on_complete = lambda dev, req: completions.append(
            (dev, req.workload_id, req.complete_us)
        )
        result = fleet.run(traces, migrations)
        [rec] = result.migrations
        dst_times = [
            t for dev, tenant, t in completions
            if dev == rec.dst and tenant == rec.tenant and t >= rec.start_us
        ]
        assert dst_times, "migrated tenant never completed on destination"
        expected_span = min(dst_times) - rec.start_us
        assert rec.span_us == pytest.approx(expected_span, abs=1e-6)
        assert rec.first_dst_complete_us == pytest.approx(
            min(dst_times), abs=1e-6
        )

    def test_trace_span_matches_record(self, armed_run):
        result, observer, _ = armed_run
        [rec] = result.migrations
        [event] = observer.trace.events("tenant_migration")
        assert event.ts_us == pytest.approx(rec.start_us, abs=1e-6)
        assert event.dur_us == pytest.approx(rec.span_us, abs=1e-6)
        assert event.args["src"] == rec.src
        assert event.args["dst"] == rec.dst

    def test_conservation_across_migration(self, armed_run):
        result, _, _ = armed_run
        traces, _, _ = build_fleet_scenario(
            n_devices=DEVICES, n_tenants=TENANTS,
            total_requests=REQUESTS, seed=SEED,
        )
        [rec] = result.migrations
        done = sum(per.get(rec.tenant, 0) for per in result.completions)
        assert done == len(traces[rec.tenant])
        assert result.completions[rec.src].get(rec.tenant, 0) > 0
        assert result.completions[rec.dst].get(rec.tenant, 0) > 0


class TestByteIdenticalReports:
    def test_two_invocations_identical(self, armed_run):
        _, _, first = armed_run
        _, _, second = run_fleet(
            n_devices=DEVICES, n_tenants=TENANTS,
            total_requests=REQUESTS, seed=SEED,
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_armed_slo_run_is_also_deterministic(self):
        from repro.harness.fleetlab import _tight_slo_dict

        slo = _tight_slo_dict(range(TENANTS))
        docs = [
            run_fleet(
                n_devices=DEVICES, n_tenants=TENANTS,
                total_requests=REQUESTS, seed=SEED, slo_dict=slo,
            )[2]
            for _ in range(2)
        ]
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(
            docs[1], sort_keys=True
        )
        assert docs[0]["rollup"]["slo"]["page_alerts"] >= 1
