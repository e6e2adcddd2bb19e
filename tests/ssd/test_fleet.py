"""Fleet substrate: composed loops, seeded placement, migration."""

import pytest

from repro.ssd.config import SSDConfig
from repro.ssd.fleet import (
    Fleet,
    MigrationPlan,
    MigrationRecord,
    seeded_placement,
)
from repro.ssd.request import IORequest, OpType
from repro.ssd.simulator import SSDSimulator


def tenant_completions(result, tenant):
    """Completions of ``tenant`` summed over every device."""
    return sum(per.get(tenant, 0) for per in result.completions)


def make_sims(n_devices, n_tenants, **kwargs):
    cfg = SSDConfig.small()
    sets = {t: list(range(cfg.channels)) for t in range(n_tenants)}
    return [SSDSimulator(cfg, sets, **kwargs) for _ in range(n_devices)]


def make_traces(n_tenants, per_tenant=20, spacing_us=50.0):
    """Deterministic alternating read/write traces, one per tenant."""
    traces = {}
    for t in range(n_tenants):
        reqs = []
        for i in range(per_tenant):
            op = OpType.WRITE if i % 2 == 0 else OpType.READ
            reqs.append(IORequest(
                arrival_us=10.0 + i * spacing_us + t * 3.0,
                workload_id=t,
                op=op,
                lpn=(i * 7) % 64,
                length=1,
            ))
        traces[t] = reqs
    return traces


class TestSeededPlacement:
    def test_deterministic_and_balanced(self):
        a = seeded_placement(6, 3, seed=42)
        b = seeded_placement(6, 3, seed=42)
        assert a == b
        loads = [list(a.values()).count(d) for d in range(3)]
        assert max(loads) - min(loads) <= 1

    def test_varies_with_seed(self):
        maps = {tuple(seeded_placement(8, 3, seed=s).items()) for s in range(20)}
        assert len(maps) > 1

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            seeded_placement(0, 1, seed=0)
        with pytest.raises(ValueError):
            seeded_placement(1, 0, seed=0)


class TestMigrationPlan:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            MigrationPlan(time_us=-1.0, tenant=0, dst=0)
        with pytest.raises(ValueError):
            MigrationPlan(time_us=0.0, tenant=-1, dst=0)
        with pytest.raises(ValueError):
            MigrationPlan(time_us=0.0, tenant=0, dst=-1)

    def test_record_span(self):
        rec = MigrationRecord(tenant=0, src=0, dst=1, start_us=100.0)
        assert rec.span_us is None
        rec.first_dst_complete_us = 140.5
        assert rec.span_us == pytest.approx(40.5)


class TestFleetRun:
    def test_runs_all_tenants_to_completion(self):
        traces = make_traces(4)
        fleet = Fleet(make_sims(2, 4), seed=3)
        result = fleet.run(traces)
        total = sum(len(reqs) for reqs in traces.values())
        assert sum(r.requests for r in result.results) == total
        for t, reqs in traces.items():
            assert tenant_completions(result, t) == len(reqs)

    def test_per_device_results_match_placement(self):
        traces = make_traces(4)
        placement = {0: 0, 1: 0, 2: 1, 3: 1}
        fleet = Fleet(make_sims(2, 4), placement=placement)
        result = fleet.run(traces)
        assert result.results[0].requests == len(traces[0]) + len(traces[1])
        assert result.results[1].requests == len(traces[2]) + len(traces[3])
        assert result.placement_initial == placement
        assert result.placement_final == placement

    def test_rejects_placement_on_unknown_device(self):
        with pytest.raises(ValueError):
            Fleet(make_sims(2, 2), placement={0: 5})

    def test_rejects_second_run(self):
        fleet = Fleet(make_sims(1, 1))
        fleet.run(make_traces(1, per_tenant=2))
        with pytest.raises(RuntimeError):
            fleet.run(make_traces(1, per_tenant=2))

    def test_rejects_trace_tenant_without_placement(self):
        fleet = Fleet(make_sims(2, 2), placement={0: 0})
        with pytest.raises(ValueError):
            fleet.run(make_traces(2))

    def test_default_placement_is_seeded(self):
        traces = make_traces(4)
        r1 = Fleet(make_sims(2, 4), seed=9).run(traces)
        r2 = Fleet(make_sims(2, 4), seed=9).run(make_traces(4))
        assert r1.placement_initial == r2.placement_initial


class TestMigration:
    def test_request_count_conserved_across_migration(self):
        """A migrated tenant's completions across source + destination sum
        to its trace length (the conservation contract)."""
        traces = make_traces(3, per_tenant=30)
        placement = {0: 0, 1: 0, 2: 1}
        fleet = Fleet(make_sims(2, 3), placement=placement)
        mid = traces[0][len(traces[0]) // 2].arrival_us
        result = fleet.run(traces, [MigrationPlan(time_us=mid, tenant=0, dst=1)])
        assert tenant_completions(result, 0) == len(traces[0])
        # both devices actually served tenant 0
        assert result.completions[0].get(0, 0) > 0
        assert result.completions[1].get(0, 0) > 0
        assert result.placement_final[0] == 1

    def test_migration_record_fields(self):
        traces = make_traces(2, per_tenant=30)
        placement = {0: 0, 1: 1}
        fleet = Fleet(make_sims(2, 2), placement=placement)
        mid = traces[0][10].arrival_us
        result = fleet.run(traces, [MigrationPlan(time_us=mid, tenant=0, dst=1)])
        [rec] = result.migrations
        assert (rec.tenant, rec.src, rec.dst) == (0, 0, 1)
        assert rec.start_us == pytest.approx(mid)
        assert rec.requests_replayed == 20  # arrivals at/after the flip
        assert rec.first_dst_complete_us is not None
        assert rec.first_dst_complete_us >= rec.start_us
        assert rec.span_us == pytest.approx(
            rec.first_dst_complete_us - rec.start_us
        )

    def test_migration_without_remaining_requests_has_no_span(self):
        traces = make_traces(2, per_tenant=5)
        placement = {0: 0, 1: 1}
        fleet = Fleet(make_sims(2, 2), placement=placement)
        late = traces[0][-1].arrival_us + 10_000.0
        result = fleet.run(traces, [MigrationPlan(late, tenant=0, dst=1)])
        [rec] = result.migrations
        assert rec.requests_replayed == 0
        assert rec.span_us is None

    def test_chained_migrations_compose(self):
        traces = make_traces(1, per_tenant=30)
        fleet = Fleet(make_sims(3, 1), placement={0: 0})
        t1 = traces[0][8].arrival_us
        t2 = traces[0][20].arrival_us
        result = fleet.run(traces, [
            MigrationPlan(t1, tenant=0, dst=1),
            MigrationPlan(t2, tenant=0, dst=2),
        ])
        assert [(m.src, m.dst) for m in result.migrations] == [(0, 1), (1, 2)]
        assert tenant_completions(result, 0) == 30
        assert all(result.completions[d].get(0, 0) > 0 for d in range(3))

    def test_migrate_rejects_bad_arguments(self):
        fleet = Fleet(make_sims(2, 1), placement={0: 0})
        with pytest.raises(ValueError):
            fleet.migrate(0, 7)
        with pytest.raises(ValueError):
            fleet.migrate(5, 1)

    def test_hooks_fire(self):
        traces = make_traces(2, per_tenant=20)
        placement = {0: 0, 1: 1}
        fleet = Fleet(make_sims(2, 2), placement=placement)
        completions, started, closed = [], [], []
        fleet.on_complete = lambda dev, req: completions.append(dev)
        fleet.on_migration = lambda rec: started.append(rec.tenant)
        fleet.on_migration_complete = lambda rec: closed.append(rec.span_us)
        mid = traces[0][10].arrival_us
        fleet.run(traces, [MigrationPlan(mid, tenant=0, dst=1)])
        assert len(completions) == 40
        assert started == [0]
        assert len(closed) == 1 and closed[0] > 0


class TestDeterminism:
    def test_same_seed_same_schedule_identical_results(self):
        """Two invocations with the same seed and migration schedule yield
        identical per-device digests and migration records."""
        def one_run():
            traces = make_traces(4, per_tenant=25)
            fleet = Fleet(make_sims(3, 4), seed=11)
            # migrate tenant 0 to the next device over, deterministically
            placement = seeded_placement(4, 3, seed=11)
            plan = MigrationPlan(
                time_us=traces[0][10].arrival_us, tenant=0,
                dst=(placement[0] + 1) % 3,
            )
            return fleet.run(traces, [plan])

        r1, r2 = one_run(), one_run()
        assert [r.summary() for r in r1.results] == [
            r.summary() for r in r2.results
        ]
        assert [m.to_dict() for m in r1.migrations] == [
            m.to_dict() for m in r2.migrations
        ]
        assert r1.completions == r2.completions
        assert r1.makespan_us == r2.makespan_us
        assert r1.events == r2.events

    def test_solo_device_matches_plain_simulator(self):
        """A one-device fleet reproduces a plain SSDSimulator run of the
        same merged trace exactly (the composed loop adds no behaviour)."""
        traces = make_traces(2, per_tenant=15)
        fleet = Fleet(make_sims(1, 2), placement={0: 0, 1: 0})
        fleet_result = fleet.run(traces)

        merged = sorted(
            (r for reqs in make_traces(2, per_tenant=15).values() for r in reqs),
            key=lambda r: r.arrival_us,
        )
        [solo] = make_sims(1, 2)
        solo_result = solo.run(merged)
        assert fleet_result.results[0].summary() == solo_result.summary()
