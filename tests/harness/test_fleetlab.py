"""``repro fleet`` CLI and the run_fleet harness entry point."""

import json

import pytest

from repro.harness.cli import main as repro_main
from repro.harness.fleetlab import (
    build_fleet_scenario,
    default_migration,
    run_fleet,
)
from repro.ssd.fleet import MigrationPlan, seeded_placement

from .test_cli_exit_codes import run_cli


class TestBuildScenario:
    def test_traces_cover_every_tenant(self):
        traces, config, sets = build_fleet_scenario(
            n_devices=2, n_tenants=4, total_requests=200, seed=3
        )
        assert set(traces) == {0, 1, 2, 3}
        assert sum(len(r) for r in traces.values()) == 200
        # every tenant may run on every channel (migration prerequisite)
        assert all(chs == list(range(config.channels)) for chs in sets.values())

    def test_deterministic_per_seed(self):
        a, _, _ = build_fleet_scenario(
            n_devices=2, n_tenants=2, total_requests=100, seed=5
        )
        b, _, _ = build_fleet_scenario(
            n_devices=2, n_tenants=2, total_requests=100, seed=5
        )
        assert {
            t: [(r.arrival_us, r.op, r.lpn) for r in reqs]
            for t, reqs in a.items()
        } == {
            t: [(r.arrival_us, r.op, r.lpn) for r in reqs]
            for t, reqs in b.items()
        }

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            build_fleet_scenario(
                n_devices=0, n_tenants=1, total_requests=10, seed=0
            )
        with pytest.raises(ValueError):
            build_fleet_scenario(
                n_devices=1, n_tenants=0, total_requests=10, seed=0
            )


class TestDefaultMigration:
    def test_moves_first_tenant_to_next_device(self):
        traces, _, _ = build_fleet_scenario(
            n_devices=3, n_tenants=3, total_requests=150, seed=1
        )
        placement = seeded_placement(3, 3, seed=1)
        plan = default_migration(traces, placement, 3)
        assert plan.tenant == 0
        assert plan.dst == (placement[0] + 1) % 3
        last = max(reqs[-1].arrival_us for reqs in traces.values())
        assert 0.0 < plan.time_us < last

    def test_single_device_fleet_has_no_migration(self):
        traces, _, _ = build_fleet_scenario(
            n_devices=1, n_tenants=2, total_requests=50, seed=1
        )
        assert default_migration(traces, {0: 0, 1: 0}, 1) is None


class TestRunFleet:
    def test_report_carries_fleet_counters_and_migration(self):
        result, observer, report = run_fleet(
            n_devices=2, n_tenants=2, total_requests=120, seed=4
        )
        rollup = report["rollup"]
        assert rollup["counters"]["fleet.requests"] == 120
        assert rollup["counters"]["fleet.devices"] == 2
        assert rollup["counters"]["fleet.migrations"] == 1
        [mig] = report["migrations"]
        assert mig["tenant"] == 0
        assert mig["requests_replayed"] > 0
        assert observer.trace.events("tenant_migration")

    def test_empty_migration_list_disables_default(self):
        _, _, report = run_fleet(
            n_devices=2, n_tenants=2, total_requests=80, seed=4,
            migrations=[],
        )
        assert report["migrations"] == []
        assert report["placement"]["initial"] == report["placement"]["final"]

    def test_explicit_migration_plan_honoured(self):
        placement = seeded_placement(2, 2, seed=4)
        dst = (placement[1] + 1) % 2
        _, _, report = run_fleet(
            n_devices=2, n_tenants=2, total_requests=120, seed=4,
            migrations=[MigrationPlan(time_us=5000.0, tenant=1, dst=dst)],
        )
        [mig] = report["migrations"]
        assert (mig["tenant"], mig["dst"]) == (1, dst)

    def test_report_validates_with_reader(self):
        from repro.obs.fleet import load_fleet

        _, _, report = run_fleet(
            n_devices=2, n_tenants=2, total_requests=80, seed=9
        )
        assert load_fleet(json.loads(json.dumps(report))) == report


class TestCli:
    def run_main(self, args, capsys):
        code = run_cli(["fleet", *args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_quick_run_prints_summary(self, capsys):
        code, out, _ = self.run_main(
            ["--quick", "--devices", "2", "--tenants", "2"], capsys
        )
        assert code == 0
        assert "device 0:" in out and "device 1:" in out
        assert "migration: tenant 0" in out
        assert "fleet totals: 600 requests, 1 migrations across 2 devices" in out

    def test_json_output_is_the_report(self, capsys):
        code, out, _ = self.run_main(
            ["--quick", "--devices", "2", "--tenants", "2", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"]["devices"] == 2
        assert doc["rollup"]["counters"]["fleet.requests"] == 600

    def test_written_reports_are_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--quick", "--devices", "2", "--tenants", "2", "--seed", "11"]
        assert self.run_main(args + ["--out", str(p1)], capsys)[0] == 0
        assert self.run_main(args + ["--out", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_migrate_flag(self, capsys):
        code, out, _ = self.run_main(
            ["--quick", "--devices", "2", "--tenants", "2", "--no-migrate",
             "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["migrations"] == []

    def test_slo_tight_pages_and_names_device(self, capsys):
        code, out, _ = self.run_main(
            ["--quick", "--devices", "2", "--tenants", "2", "--slo-tight"],
            capsys,
        )
        assert code == 0
        assert "page:" in out
        assert "offending device" in out

    def test_chrome_trace_written(self, tmp_path, capsys):
        path = tmp_path / "fleet.chrome.json"
        code, out, _ = self.run_main(
            ["--quick", "--devices", "2", "--tenants", "2",
             "--chrome-trace", str(path)], capsys
        )
        assert code == 0
        records = json.loads(path.read_text())["traceEvents"]
        procs = {
            r["args"]["name"] for r in records
            if r.get("name") == "process_name"
        }
        assert any(p.startswith("device 0 / ") for p in procs)
        assert any(p.startswith("device 1 / ") for p in procs)
        assert "fleet" in procs

    def test_bad_migration_syntax_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["fleet", "--migrate", "nonsense"])
        assert exc.value.code == 2

    def test_migration_to_unknown_device_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["fleet", "--devices", "2", "--migrate", "0:5:100"])
        assert exc.value.code == 2

    def test_missing_slo_file_returns_2(self, capsys):
        code, _, err = self.run_main(
            ["--quick", "--slo", "/nonexistent/slo.json"], capsys
        )
        assert code == 2
        assert "cannot read SLO spec" in err

    def test_slo_and_slo_tight_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["fleet", "--slo", "x.json", "--slo-tight"])
        assert exc.value.code == 2
