"""CLI surface (cheap commands only; heavy ones are covered by benches)."""

from pathlib import Path

import pytest

from repro.harness.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SSDKeeper" in out
        assert "42 strategies" in out

    def test_tab2(self, capsys):
        assert main(["tab2"]) == 0
        out = capsys.readouterr().out
        assert "mds_0" in out
        assert "Table II" in out

    def test_scale_flag(self, capsys):
        assert main(["info", "--scale", "smoke"]) == 0
        assert "scale: smoke" in capsys.readouterr().out

    def test_stats_reports_metrics(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.chrome.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "stats", "--scale", "smoke",
            "--trace", str(jsonl),
            "--chrome-trace", str(chrome),
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "counters & gauges" in out
        assert "sim.requests" in out
        assert "latency histograms" in out
        assert "latency attribution over" in out
        assert jsonl.read_text().count("\n") > 0
        assert "traceEvents" in chrome.read_text()
        assert "utilization" in metrics.read_text()

    def test_stats_json_mode(self, capsys):
        import json

        assert main(["stats", "--scale", "smoke", "--json",
                     "--telemetry-interval", "0"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["counters"]["sim.requests"] > 0
        assert "utilization" not in doc
        attr = doc["attribution"]
        assert attr["requests"] > 0
        assert abs(sum(attr["phase_fractions"].values()) - 1.0) < 1e-6

    def test_faults_json_reports_fault_section(self, capsys):
        import json

        assert main(["faults", "--scale", "smoke", "--json",
                     "--telemetry-interval", "0",
                     "--read-ber", "0.05"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert any(k.startswith("faults.") for k in doc["faults"])
        assert doc["attribution"]["requests"] > 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "--scale", "galactic"])


class TestTelemetryAndSlo:
    def test_stats_writes_telemetry_and_openmetrics(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "run.jsonl"
        om = tmp_path / "metrics.om"
        assert main([
            "stats", "--scale", "smoke",
            "--telemetry-out", str(jsonl),
            "--openmetrics", str(om),
        ]) == 0
        # the "wrote N telemetry windows" note goes to stderr, like every
        # lab's notes
        assert "telemetry" in capsys.readouterr().err
        lines = jsonl.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["windows"] == len(lines) - 1 > 0
        exposition = om.read_text()
        assert exposition.endswith("# EOF\n")
        assert "sim_requests_total" in exposition

    def test_stats_with_slo_reports_alert_rollup(self, capsys):
        import json

        spec = Path(__file__).resolve().parents[2] / "examples" / "slo.json"
        assert main([
            "stats", "--scale", "smoke", "--json",
            "--slo", str(spec),
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["alerts"] == []  # the committed spec holds on seeded runs
        assert doc["slo"]["windows"] > 0
        assert doc["slo"]["page_alerts"] == 0

    def test_invalid_slo_spec_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"window_us": -1}')
        with pytest.raises(SystemExit):
            main(["stats", "--scale", "smoke", "--slo", str(bad)])

    def test_unknown_tenant_in_spec_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"window_us": 500.0, "tenants": {"9": {"read_p95_us": 1000.0}}}'
        )
        with pytest.raises(SystemExit):
            main(["stats", "--scale", "smoke", "--slo", str(bad)])

    def test_non_positive_telemetry_interval_rejected(self, tmp_path):
        spec = Path(__file__).resolve().parents[2] / "examples" / "slo.json"
        # 0 turns sampling off, which the window consumers cannot do without
        for needs_windows in (["--telemetry-out", str(tmp_path / "t.jsonl")],
                              ["--slo", str(spec)],
                              ["--openmetrics", str(tmp_path / "m.om")]):
            with pytest.raises(SystemExit):
                main(["stats", "--scale", "smoke", *needs_windows,
                      "--telemetry-interval", "0"])
        with pytest.raises(SystemExit):
            main(["stats", "--scale", "smoke", "--telemetry-interval", "-1"])

    def test_sampling_leaves_the_simulated_run_unchanged(self, capsys):
        import json

        def gauges(*flags):
            assert main(["stats", "--scale", "smoke", "--json", *flags]) == 0
            out = capsys.readouterr().out
            doc = json.loads(out[out.index("{"):])
            return doc, {
                name: value for name, value in doc["gauges"].items()
                if name in ("sim.makespan_us", "sim.total_latency_us")
                or name.endswith(".busy_fraction")
            }

        sampled, sampled_gauges = gauges()
        bare, bare_gauges = gauges("--telemetry-interval", "0")
        assert "utilization" in sampled and "utilization" not in bare
        assert sampled_gauges == bare_gauges
        assert sampled["counters"]["sim.requests"] == bare["counters"]["sim.requests"]
        util = sampled["utilization"]
        assert util["interval_us"] == 500.0
        assert util["times_us"][-1] == sampled_gauges["sim.makespan_us"]
