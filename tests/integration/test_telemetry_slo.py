"""End-to-end telemetry, SLO watchdog, and flight recorder on seeded runs.

The acceptance contract for the live-telemetry pillar:

* **zero perturbation** — a telemetry+SLO-armed run's latency summary is
  byte-identical to an unarmed run's (weak sampler ticks never extend
  the makespan, the watchdog schedules nothing);
* a deliberately tight SLO pages **deterministically** on the seeded
  GC-heavy scenario and hands the flight recorder a bundle whose
  recorded replay command reproduces the run;
* sanitizer invariant violations and unrecoverable reads each dump
  their own trigger-named bundle.
"""

import json

import pytest

from repro.analysis.sanitizer import SanitizerError
from repro.obs import FlightRecorder, Observability, SloSpec
from repro.ssd import FaultConfig, SSDConfig, simulate
from repro.ssd.simulator import SSDSimulator
from repro.workloads import WorkloadSpec, synthesize_mix

from .test_attribution import gc_fault_scenario


def loose_spec():
    """examples/slo.json-shaped spec that the seeded run satisfies."""
    return SloSpec.from_dict({
        "window_us": 500.0,
        "tenants": {
            "0": {"read_p95_us": 50000.0, "write_p95_us": 100000.0},
            "1": {"read_p95_us": 50000.0, "write_p95_us": 100000.0},
        },
        "failed_read_budget": 0.5,
        "gc_stall_fraction": 0.95,
    })


def tight_spec():
    """Unattainable write-latency target: pages on any GC-heavy run."""
    return SloSpec.from_dict({
        "window_us": 500.0,
        "tenants": {"0": {"write_p95_us": 10.0}},
        "burn": {
            "fast": {"windows": 2, "warn_burn": 1.5, "page_burn": 3.0},
            "slow": {"windows": 6, "warn_burn": 1.0, "page_burn": 2.0},
        },
    })


class TestZeroPerturbation:
    def test_summary_byte_identical_with_telemetry_and_slo_on(self):
        requests, config, sets, faults = gc_fault_scenario()
        plain = simulate(requests, config, sets, record_latencies=True,
                         faults=faults)
        obs = Observability(slo=loose_spec())
        armed = simulate(requests, config, sets, record_latencies=True,
                         obs=obs, faults=faults)
        assert armed.summary() == plain.summary()
        assert armed.makespan_us == plain.makespan_us
        assert len(obs.telemetry.windows) > 10
        # the loose spec really was evaluated, and held
        assert obs.slo.windows_evaluated == len(obs.telemetry.windows)
        assert armed.alerts == []

    def test_telemetry_windows_tile_the_run(self):
        requests, config, sets, faults = gc_fault_scenario()
        obs = Observability(telemetry=500.0)
        result = simulate(requests, config, sets, obs=obs, faults=faults)
        windows = obs.telemetry.windows
        assert windows[0]["t_start_us"] == 0.0
        assert windows[-1]["t_end_us"] == result.makespan_us
        for prev, cur in zip(windows, windows[1:]):
            assert cur["t_start_us"] == prev["t_end_us"]
        # deltas reassemble into the end-of-run totals
        assert sum(
            w["counters"].get("sim.requests", 0) for w in windows
        ) == result.requests


class TestTightSloPages:
    def test_page_alert_and_bundle_fire_deterministically(self, tmp_path):
        requests, config, sets, faults = gc_fault_scenario()
        rec = FlightRecorder(
            tmp_path, context={"scenario": "gc_fault"},
            replay_argv=["python", "-m", "repro", "stats", "--scale", "smoke"],
        )
        obs = Observability(slo=tight_spec(), flight_recorder=rec)
        result = simulate(requests, config, sets, record_latencies=True,
                          obs=obs, faults=faults)
        assert any(a["severity"] == "page" for a in result.alerts)
        assert [b.name for b in rec.bundles] == ["bundle-00-slo-page"]
        manifest = json.loads((rec.bundles[0] / "manifest.json").read_text())
        assert manifest["trigger"] == "slo-page"
        assert manifest["replay"]["command"].startswith("python -m repro")
        alerts = json.loads((rec.bundles[0] / "alerts.json").read_text())
        assert alerts["triggering"]["objective"] == "tenant0.write_p95_us"

    def test_alerts_are_deterministic_across_replays(self):
        requests, config, sets, faults = gc_fault_scenario()

        def alert_stream():
            obs = Observability(slo=tight_spec())
            simulate(requests, config, sets, record_latencies=True,
                     obs=obs, faults=faults)
            return [a.to_dict() for a in obs.slo.alerts]

        first, second = alert_stream(), alert_stream()
        assert first and first == second


class TestFailureTriggers:
    def test_unrecoverable_read_dumps_a_bundle(self, tmp_path):
        config = SSDConfig(blocks_per_plane=6, pages_per_block=16)
        specs = [
            WorkloadSpec(name="reader", write_ratio=0.1, rate_rps=3000.0,
                         footprint_pages=200),
        ]
        requests = synthesize_mix(specs, total_requests=600, seed=11).requests
        faults = FaultConfig(seed=3, read_ber=0.6, max_read_retries=1)
        obs = Observability(flight_recorder=FlightRecorder(tmp_path / "flight"))
        result = simulate(requests, config, {0: [0, 1]}, obs=obs,
                          faults=faults)
        assert result.failed_reads > 0
        names = [b.name for b in obs.flight_recorder.bundles]
        assert names == ["bundle-00-unrecoverable-read"]
        manifest = json.loads(
            (obs.flight_recorder.bundles[0] / "manifest.json").read_text()
        )
        assert "lpn=" in manifest["detail"]

    def test_sanitizer_invariant_dumps_a_bundle(self, tmp_path):
        config = SSDConfig.small()
        specs = [
            WorkloadSpec(name="w", write_ratio=0.5, rate_rps=2000.0,
                         footprint_pages=64),
        ]
        requests = synthesize_mix(specs, total_requests=50, seed=2).requests
        obs = Observability(flight_recorder=FlightRecorder(tmp_path / "flight"))
        sim = SSDSimulator(config, {0: [0, 1]}, obs=obs)

        def trip():
            raise SanitizerError(
                "event-time-monotonicity", "synthetic trip", []
            )

        sim.loop.schedule(1.0, trip)
        with pytest.raises(SanitizerError):
            sim.run(requests)
        names = [b.name for b in obs.flight_recorder.bundles]
        assert names == ["bundle-00-sanitizer-invariant"]
        manifest = json.loads(
            (obs.flight_recorder.bundles[0] / "manifest.json").read_text()
        )
        assert "synthetic trip" in manifest["detail"]
