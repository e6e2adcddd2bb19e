"""Unit tests for the counterfactual what-if engine."""

import pytest

from repro.obs.whatif import (
    DEFAULT_COUNTERFACTUALS,
    WHATIF_SCHEMA_VERSION,
    Counterfactual,
    WhatIfReport,
    WhatIfRow,
    run_whatif,
)
from repro.ssd.config import KNOBS, SSDConfig
from repro.ssd.faults import FaultConfig, FaultInjector
from repro.workloads.mixer import synthesize_mix
from repro.workloads.spec import WorkloadSpec


def small_inputs(total=120):
    cfg = SSDConfig(blocks_per_plane=8, pages_per_block=16)
    specs = [
        WorkloadSpec(
            name="writer", write_ratio=0.9, rate_rps=4000.0,
            mean_request_pages=2.0, sequential_fraction=0.3, skew=0.5,
            footprint_pages=400,
        ),
        WorkloadSpec(
            name="reader", write_ratio=0.1, rate_rps=3000.0,
            mean_request_pages=2.0, sequential_fraction=0.3, skew=0.5,
            footprint_pages=400,
        ),
    ]
    requests = synthesize_mix(specs, total_requests=total, seed=11).requests
    sets = {0: [0], 1: [1]}
    return requests, cfg, sets


class TestScaleKnob:
    def test_every_knob_field_exists(self):
        cfg = SSDConfig.small()
        for knob, fields in KNOBS.items():
            scaled = cfg.scale_knob(knob, 1.0)
            for field in fields:
                assert getattr(scaled, field) == getattr(cfg, field)

    def test_scaling_changes_the_field(self):
        cfg = SSDConfig.small()
        assert cfg.scale_knob("read_latency", 0.5).read_latency_us == (
            cfg.read_latency_us * 0.5
        )

    def test_gc_knob_scales_both_watermarks(self):
        cfg = SSDConfig.small()
        scaled = cfg.scale_knob("gc_threshold", 2.0)
        assert scaled.gc_threshold == pytest.approx(cfg.gc_threshold * 2)
        assert scaled.gc_restore == pytest.approx(cfg.gc_restore * 2)

    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            SSDConfig.small().scale_knob("warp_drive", 2.0)

    def test_invalid_scale_propagates_validation_error(self):
        with pytest.raises(ValueError):
            SSDConfig.small().scale_knob("gc_threshold", 100.0)

    def test_zero_command_overhead_is_legal(self):
        assert SSDConfig.small().scale_knob(
            "command_overhead", 0.0
        ).command_overhead_us == 0.0


class TestCounterfactual:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Counterfactual("x", "both", knob="read_latency",
                           allocation="shared")
        with pytest.raises(ValueError):
            Counterfactual("x", "neither")

    def test_shared_allocation_gives_every_tenant_every_channel(self):
        cf = Counterfactual("s", "share", allocation="shared")
        cfg = SSDConfig.small().replace(channels=4)
        _, sets = cf.apply(cfg, {0: [0], 1: [1]})
        assert sets == {0: [0, 1, 2, 3], 1: [0, 1, 2, 3]}

    def test_default_sweep_knobs_are_known(self):
        for cf in DEFAULT_COUNTERFACTUALS:
            if cf.knob is not None:
                assert cf.knob in KNOBS


class TestRunWhatif:
    def test_sweep_ranks_and_verifies(self):
        requests, cfg, sets = small_inputs()
        report = run_whatif(
            requests, cfg, sets,
            counterfactuals=[
                Counterfactual("tPROG_half", "program halved",
                               knob="write_latency", factor=0.5),
                Counterfactual("shared", "share channels",
                               allocation="shared"),
            ],
        )
        ranked = report.ranked()
        assert len(ranked) == 2
        assert ranked[0].speedup >= ranked[1].speedup
        assert ranked[0].verified  # top row re-simulated identically
        assert not ranked[1].verified

    def test_faster_knob_speeds_up_write_heavy_trace(self):
        requests, cfg, sets = small_inputs()
        report = run_whatif(
            requests, cfg, sets,
            counterfactuals=[
                Counterfactual("tPROG_half", "program halved",
                               knob="write_latency", factor=0.5),
            ],
        )
        assert report.best().speedup > 1.0

    def test_inapplicable_knob_reported_not_raised(self):
        requests, cfg, sets = small_inputs(total=40)
        report = run_whatif(
            requests, cfg, sets, verify=False,
            counterfactuals=[
                Counterfactual("gc_off_scale", "illegal watermarks",
                               knob="gc_threshold", factor=100.0),
            ],
        )
        assert report.rows[0].status == "inapplicable"
        assert report.ranked() == []
        assert report.best() is None

    def test_rejects_stateful_injector(self):
        requests, cfg, sets = small_inputs(total=40)
        injector = FaultInjector(FaultConfig(seed=3))
        with pytest.raises(TypeError):
            run_whatif(requests, cfg, sets, faults=injector)

    def test_fault_config_reruns_deterministically(self):
        requests, cfg, sets = small_inputs()
        faults = FaultConfig(seed=5, read_ber=0.02)
        report_a = run_whatif(
            requests, cfg, sets, faults=faults,
            counterfactuals=[
                Counterfactual("tR_half", "read halved",
                               knob="read_latency", factor=0.5),
            ],
        )
        report_b = run_whatif(
            requests, cfg, sets, faults=faults,
            counterfactuals=[
                Counterfactual("tR_half", "read halved",
                               knob="read_latency", factor=0.5),
            ],
        )
        assert report_a.to_dict() == report_b.to_dict()

    def test_requests_left_unstamped(self):
        requests, cfg, sets = small_inputs(total=40)
        run_whatif(
            requests, cfg, sets, verify=False,
            counterfactuals=[
                Counterfactual("tR_half", "read halved",
                               knob="read_latency", factor=0.5),
            ],
        )
        assert all(req.complete_us == -1.0 for req in requests)

    def test_baseline_passthrough_skips_rerun(self):
        from repro.ssd.simulator import simulate

        requests, cfg, sets = small_inputs(total=40)
        baseline = simulate(requests, cfg, sets)
        report = run_whatif(
            requests, cfg, sets, baseline=baseline, verify=False,
            counterfactuals=[],
        )
        assert report.baseline_total_latency_us == baseline.total_latency_us
        assert report.rows == []

    def test_to_dict_schema(self):
        requests, cfg, sets = small_inputs(total=40)
        doc = run_whatif(
            requests, cfg, sets, verify=False,
            counterfactuals=[
                Counterfactual("tR_half", "read halved",
                               knob="read_latency", factor=0.5),
            ],
        ).to_dict()
        assert doc["schema_version"] == WHATIF_SCHEMA_VERSION
        assert doc["baseline"]["total_latency_us"] > 0
        assert doc["counterfactuals"][0]["name"] == "tR_half"
        assert "speedup" in doc["counterfactuals"][0]


class TestReportFormat:
    def test_format_mentions_verified_and_inapplicable(self):
        report = WhatIfReport(
            baseline_total_latency_us=2e6,
            baseline_makespan_us=1e6,
            baseline_mean_read_us=100.0,
            baseline_mean_write_us=300.0,
            requests=10,
            rows=[
                WhatIfRow("a", "desc a", "ok", total_latency_us=1e6,
                          makespan_us=5e5, speedup=2.0,
                          makespan_speedup=2.0, verified=True),
                WhatIfRow("b", "desc b", "inapplicable", note="nope"),
            ],
        )
        text = report.format()
        assert "*verified*" in text
        assert "inapplicable: nope" in text
