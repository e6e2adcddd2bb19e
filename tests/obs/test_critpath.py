"""Unit tests for run-level critical-path extraction."""

import math

import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.obs.attribution import RequestAttribution
from repro.obs.critpath import (
    CRITPATH_SCHEMA_VERSION,
    BottleneckReport,
    CritPathError,
    extract_critical_path,
)


def rec(
    wid, op, channel, die, arrival_us, *, queue_die_us=0.0, gc_stall_us=0.0,
    queue_channel_us=0.0, bus_us=0.0, die_us=0.0, ecc_retry_us=0.0,
    buffer_us=0.0,
):
    latency_us = (
        queue_die_us + gc_stall_us + queue_channel_us + bus_us + die_us
        + ecc_retry_us + buffer_us
    )
    return RequestAttribution(
        wid, op, channel, latency_us,
        die=die, arrival_us=arrival_us,
        queue_channel_us=queue_channel_us, queue_die_us=queue_die_us,
        gc_stall_us=gc_stall_us, bus_us=bus_us, die_us=die_us,
        ecc_retry_us=ecc_retry_us, buffer_us=buffer_us,
    )


class TestExtraction:
    def test_single_request_covers_whole_makespan(self):
        records = [rec(0, "read", 0, 0, 0.0, die_us=20.0, bus_us=40.0)]
        report = extract_critical_path(records, 60.0)
        assert report.critical_requests == 1
        assert report.resources["die0"]["service_us"] == 20.0
        assert report.resources["ch0"]["service_us"] == 40.0
        assert report.host_gap_us == 0.0
        assert report.residual_us == pytest.approx(0.0, abs=1e-9)
        assert report.total_us() == pytest.approx(60.0)

    def test_arrival_gap_charged_to_host(self):
        records = [
            rec(0, "read", 0, 0, 0.0, die_us=20.0),          # [0, 20]
            rec(1, "read", 1, 2, 50.0, die_us=25.0),         # [50, 75]
        ]
        report = extract_critical_path(records, 75.0)
        assert report.critical_requests == 2
        assert report.host_gap_us == pytest.approx(30.0)
        assert report.total_us() == pytest.approx(75.0)

    def test_leading_idle_before_first_arrival(self):
        records = [rec(0, "write", 0, 1, 100.0, die_us=200.0)]
        report = extract_critical_path(records, 300.0)
        assert report.host_gap_us == pytest.approx(100.0)
        assert report.total_us() == pytest.approx(300.0)

    def test_trailing_internal_work_charged_to_tail(self):
        # makespan extends past the last host completion (trailing GC)
        records = [rec(0, "write", 0, 0, 0.0, die_us=200.0)]
        report = extract_critical_path(records, 1700.0)
        assert report.internal_tail_us == pytest.approx(1500.0)
        assert report.total_us() == pytest.approx(1700.0)
        kinds = [step.kind for step in report.steps]
        assert kinds == ["request", "internal-tail"]

    def test_overlapping_requests_pick_latest_completion(self):
        # both complete inside the window; the chain takes the one whose
        # completion defines each boundary
        records = [
            rec(0, "read", 0, 0, 0.0, die_us=60.0),              # [0, 60]
            rec(1, "read", 1, 1, 10.0, queue_die_us=30.0, die_us=20.0),  # [10, 60]
        ]
        report = extract_critical_path(records, 60.0)
        # tie at 60: earliest arrival wins -> record 0 covers [0, 60]
        assert report.critical_requests == 1
        assert report.resources["die0"]["service_us"] == 60.0
        assert report.total_us() == pytest.approx(60.0)

    def test_gc_stall_bucket(self):
        records = [
            rec(0, "write", 2, 5, 0.0, gc_stall_us=1500.0, die_us=200.0,
                bus_us=40.0),
        ]
        report = extract_critical_path(records, 1740.0)
        assert report.resources["die5"]["gc_us"] == pytest.approx(1500.0)
        assert report.phase_totals_us["gc_stall_us"] == pytest.approx(1500.0)

    def test_buffer_hit_charged_to_dram(self):
        records = [rec(0, "write", -1, -1, 0.0, buffer_us=2.0)]
        report = extract_critical_path(records, 2.0)
        assert report.resources["dram"]["service_us"] == pytest.approx(2.0)

    def test_empty_run(self):
        report = extract_critical_path([], 0.0)
        assert report.critical_requests == 0
        assert report.resources == {}
        assert report.makespan_us == 0.0
        assert report.ranked() == []
        assert report.format()  # renders without crashing

    def test_ranked_and_bottleneck(self):
        records = [
            rec(0, "read", 0, 0, 0.0, queue_die_us=70.0, die_us=20.0,
                bus_us=10.0),
        ]
        report = extract_critical_path(records, 100.0)
        ranked = report.ranked()
        assert ranked[0] == ("die0", pytest.approx(90.0))
        assert ranked[0][0] == "die0"

    def test_fsum_residual_stays_tiny_over_many_segments(self):
        # thousands of float segments: naive summation would drift past
        # 1e-6; fsum keeps the residual at rounding scale
        records = []
        t = 0.0
        for i in range(5000):
            records.append(
                rec(i % 4, "read", i % 8, i % 16, t, die_us=0.1, bus_us=0.07)
            )
            t += 0.17
        report = extract_critical_path(records, t)
        assert abs(report.residual_us) < 1e-6
        assert report.total_us() == pytest.approx(t, abs=1e-9)


def inconsistent_record():
    """A record whose phases do not tile its own [arrival, complete]
    window — the corruption the exact-sum invariant exists to catch."""
    return RequestAttribution(
        0, "read", 0, 20.0, die=0, arrival_us=0.0, complete_us=20.0,
        die_us=15.0,  # 5us of the window are unaccounted for
    )


class TestValidation:
    def test_exact_sum_violation_raises(self):
        with pytest.raises(CritPathError):
            extract_critical_path([inconsistent_record()], 20.0)

    def test_sanitizer_routes_check(self):
        san = Sanitizer()
        records = [rec(0, "read", 0, 0, 0.0, die_us=20.0)]
        extract_critical_path(records, 20.0, sanitizer=san)
        assert san.critpath_checks == 1
        assert san.stats()["critpath_checks"] == 1

    def test_sanitizer_reports_violation(self):
        san = Sanitizer()
        with pytest.raises(SanitizerError) as exc_info:
            extract_critical_path(
                [inconsistent_record()], 20.0, sanitizer=san
            )
        assert exc_info.value.invariant == "critpath-exact-sum"

    def test_validate_false_never_raises(self):
        report = extract_critical_path(
            [inconsistent_record()], 20.0, validate=False
        )
        assert report.residual_us == pytest.approx(5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            extract_critical_path([], -1.0)


class TestReportShape:
    def test_to_dict_schema(self):
        records = [rec(0, "read", 3, 7, 0.0, die_us=20.0, bus_us=40.0)]
        doc = extract_critical_path(records, 60.0).to_dict()
        assert doc["schema_version"] == CRITPATH_SCHEMA_VERSION
        assert doc["makespan_us"] == 60.0
        assert doc["critical_requests"] == 1
        assert "die7" in doc["resources"]
        assert "ch3" in doc["resources"]
        assert doc["ranked"][0]["resource"] in ("die7", "ch3")
        total = math.fsum(
            value for row in doc["resources"].values()
            for value in row.values()
        )
        total += doc["host_gap_us"] + doc["internal_tail_us"]
        total += doc["residual_us"]
        assert total == pytest.approx(60.0, abs=1e-9)

    def test_report_total_equals_makespan_by_construction(self):
        records = [
            rec(0, "read", 0, 0, 0.0, die_us=33.3),
            rec(1, "write", 1, 2, 40.0, die_us=111.1, gc_stall_us=7.7),
        ]
        report = extract_critical_path(records, 198.1)
        assert isinstance(report, BottleneckReport)
        assert report.total_us() == pytest.approx(198.1, abs=1e-9)
