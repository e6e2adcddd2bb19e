"""Per-request latency attribution: spans, collector, validation."""

import pytest

from repro.analysis import Sanitizer, SanitizerError
from repro.obs import (
    PHASE_NAMES,
    AttributionCollector,
    AttributionError,
    RequestAttribution,
    SubrequestSpan,
    TraceRecorder,
)


class FakeDie:
    def __init__(self):
        self.gc_busy_time_us = 0.0


class FakeRequest:
    def __init__(self, workload_id=0, is_read=True, arrival_us=0.0,
                 complete_us=100.0, lpn=7):
        self.workload_id = workload_id
        self.is_read = is_read
        self.arrival_us = arrival_us
        self.complete_us = complete_us
        self.lpn = lpn

    @property
    def latency_us(self):
        return self.complete_us - self.arrival_us


def read_span(
    channel=0,
    *,
    die_enq=0.0,
    die_grant=30.0,
    gc_us=0.0,
    die_us=45.0,
    ecc_us=0.0,
    bus_enq=None,
    bus_grant=None,
    bus_us=15.0,
):
    """Build a read-shaped span: die first, then bus, contiguous timeline."""
    die = FakeDie()
    span = SubrequestSpan(
        channel, -1, die, die_us=die_us, ecc_retry_us=ecc_us, bus_us=bus_us
    )
    span.die_enqueued(die_enq)
    die.gc_busy_time_us += gc_us
    span.die_granted(die_grant)
    die_done = die_grant + die_us + ecc_us
    span.bus_enqueued(die_done if bus_enq is None else bus_enq)
    span.bus_granted(die_done if bus_grant is None else bus_grant)
    span.end_us = span.bus_grant_us + bus_us
    return span


class TestSubrequestSpan:
    def test_die_wait_splits_host_and_gc(self):
        span = read_span(die_grant=30.0, gc_us=12.0)
        assert span.gc_stall_us == 12.0
        assert span.die_wait_us == 18.0

    def test_gc_stall_clamped_to_wait(self):
        # more GC busy-time booked than we actually waited: the excess
        # belongs to grants that overlapped other spans, not ours
        span = read_span(die_grant=10.0, gc_us=50.0)
        assert span.gc_stall_us == 10.0
        assert span.die_wait_us == 0.0

    def test_bus_wait(self):
        span = read_span(die_grant=0.0, bus_enq=45.0, bus_grant=52.0)
        assert span.bus_wait_us == 7.0


class TestRequestAttribution:
    def test_phases_cover_canonical_vocabulary(self):
        rec = RequestAttribution(0, "read", 1, 60.0, die_us=45.0, bus_us=15.0)
        assert set(rec.phases()) == set(PHASE_NAMES)
        assert rec.phase_sum_us() == 60.0

    def test_to_dict(self):
        rec = RequestAttribution(2, "write", 3, 10.0, die_us=10.0)
        d = rec.to_dict()
        assert d["workload_id"] == 2
        assert d["op"] == "write"
        assert d["channel"] == 3
        assert d["die_us"] == 10.0


class TestAttributionCollector:
    def test_record_exact_sum(self):
        coll = AttributionCollector()
        span = read_span(die_grant=30.0, gc_us=12.0)
        req = FakeRequest(workload_id=1, arrival_us=0.0, complete_us=span.end_us)
        rec = coll.record(req, span)
        assert rec.phase_sum_us() == pytest.approx(req.latency_us, abs=1e-9)
        assert coll.records == [rec]
        assert coll.breakdown().requests == 1

    def test_mismatch_raises_attribution_error(self):
        coll = AttributionCollector()
        span = read_span()
        # claim a latency the phases cannot reproduce
        req = FakeRequest(arrival_us=0.0, complete_us=span.end_us + 5.0)
        with pytest.raises(AttributionError) as err:
            coll.record(req, span)
        assert "phases sum to" in str(err.value)

    def test_mismatch_routes_through_attached_sanitizer(self):
        coll = AttributionCollector()
        coll.sanitizer = Sanitizer()
        span = read_span()
        good = FakeRequest(arrival_us=0.0, complete_us=span.end_us)
        coll.record(good, read_span())
        assert coll.sanitizer.stats()["attribution_checks"] == 1
        bad = FakeRequest(arrival_us=0.0, complete_us=span.end_us + 5.0)
        with pytest.raises(SanitizerError) as err:
            coll.record(bad, read_span())
        assert err.value.invariant == "attribution-exact-sum"

    def test_aggregates_per_tenant_and_channel(self):
        coll = AttributionCollector()
        for wid, ch in ((0, 0), (0, 1), (1, 1)):
            span = read_span(channel=ch)
            req = FakeRequest(workload_id=wid, is_read=(wid == 0),
                              complete_us=span.end_us)
            coll.record(req, span)
        b = coll.breakdown()
        assert b.requests == 3
        assert b.per_tenant[0]["requests"] == 2
        assert b.per_tenant[1]["requests"] == 1
        assert b.per_channel[1]["requests"] == 2
        assert b.total_latency_us == pytest.approx(
            sum(r.latency_us for r in coll.records)
        )
        # totals equal the sum over tenants, phase by phase
        for name in PHASE_NAMES:
            assert b.phase_totals_us[name] == pytest.approx(
                b.per_tenant[0][name] + b.per_tenant[1][name]
            )

    def test_phase_fractions_sum_to_one(self):
        coll = AttributionCollector()
        span = read_span(die_grant=30.0, gc_us=12.0)
        coll.record(FakeRequest(complete_us=span.end_us), span)
        fractions = coll.breakdown().phase_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_breakdown_fractions_are_zero(self):
        b = AttributionCollector().breakdown()
        assert all(v == 0.0 for v in b.phase_fractions().values())

    def test_gc_notes(self):
        coll = AttributionCollector()
        coll.note_gc_trigger(1, 3)
        coll.note_gc_trigger(1, 2)
        coll.note_gc_reclaim(0, moves=5, retired=False)
        coll.note_gc_reclaim(0, moves=0, retired=True)
        b = coll.breakdown()
        assert b.gc_triggers[1] == {"writes": 2, "work_items": 5}
        assert b.gc_reclaims[0] == {"blocks": 2, "moves": 5, "retired": 1}

    def test_breakdown_to_dict_and_format(self):
        coll = AttributionCollector()
        span = read_span(die_grant=30.0, gc_us=12.0)
        coll.record(FakeRequest(complete_us=span.end_us), span)
        coll.note_gc_trigger(0, 4)
        doc = coll.breakdown().to_dict()
        assert doc["requests"] == 1
        assert set(doc["phase_totals_us"]) == set(PHASE_NAMES)
        assert doc["gc"]["triggered_by_tenant"][0] == {
            "writes": 1, "work_items": 4,
        }
        text = coll.breakdown().format()
        assert "latency attribution over 1 requests" in text
        assert "gc_stall_us" in text
        assert "gc triggered by" in text

    def test_buffer_hit_record(self):
        coll = AttributionCollector()
        span = SubrequestSpan(-1)
        span.buffer_us = 2.5
        span.end_us = 2.5
        req = FakeRequest(arrival_us=0.0, complete_us=2.5)
        rec = coll.record(req, span)
        assert rec.channel == -1
        assert rec.buffer_us == 2.5
        assert rec.phase_sum_us() == pytest.approx(2.5)


class TestTraceSpanEmission:
    def test_emits_per_phase_spans(self):
        trace = TraceRecorder()
        coll = AttributionCollector(trace=trace)
        span = read_span(die_grant=30.0, gc_us=12.0, ecc_us=9.0)
        req = FakeRequest(workload_id=2, complete_us=span.end_us)
        coll.record(req, span)
        names = [e.name for e in trace.events()]
        assert names == ["req_span", "req_wait_die", "req_die", "req_bus"]
        req_span = [e for e in trace.events() if e.name == "req_span"][0]
        assert req_span.track == "w2"
        assert req_span.cat == "attr"
        assert req_span.dur_us == pytest.approx(req.latency_us)
        wait = [e for e in trace.events() if e.name == "req_wait_die"][0]
        assert wait.args == {"gc_stall_us": 12.0}
        die = [e for e in trace.events() if e.name == "req_die"][0]
        assert die.args == {"ecc_retry_us": 9.0}
        # phase spans tile the request span end to end
        assert die.ts_us == wait.ts_us + wait.dur_us
        bus = [e for e in trace.events() if e.name == "req_bus"][0]
        assert bus.ts_us + bus.dur_us == pytest.approx(span.end_us)

    def test_buffer_hit_emits_dram_span_only(self):
        trace = TraceRecorder()
        coll = AttributionCollector(trace=trace)
        span = SubrequestSpan(-1)
        span.buffer_us = 2.5
        span.end_us = 2.5
        coll.record(FakeRequest(complete_us=2.5), span)
        assert [e.name for e in trace.events()] == ["req_span", "req_dram"]

    def test_disabled_trace_is_dropped(self):
        coll = AttributionCollector(trace=None)
        assert coll.trace is None


class TestBreakdownEdgeCases:
    """Degenerate runs must produce well-formed summaries (satellite of
    the critical-path explainer: it feeds on these aggregates)."""

    def test_empty_run_fractions_and_format(self):
        bd = AttributionCollector().breakdown()
        assert bd.requests == 0
        fractions = bd.phase_fractions()
        assert set(fractions) == set(PHASE_NAMES)
        assert all(value == 0.0 for value in fractions.values())
        text = bd.format()
        assert "0 requests" in text
        assert "0.000s total" in text

    def test_zero_latency_run_fractions_and_format(self):
        # a record whose every phase is zero: requests > 0 but the total
        # attributed latency is 0 — fractions must not divide by zero
        coll = AttributionCollector()
        span = SubrequestSpan(0)
        coll.record(FakeRequest(arrival_us=5.0, complete_us=5.0), span)
        bd = coll.breakdown()
        assert bd.requests == 1
        assert bd.total_latency_us == 0.0
        fractions = bd.phase_fractions()
        assert all(value == 0.0 for value in fractions.values())
        text = bd.format()
        assert "1 requests" in text  # renders, no ZeroDivisionError

    def test_empty_run_to_dict_shape(self):
        doc = AttributionCollector().breakdown().to_dict()
        assert doc["requests"] == 0
        assert doc["per_tenant"] == {}
        assert doc["per_channel"] == {}
        assert doc["phase_fractions"] == {n: 0.0 for n in PHASE_NAMES}
