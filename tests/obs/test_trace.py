"""Trace recorder: ring buffer and exports."""

import json

import pytest

from repro.obs import (
    EVENT_NAMES,
    NULL_RECORDER,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
)


class TestTraceRecorder:
    def test_emit_and_filter(self):
        rec = TraceRecorder()
        rec.emit(1.0, "channel_acquire", "ch0", dur_us=5.0)
        rec.emit(6.0, "gc_start", "die0")
        assert len(rec) == 2
        assert [e.name for e in rec.events()] == ["channel_acquire", "gc_start"]
        assert rec.events()[0].dur_us == 5.0

    def test_ring_buffer_evicts_oldest(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.emit(float(i), "e")
        assert len(rec) == 3
        assert rec.offered == 5
        assert rec.evicted == 2
        assert [e.ts_us for e in rec.events()] == [2.0, 3.0, 4.0]

    def test_wraparound_keeps_newest_window_in_order(self):
        # several full wraps of the ring: only the newest `capacity`
        # events survive, still in emission order
        rec = TraceRecorder(capacity=4)
        for i in range(11):
            rec.emit(float(i), "e", f"t{i % 2}")
        assert len(rec) == 4
        assert rec.offered == 11
        assert rec.evicted == 7
        assert [e.ts_us for e in rec.events()] == [7.0, 8.0, 9.0, 10.0]

    def test_wraparound_jsonl_export_matches_buffer(self, tmp_path):
        rec = TraceRecorder(capacity=3)
        for i in range(8):
            rec.emit(float(i), "e", args={"i": i})
        path = tmp_path / "wrapped.jsonl"
        assert rec.write_jsonl(path) == 3
        back = TraceRecorder.read_jsonl(path)
        assert [e.args["i"] for e in back] == [5, 6, 7]

    def test_wraparound_counters_account_for_every_offer(self):
        rec = TraceRecorder(capacity=2)
        for i in range(10):
            rec.emit(float(i), "e")
        # every offered event is either kept or evicted
        assert rec.offered == len(rec) + rec.evicted

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        rec = TraceRecorder()
        rec.emit(1.5, "request_submit", "w0", "host", args={"op": "read"})
        rec.emit(2.0, "die_acquire", "die3", "resource", dur_us=40.0)
        path = tmp_path / "trace.jsonl"
        assert rec.write_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["args"] == {"op": "read"}
        back = TraceRecorder.read_jsonl(path)
        assert [e.name for e in back] == ["request_submit", "die_acquire"]
        assert back[1].dur_us == 40.0
        assert back[0].args == {"op": "read"}

    def test_to_jsonl_empty(self):
        assert TraceRecorder().to_jsonl() == ""

    def test_event_to_dict_schema(self):
        e = TraceEvent(3.0, "gc_start", "die0", "gc", dur_us=None, args=None)
        assert e.to_dict() == {
            "ts_us": 3.0,
            "name": "gc_start",
            "track": "die0",
            "cat": "gc",
            "dur_us": None,
            "args": None,
        }

    def test_canonical_vocabulary(self):
        assert "channel_acquire" in EVENT_NAMES
        assert "keeper_switch" in EVENT_NAMES
        # a hold is one acquire record; its duration fixes the release
        assert not [n for n in EVENT_NAMES if n.endswith(("_release", "_end"))]


class TestNullRecorder:
    def test_all_noop(self, tmp_path):
        rec = NullRecorder()
        assert not rec.enabled
        rec.emit(0.0, "e")
        assert len(rec) == 0
        assert rec.events() == []
        assert rec.to_jsonl() == ""
        path = tmp_path / "empty.jsonl"
        assert rec.write_jsonl(path) == 0
        assert path.read_text() == ""

    def test_shared_instance(self):
        assert not NULL_RECORDER.enabled

