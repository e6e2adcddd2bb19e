"""Chrome trace format exporter."""

import json

from repro.obs import TraceEvent, to_chrome_trace, write_chrome_trace
from repro.obs.chrometrace import _trace_records


def sample_events():
    return [
        TraceEvent(0.0, "request_submit", "w0", "host", args={"op": "read"}),
        TraceEvent(1.0, "channel_acquire", "ch0", "resource", dur_us=2.5),
        TraceEvent(3.5, "subrequest_dispatch", "ch0", "sim"),
        TraceEvent(1.5, "die_acquire", "die2", "resource", dur_us=40.0),
    ]


def device_doc(device):
    """One device's pid-namespaced stream."""
    return {"traceEvents": _trace_records(sample_events(), device=device)}


class TestToChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(sample_events())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        # 3 processes (host/channels/dies) x 2 process metadata records
        # + 3 thread_name records + 4 events
        assert len(doc["traceEvents"]) == 13

    def test_process_names_cover_every_pid(self):
        doc = to_chrome_trace(sample_events())
        records = doc["traceEvents"]
        named = {
            r["pid"]: r["args"]["name"]
            for r in records
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert set(named.values()) == {"host", "channels", "dies"}
        assert {r["pid"] for r in records} <= set(named)

    def test_thread_names_are_readable(self):
        doc = to_chrome_trace(sample_events())
        meta = [
            r for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "thread_name"
        ]
        names = {r["args"]["name"] for r in meta}
        assert names == {"tenant 0", "channel 0", "die 2"}

    def test_tracks_group_into_processes(self):
        doc = to_chrome_trace(sample_events())
        events = [r for r in doc["traceEvents"] if r["ph"] != "M"]
        pid_of = {r["name"]: r["pid"] for r in events}
        assert pid_of["channel_acquire"] == pid_of["subrequest_dispatch"]
        assert pid_of["request_submit"] != pid_of["channel_acquire"]
        assert pid_of["channel_acquire"] != pid_of["die_acquire"]

    def test_duration_events_are_complete_spans(self):
        doc = to_chrome_trace(sample_events())
        spans = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert {r["name"] for r in spans} == {"channel_acquire", "die_acquire"}
        assert all("dur" in r for r in spans)

    def test_instant_events(self):
        doc = to_chrome_trace(sample_events())
        instants = [r for r in doc["traceEvents"] if r["ph"] == "i"]
        assert {r["name"] for r in instants} == {
            "request_submit",
            "subrequest_dispatch",
        }
        assert all(r["s"] == "t" for r in instants)

    def test_events_resolve_declared_threads(self):
        doc = to_chrome_trace(sample_events())
        records = doc["traceEvents"]
        declared = {
            (r["pid"], r["tid"])
            for r in records
            if r["ph"] == "M" and r["name"] == "thread_name"
        }
        used = {(r["pid"], r["tid"]) for r in records if r["ph"] != "M"}
        assert used <= declared

    def test_empty_track_maps_to_sim_process(self):
        doc = to_chrome_trace([TraceEvent(0.0, "keeper_switch")])
        records = doc["traceEvents"]
        process = [
            r["args"]["name"]
            for r in records
            if r["ph"] == "M" and r["name"] == "process_name"
        ]
        assert process == ["sim"]
        threads = [
            r["args"]["name"]
            for r in records
            if r["ph"] == "M" and r["name"] == "thread_name"
        ]
        assert threads == ["sim"]

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(sample_events(), path)
        doc = json.loads(path.read_text())
        assert written == len(doc["traceEvents"])


class TestDeviceNamespacing:
    """Per-device pid namespaces, as the diff merge builds them."""

    def test_default_output_is_unchanged(self):
        """A solo export keeps the classic pids/names."""
        doc = to_chrome_trace(sample_events())
        pids = {r["pid"] for r in doc["traceEvents"]}
        assert pids == {1, 2, 3}

    def test_device_offsets_every_pid(self):
        solo = to_chrome_trace(sample_events())
        dev1 = device_doc(1)
        solo_pids = sorted({r["pid"] for r in solo["traceEvents"]})
        dev1_pids = sorted({r["pid"] for r in dev1["traceEvents"]})
        assert dev1_pids == [p + 20 for p in solo_pids]

    def test_device_prefixes_process_names(self):
        doc = device_doc(0)
        names = {
            r["args"]["name"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert names == {
            "device 0 / host", "device 0 / channels", "device 0 / dies"
        }

    def test_two_devices_never_collide_on_pid(self):
        a = device_doc(0)
        b = device_doc(1)
        pids_a = {r["pid"] for r in a["traceEvents"]}
        pids_b = {r["pid"] for r in b["traceEvents"]}
        assert not pids_a & pids_b

    def test_rejects_negative_device(self):
        import pytest

        with pytest.raises(ValueError):
            device_doc(-1)

    def test_structure_identical_modulo_namespace(self):
        """Namespacing shifts pids and prefixes names — nothing else."""
        solo = to_chrome_trace(sample_events())["traceEvents"]
        dev0 = device_doc(0)["traceEvents"]
        assert len(solo) == len(dev0)
        for s, d in zip(solo, dev0):
            assert d["pid"] == s["pid"] + 10
            assert d.get("tid") == s.get("tid")
            assert d["name"] == s["name"]
            if s["ph"] == "M" and s["name"] == "process_name":
                assert d["args"]["name"] == f"device 0 / {s['args']['name']}"


class TestDiffChromeTrace:
    def test_sides_occupy_adjacent_device_namespaces(self):
        from repro.obs.chrometrace import to_diff_chrome_trace

        doc = to_diff_chrome_trace(sample_events(), sample_events())
        records = doc["traceEvents"]
        process_names = {
            r["args"]["name"] for r in records
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert any(n.startswith("device 0 / ") for n in process_names)
        assert any(n.startswith("device 1 / ") for n in process_names)
        # both sides carry the full event stream
        assert sum(1 for r in records if r["ph"] in ("X", "i")) == 8

    def test_accepts_plain_dict_events(self):
        from repro.obs.chrometrace import to_diff_chrome_trace

        dicts = [e.to_dict() for e in sample_events()]
        assert to_diff_chrome_trace(dicts, dicts) == to_diff_chrome_trace(
            sample_events(), sample_events()
        )

    def test_divergence_markers_span_the_forked_region(self):
        from repro.obs.chrometrace import to_diff_chrome_trace

        first = {"index": 2, "time_us_a": 3.5, "time_us_b": 4.0,
                 "kind": "subrequest_dispatch", "tenant": None, "channel": 0,
                 "die": None}
        doc = to_diff_chrome_trace(
            sample_events(), sample_events(), first_divergence=first
        )
        records = doc["traceEvents"]
        marker = [r for r in records if r["name"] == "first_divergence"]
        assert len(marker) == 1
        assert marker[0]["ph"] == "i"
        assert marker[0]["ts"] == 3.5  # min(time_us_a, time_us_b)
        assert marker[0]["args"]["channel"] == 0
        assert marker[0]["args"]["index"] == 2
        region = next(r for r in records if r["name"] == "divergent_region")
        assert region["ph"] == "X"
        assert region["ts"] == 3.5
        assert region["dur"] == 38.0  # up to die_acquire end (1.5 + 40.0)

    def test_no_markers_without_first_divergence(self):
        from repro.obs.chrometrace import to_diff_chrome_trace

        doc = to_diff_chrome_trace(sample_events(), sample_events())
        names = {r["name"] for r in doc["traceEvents"]}
        assert "first_divergence" not in names
        assert "divergent_region" not in names

    def test_write_returns_record_count(self, tmp_path):
        from repro.obs.chrometrace import write_diff_chrome_trace

        path = tmp_path / "diff_trace.json"
        count = write_diff_chrome_trace(
            sample_events(), sample_events(), path
        )
        doc = json.loads(path.read_text())
        assert count == len(doc["traceEvents"]) > 0
