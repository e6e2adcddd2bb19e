"""Chrome trace format exporter.

Converts recorded :class:`~repro.obs.trace.TraceEvent` streams into the
JSON the ``chrome://tracing`` viewer and Perfetto load: a top-level
``{"traceEvents": [...]}`` object whose entries use the Trace Event
Format (``ph`` = ``"X"`` complete events for spans with a known
duration, ``"i"`` instant events otherwise).

Tracks map onto the viewer's process/thread rows with readable names:
host activity (the ``host`` track and per-tenant ``w<N>`` tracks) lives
in a **host** process, channel buses in a **channels** process, dies in
a **dies** process, and everything else (GC, keeper, sim internals) in
a **sim** process.  ``process_name`` / ``process_sort_index`` /
``thread_name`` metadata records label every row — Perfetto shows
"tenant 0" and "channel 3", not bare pids and tids.  Timestamps are
already in microseconds — exactly the unit the format expects.

:func:`to_diff_chrome_trace` puts two runs in one file and namespaces
pids per side: each side's stream has every pid shifted by a per-device
stride and its process names prefixed (``device 0 / channels``), so the
two runs' channel rows never collide on pid — Perfetto then shows one
process group per run.
"""

from __future__ import annotations

import json
from typing import Iterable

from .trace import TraceEvent

__all__ = [
    "to_chrome_trace",
    "to_diff_chrome_trace",
    "write_chrome_trace",
    "write_diff_chrome_trace",
]

#: track-prefix -> (pid, process name, thread-name template); matched in
#: order, first hit wins ("host" before "w" keeps "host" out of "w*").
_GROUPS = (
    ("host", 1, "host", "host"),
    ("w", 1, "host", "tenant {n}"),
    ("ch", 2, "channels", "channel {n}"),
    ("die", 3, "dies", "die {n}"),
)
_FALLBACK_PID = 4
_FALLBACK_PROCESS = "sim"

#: pid distance between consecutive devices in a merged trace; device
#: ``d`` occupies pids ``(d + 1) * stride + 1 .. + 4``, leaving the
#: un-namespaced pids 1..4 (solo exports) and the diff marker pid untouched.
_DEVICE_PID_STRIDE = 10

#: process id of the divergence-marker row group in diff traces
_DIFF_MARKER_PID = 1


def _classify(track: str) -> tuple[int, str, str]:
    """(pid, process name, readable thread name) for one track."""
    for prefix, pid, process, template in _GROUPS:
        if track.startswith(prefix):
            suffix = track[len(prefix):]
            if suffix == "" or suffix.isdigit():
                return pid, process, template.format(n=suffix)
    return _FALLBACK_PID, _FALLBACK_PROCESS, track


def _track_order(track: str) -> tuple:
    """Stable, human-friendly row order: host, tenants, channels, dies, rest."""
    for rank, (prefix, _pid, _process, _template) in enumerate(_GROUPS):
        if track.startswith(prefix):
            suffix = track[len(prefix):]
            num = int(suffix) if suffix.isdigit() else 0
            return (rank, num, track)
    return (len(_GROUPS), 0, track)


def _process_meta(pid: int, process: str) -> list[dict]:
    return [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process},
        },
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_sort_index",
            "args": {"sort_index": pid},
        },
    ]


def _event_record(e: TraceEvent, pid: int, tid: int) -> dict:
    record = {
        "name": e.name,
        "cat": e.cat,
        "pid": pid,
        "tid": tid,
        "ts": e.ts_us,
    }
    if e.args:
        record["args"] = e.args
    if e.dur_us is not None:
        record["ph"] = "X"
        record["dur"] = e.dur_us
    else:
        record["ph"] = "i"
        record["s"] = "t"  # instant scoped to its thread row
    return record


def _trace_records(
    events: list[TraceEvent], *, device: int | None = None
) -> list[dict]:
    """Metadata + event records for one device's stream.

    ``device`` namespaces pids (per-device stride) and prefixes process
    names so multiple devices coexist in one trace file; ``None`` keeps
    the classic solo pids 1..4.
    """
    pid_offset = 0
    name_prefix = ""
    if device is not None:
        if device < 0:
            raise ValueError("device must be non-negative")
        pid_offset = (device + 1) * _DEVICE_PID_STRIDE
        name_prefix = f"device {device} / "
    tracks = sorted({e.track or "sim" for e in events}, key=_track_order)
    pids: dict[str, int] = {}
    names: dict[str, str] = {}
    tids: dict[str, int] = {}
    processes: dict[int, str] = {}
    next_tid: dict[int, int] = {}
    for track in tracks:
        pid, process, thread_name = _classify(track)
        pid += pid_offset
        pids[track] = pid
        names[track] = thread_name
        processes.setdefault(pid, name_prefix + process)
        tid = next_tid.get(pid, 0) + 1
        next_tid[pid] = tid
        tids[track] = tid

    out: list[dict] = []
    for pid, process in sorted(processes.items()):
        out.extend(_process_meta(pid, process))
    out.extend(
        {
            "ph": "M",
            "pid": pids[track],
            "tid": tid,
            "name": "thread_name",
            "args": {"name": names[track]},
        }
        for track, tid in tids.items()
    )
    out.extend(
        _event_record(e, pids[e.track or "sim"], tids[e.track or "sim"])
        for e in events
    )
    return out


def _grouped_records(
    events: list[TraceEvent], pid: int, process: str
) -> list[dict]:
    """One process row group holding every track of ``events`` as threads.

    Used for a diff trace's divergence markers: tracks become thread
    rows named verbatim under a single process.
    """
    tracks = sorted({e.track or process for e in events}, key=_track_order)
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    out = _process_meta(pid, process)
    out.extend(
        {
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": track},
        }
        for track, tid in tids.items()
    )
    out.extend(
        _event_record(e, pid, tids[e.track or process]) for e in events
    )
    return out


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build the ``{"traceEvents": [...]}`` document (plain dict)."""
    return {
        "traceEvents": _trace_records(list(events)),
        "displayTimeUnit": "ms",
    }


def _coerce_events(events: Iterable) -> list[TraceEvent]:
    """Accept TraceEvent objects or their plain-dict form interchangeably.

    The diff comparators hand events around as dicts (the JSONL schema);
    the exporters want objects — accept both so a forensics bundle can be
    re-exported without a round-trip through ``read_jsonl``.
    """
    out = []
    for event in events:
        if isinstance(event, TraceEvent):
            out.append(event)
        else:
            out.append(
                TraceEvent(
                    event["ts_us"], event["name"], event.get("track", ""),
                    event.get("cat", "sim"), event.get("dur_us"),
                    event.get("args"),
                )
            )
    return out


def to_diff_chrome_trace(
    events_a: Iterable,
    events_b: Iterable,
    *,
    first_divergence: dict | None = None,
) -> dict:
    """Side-by-side diff trace: both runs plus divergence marker spans.

    Side A occupies the ``device 0`` pid namespace and side B ``device
    1``, so Perfetto shows the two runs as adjacent process groups over
    one shared time axis.  When ``first_divergence`` (the ``trace``
    section of a run-diff report) is given, a dedicated **diff** process
    at the top carries a ``first_divergence`` instant at the moment the
    histories forked and a ``divergent_region`` span covering everything
    after it — scroll to the marker, read the two rows below it.
    """
    a = _coerce_events(events_a)
    b = _coerce_events(events_b)
    records: list[dict] = []
    markers: list[TraceEvent] = []
    if first_divergence is not None:
        ts_candidates = [
            first_divergence.get("time_us_a"),
            first_divergence.get("time_us_b"),
        ]
        ts = min((t for t in ts_candidates if t is not None), default=0.0)
        end = max((e.ts_us + (e.dur_us or 0.0) for e in a + b), default=ts)
        args = {
            key: first_divergence.get(key)
            for key in ("index", "kind", "tenant", "channel", "die")
        }
        markers.append(
            TraceEvent(ts, "first_divergence", "divergence", "diff",
                       None, args)
        )
        if end > ts:
            markers.append(
                TraceEvent(ts, "divergent_region", "divergence", "diff",
                           end - ts, args)
            )
    if markers:
        records.extend(_grouped_records(markers, _DIFF_MARKER_PID, "diff"))
    records.extend(_trace_records(a, device=0))
    records.extend(_trace_records(b, device=1))
    return {"traceEvents": records, "displayTimeUnit": "ms"}


def write_diff_chrome_trace(
    events_a: Iterable,
    events_b: Iterable,
    path,
    *,
    first_divergence: dict | None = None,
) -> int:
    """Write the side-by-side diff trace; returns the record count."""
    doc = to_diff_chrome_trace(
        events_a, events_b, first_divergence=first_divergence
    )
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def write_chrome_trace(events: Iterable[TraceEvent], path) -> int:
    """Write the Chrome-trace JSON to ``path``; returns the event count."""
    doc = to_chrome_trace(events)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
