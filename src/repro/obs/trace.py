"""Structured trace recorder.

One :class:`TraceEvent` is emitted per interesting simulation moment —
``request_submit``, ``subrequest_dispatch``, ``channel_acquire`` /
``channel_release`` (and the die equivalents), ``gc_start`` / ``gc_end``,
``keeper_switch`` — carrying the simulated timestamp, a track (the
resource or actor the event belongs to), a category, and free-form args.

The recorder is a bounded ring buffer: the ``capacity`` newest events
are kept, older ones are dropped and counted; raise ``capacity`` to keep
a long run whole.  :data:`NULL_RECORDER` is the disabled-path object:
its ``emit`` does nothing, and components test ``recorder.enabled`` (or
hold ``None``) so the instrumented hot paths stay no-op cheap.

Export formats: JSONL (one event per line, schema below) via
:meth:`TraceRecorder.to_jsonl`, and the Chrome trace format via
:mod:`repro.obs.chrometrace`.

JSONL schema::

    {"ts_us": float, "name": str, "track": str, "cat": str,
     "dur_us": float | null, "args": object | null}
"""

from __future__ import annotations

from collections import deque
import json
from typing import Iterable

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "EVENT_NAMES",
    "match_pairs",
]

#: Canonical event vocabulary (components may add more; these are the
#: names the exporters and tests rely on).
EVENT_NAMES = (
    "request_submit",
    "subrequest_dispatch",
    "channel_acquire",
    "channel_release",
    "die_acquire",
    "die_release",
    "gc_start",
    "gc_end",
    "keeper_switch",
    "slo_alert",
)


class TraceEvent:
    """One timestamped trace record."""

    __slots__ = ("ts_us", "name", "track", "cat", "dur_us", "args")

    def __init__(
        self,
        ts_us: float,
        name: str,
        track: str = "",
        cat: str = "sim",
        dur_us: float | None = None,
        args: dict | None = None,
    ) -> None:
        self.ts_us = ts_us
        self.name = name
        self.track = track
        self.cat = cat
        self.dur_us = dur_us
        self.args = args

    def to_dict(self) -> dict:
        return {
            "ts_us": self.ts_us,
            "name": self.name,
            "track": self.track,
            "cat": self.cat,
            "dur_us": self.dur_us,
            "args": self.args,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.ts_us:.1f}us {self.name} {self.track})"


class TraceRecorder:
    """Ring-buffered event sink."""

    #: real recorders report True; the null recorder False
    enabled = True

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        #: events offered to the recorder (including evicted ones)
        self.offered = 0
        #: events evicted by the ring buffer
        self.evicted = 0

    def emit(
        self,
        ts_us: float,
        name: str,
        track: str = "",
        cat: str = "sim",
        dur_us: float | None = None,
        args: dict | None = None,
    ) -> None:
        self.offered += 1
        if len(self._events) == self.capacity:
            self.evicted += 1
        self._events.append(TraceEvent(ts_us, name, track, cat, dur_us, args))

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[TraceEvent]:
        """Recorded events in emission order."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One compact JSON object per line (trailing newline included)."""
        lines = [json.dumps(e.to_dict()) for e in self._events]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> int:
        """Write the JSONL export to ``path``; returns the event count."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
        return len(self._events)

    @staticmethod
    def read_jsonl(path) -> list[TraceEvent]:
        """Load a JSONL export back into events (round-trip for analysis)."""
        events = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                events.append(
                    TraceEvent(
                        d["ts_us"], d["name"], d.get("track", ""),
                        d.get("cat", "sim"), d.get("dur_us"), d.get("args"),
                    )
                )
        return events


class NullRecorder:
    """Disabled-path recorder: every operation is a no-op."""

    enabled = False
    capacity = 0
    offered = 0
    evicted = 0

    def emit(self, *args, **kwargs) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def events(self) -> list[TraceEvent]:
        return []

    def clear(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path) -> int:
        with open(path, "w"):
            pass
        return 0


#: Shared no-op instance (stateless, safe to reuse everywhere).
NULL_RECORDER = NullRecorder()


def match_pairs(
    events: Iterable[TraceEvent], start_name: str, end_name: str
) -> list[tuple[TraceEvent, TraceEvent]]:
    """Pair ``start_name`` events with the next ``end_name`` on the track.

    Used by tests and analysis to check acquire/release discipline.
    Raises ``ValueError`` when an end event has no pending start (a
    truncated ring buffer can legitimately drop the starts — callers
    should pair only untruncated traces).
    """
    pending: dict[str, list[TraceEvent]] = {}
    pairs: list[tuple[TraceEvent, TraceEvent]] = []
    for event in events:
        key = event.track
        if event.name == start_name:
            pending.setdefault(key, []).append(event)
        elif event.name == end_name:
            stack = pending.get(key)
            if not stack:
                raise ValueError(
                    f"{end_name} on track {key!r} at {event.ts_us} without "
                    f"a pending {start_name}"
                )
            pairs.append((stack.pop(0), event))
    return pairs
