"""Live windowed telemetry over the metrics registry.

A :class:`TelemetrySink` samples the :class:`~repro.obs.registry.MetricsRegistry`
on a fixed simulated-time interval and closes each interval into a
**delta-encoded window**: counter increments, histogram bucket-count
deltas, current gauge values, per-resource busy/GC/wait time deltas and
per-resource queue depth at window close.  Windows stream to a
schema-versioned JSONL file (one header record, one record per window) —
exactly the in-run training input the generative storage-model line of
work consumes, and the evaluation substrate for the SLO watchdog
(:mod:`repro.obs.slo`).

The sink schedules its ticks as **weak events**
(:meth:`repro.ssd.engine.EventLoop.every`): they fire while real work is
pending and are dropped once only samplers remain, so an armed sink never
extends the run's makespan — a telemetry-on run is byte-identical to a
telemetry-off run.  A final :meth:`flush` closes the partial tail window
after the loop drains.

The sink is also the device's utilization sampler: :meth:`utilization`
turns the windows into per-channel / per-die busy-fraction and
queue-depth rows (busy-us delta over the window span), the data behind
the paper's Figure-2-style conflict plots.  Busy time is *booked* at
grant time (the engine charges the whole service duration up front), so
one window's fraction may exceed 1.0 right after a long grant and dip
below on the next; over any horizon longer than a few service times the
rows integrate to the true utilization.

A window's ``events`` field is the number of heap events the loop
dispatched in it (:attr:`repro.ssd.engine.EventLoop.events_processed`):
host work, not a simulated quantity.
"""

from __future__ import annotations

import json

from ..schema import Schema
from .registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["TelemetrySink", "TELEMETRY_SCHEMA_VERSION", "load_header"]

#: bump when the window record layout changes
TELEMETRY_SCHEMA_VERSION = 2

#: the stream header record; the obs export summary stamps a subset
TELEMETRY_SCHEMA = Schema(
    "telemetry header", TELEMETRY_SCHEMA_VERSION,
    required=("kind", "interval_us", "windows", "channels", "dies"),
)

#: validate a telemetry stream header, the first line of ``to_jsonl``
load_header = TELEMETRY_SCHEMA.load


def _resource_totals(channels, dies) -> dict[str, list[float]]:
    """Cumulative per-resource totals; a window records their deltas."""
    return {
        "channel_busy_us": [c.busy_time_us for c in channels],
        "die_busy_us": [d.busy_time_us for d in dies],
        "gc_busy_us": [d.gc_busy_time_us for d in dies],
        "channel_wait_us": [c.wait_time_us for c in channels],
        "die_wait_us": [d.wait_time_us for d in dies],
    }


def _outstanding(resources) -> list[int]:
    """Jobs outstanding per resource: the holder plus its waiters."""
    return [r.queue_depth + (1 if r.busy else 0) for r in resources]


class TelemetrySink:
    """Periodic delta-encoded registry sampler (weakly scheduled)."""

    def __init__(self, interval_us: float) -> None:
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        self.interval_us = interval_us
        #: closed windows, oldest first (plain dicts, JSON-ready)
        self.windows: list[dict] = []
        #: optional :class:`repro.obs.slo.SloWatchdog`, set after
        #: construction; fed every window
        self.watchdog = None
        self._loop = None
        self._registry: MetricsRegistry | None = None
        self._channels = ()
        self._dies = ()
        self._last_ts_us = 0.0
        self._last_events = 0
        self._last_counters: dict[str, float] = {}
        self._last_hist: dict[str, tuple[list[int], float, int]] = {}
        self._last_res: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    def attach(self, loop, registry: MetricsRegistry, *,
               channels=(), dies=()) -> None:
        """Arm the sink on ``loop``: baseline now, then sample weakly.

        Call after the run's initial events are scheduled.  Ticks are
        weak (:meth:`EventLoop.every`), so the sink cannot keep the loop
        alive or move ``now`` past the last real event.
        """
        self._loop = loop
        self._registry = registry
        self._channels = tuple(channels)
        self._dies = tuple(dies)
        self._last_ts_us = loop.now
        self._last_events = loop.events_processed
        self._rebaseline()
        loop.every(self.interval_us, self._sample)

    def _rebaseline(self) -> None:
        registry = self._registry
        self._last_counters = {}
        self._last_hist = {}
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Counter):
                self._last_counters[name] = metric.value
            elif isinstance(metric, Histogram):
                self._last_hist[name] = (
                    list(metric.counts), metric.total, metric.count
                )
        self._last_res = _resource_totals(self._channels, self._dies)

    def _sample(self) -> None:
        self._record_window(self._loop.now)

    def flush(self) -> None:
        """Close the final partial window after the loop drained."""
        if self._loop is not None:
            self._record_window(self._loop.now)

    # ------------------------------------------------------------------
    def _record_window(self, now: float) -> None:
        span = now - self._last_ts_us
        if span <= 0:
            return
        registry = self._registry
        counters: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Counter):
                delta = metric.value - self._last_counters.get(name, 0)
                if delta:
                    counters[name] = delta
                self._last_counters[name] = metric.value
            elif isinstance(metric, Histogram):
                last_counts, last_total, last_count = self._last_hist.get(
                    name, ([0] * len(metric.counts), 0.0, 0)
                )
                dcount = metric.count - last_count
                if dcount:
                    histograms[name] = {
                        "count": dcount,
                        "sum": metric.total - last_total,
                        "bounds": list(metric.bounds),
                        "buckets": [
                            c - lc for c, lc in zip(metric.counts, last_counts)
                        ],
                    }
                self._last_hist[name] = (
                    list(metric.counts), metric.total, metric.count
                )
        gauges = {
            name: registry.get(name).value
            for name in registry.names()
            if isinstance(registry.get(name), Gauge)
        }
        resources = {}
        if self._channels or self._dies:
            current = _resource_totals(self._channels, self._dies)
            resources = {
                key: [v - lv for v, lv in zip(vals, self._last_res[key])]
                for key, vals in current.items()
            }
            resources["channel_queue"] = _outstanding(self._channels)
            resources["die_queue"] = _outstanding(self._dies)
            self._last_res = current
        events = self._loop.events_processed - self._last_events
        self._last_events = self._loop.events_processed
        window = {
            "kind": "window",
            "seq": len(self.windows),
            "t_start_us": self._last_ts_us,
            "t_end_us": now,
            "events": events,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "resources": resources,
        }
        self._last_ts_us = now
        self.windows.append(window)
        if self.watchdog is not None:
            self.watchdog.observe(window)

    # ------------------------------------------------------------------
    def utilization(self) -> dict:
        """Per-window busy fraction and queue depth of every channel and
        die: one row per window, stamped with the window's end time."""
        rows = [w for w in self.windows if w["resources"]]

        def fractions(key):
            return [
                [busy / (w["t_end_us"] - w["t_start_us"]) for busy in w["resources"][key]]
                for w in rows
            ]

        return {
            "interval_us": self.interval_us,
            "times_us": [w["t_end_us"] for w in rows],
            "channel_busy": fractions("channel_busy_us"),
            "die_busy": fractions("die_busy_us"),
            "channel_queue": [list(w["resources"]["channel_queue"]) for w in rows],
            "die_queue": [list(w["resources"]["die_queue"]) for w in rows],
        }

    def header(self) -> dict:
        """The stream's schema-versioned header record."""
        return TELEMETRY_SCHEMA.stamp(
            kind="header",
            interval_us=self.interval_us,
            windows=len(self.windows),
            channels=len(self._channels),
            dies=len(self._dies),
        )

    def to_jsonl(self) -> str:
        """Header line followed by one JSON line per window."""
        lines = [json.dumps(self.header())]
        lines.extend(json.dumps(w) for w in self.windows)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> int:
        """Write the stream to ``path``; returns the window count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self.windows)
