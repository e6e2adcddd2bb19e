"""``repro.obs`` — zero-dependency observability subsystem.

The pillars, bundled by the :class:`Observability` facade:

* **metrics registry** (:mod:`repro.obs.registry`) — counters, gauges,
  fixed-bucket latency histograms (p50/p95/p99), and series that the
  simulator, FTL, GC, buffer, fault model, keeper, and training loop
  publish into;
* **structured tracing** (:mod:`repro.obs.trace`,
  :mod:`repro.obs.chrometrace`) — ring-buffered event records with JSONL
  and ``chrome://tracing`` exporters;
* **windowed telemetry** (:mod:`repro.obs.telemetry`) — the one sampler
  on the event loop: delta-encoded windows over the registry and every
  channel / die, whose per-window busy fraction and queue depth form the
  utilization view, evaluated by the SLO watchdog (:mod:`repro.obs.slo`)
  and dumped by the flight recorder (:mod:`repro.obs.flightrecorder`);
* **latency attribution** (:mod:`repro.obs.attribution`) — exact-sum
  decomposition of every completed request's latency into named phases
  (queue waits, bus transfer, die busy, GC stall, ECC retries, buffer
  hits) with per-tenant/per-channel aggregation and Perfetto spans;
* **causal explanation** (:mod:`repro.obs.critpath`,
  :mod:`repro.obs.whatif`) — run-level critical-path extraction (which
  resource bounds the makespan, exact-sum validated) and counterfactual
  what-if profiling by exact re-simulation with scaled config knobs,
  surfaced as ``repro explain``.

Everything is opt-in and none of it perturbs the run: the event-driven
device sees the bundle only through one :class:`DeviceProbe`
(:mod:`repro.obs.probe`), ``None`` on a bare device, and the telemetry
sampler ticks on weak loop events.  Enable with::

    from repro.obs import Observability
    obs = Observability(telemetry=500.0)
    sim = SSDSimulator(config, channel_sets, obs=obs)
    result = sim.run(trace)
    obs.trace.write_jsonl("run.jsonl")
    obs.write_chrome_trace("run.chrome.json")
    print(obs.export()["utilization"]["channel_busy"])
"""

from __future__ import annotations

from .attribution import (
    DRAM_CHANNEL,
    PHASE_NAMES,
    AttributionCollector,
    AttributionError,
    LatencyBreakdown,
    RequestAttribution,
    SubrequestSpan,
)
from .chrometrace import to_chrome_trace, write_chrome_trace
from .critpath import (
    CRITPATH_SCHEMA_VERSION,
    BottleneckReport,
    CritPathError,
    extract_critical_path,
)
from .diff import (
    DIFF_SCHEMA_VERSION,
    DiffError,
    build_diff_report,
    diff_critpath_docs,
    diff_run,
    diff_traces,
    load_diff,
    write_diff,
)
from .flightrecorder import FLIGHT_SCHEMA_VERSION, FlightRecorder
from .probe import DeviceProbe
from .registry import DEFAULT_LATENCY_BUCKETS_US, Counter, Gauge, Histogram, MetricsRegistry, Series
from .slo import SloAlert, SloSpec, SloSpecError, SloWatchdog
from .telemetry import TELEMETRY_SCHEMA, TELEMETRY_SCHEMA_VERSION, TelemetrySink
from .trace import EVENT_NAMES, NULL_RECORDER, NullRecorder, TraceEvent, TraceRecorder
from .whatif import (
    DEFAULT_COUNTERFACTUALS,
    WHATIF_SCHEMA_VERSION,
    Counterfactual,
    WhatIfReport,
    WhatIfRow,
    run_whatif,
)

__all__ = [
    "Observability",
    "DeviceProbe",
    "TelemetrySink",
    "TELEMETRY_SCHEMA_VERSION",
    "SloSpec",
    "SloSpecError",
    "SloAlert",
    "SloWatchdog",
    "FlightRecorder",
    "FLIGHT_SCHEMA_VERSION",
    "AttributionCollector",
    "AttributionError",
    "LatencyBreakdown",
    "RequestAttribution",
    "SubrequestSpan",
    "PHASE_NAMES",
    "DRAM_CHANNEL",
    "BottleneckReport",
    "CritPathError",
    "extract_critical_path",
    "CRITPATH_SCHEMA_VERSION",
    "Counterfactual",
    "DEFAULT_COUNTERFACTUALS",
    "WhatIfReport",
    "WhatIfRow",
    "run_whatif",
    "WHATIF_SCHEMA_VERSION",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "DEFAULT_LATENCY_BUCKETS_US",
    "TraceRecorder",
    "TraceEvent",
    "NullRecorder",
    "NULL_RECORDER",
    "EVENT_NAMES",
    "to_chrome_trace",
    "write_chrome_trace",
    "DIFF_SCHEMA_VERSION",
    "DiffError",
    "build_diff_report",
    "diff_critpath_docs",
    "diff_run",
    "diff_traces",
    "load_diff",
    "write_diff",
]


class Observability:
    """Bundle of registry + trace recorder + the optional pillars.

    Every bundle publishes into its own fresh :class:`MetricsRegistry`
    (:attr:`registry`).

    Parameters
    ----------
    trace:
        ``True`` (default) records events into a ring buffer of the
        :class:`TraceRecorder` default capacity; ``False`` installs the
        no-op recorder (metrics only); or pass a recorder, e.g.
        ``TraceRecorder(capacity=200_000)`` to keep a longer run whole.
    attribution:
        ``True`` attaches an :class:`AttributionCollector` (found on
        :attr:`attribution`): every completed request's latency is
        decomposed into named phases — queue waits, bus transfer, die
        busy, GC stall, ECC retries, buffer hits — with exact-sum
        validation; or pass a pre-configured collector.  ``False`` (the
        default) costs nothing.
    telemetry:
        A sampling interval in simulated microseconds: the simulator arms
        a :class:`TelemetrySink` to emit delta-encoded windows over the
        registry and the device's channels and dies on weak loop events
        (never perturbing the run); the windows also give the
        per-channel / per-die utilization view.  ``None`` (default) costs
        nothing.
    slo:
        An :class:`SloSpec`: a :class:`SloWatchdog` evaluates each
        telemetry window for burn-rate alerting.  Implies telemetry —
        when no interval is given, the sink samples at the spec's
        ``window_us``.
    flight_recorder:
        A :class:`FlightRecorder`: sanitizer traps, page-severity SLO
        alerts, and unrecoverable reads dump reproducible debug bundles
        into its directory.
    """

    def __init__(
        self,
        *,
        trace: "bool | TraceRecorder" = True,
        attribution: "bool | AttributionCollector" = False,
        telemetry: float | None = None,
        slo: SloSpec | None = None,
        flight_recorder: FlightRecorder | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        if isinstance(trace, (TraceRecorder, NullRecorder)):
            self.trace = trace
        elif trace:
            self.trace = TraceRecorder()
        else:
            self.trace = NULL_RECORDER
        #: keeper decision records (:class:`repro.core.keeper.KeeperDecision`)
        self.decisions: list = []
        #: optional per-request latency attribution sink
        if isinstance(attribution, AttributionCollector):
            self.attribution: AttributionCollector | None = attribution
        elif attribution:
            self.attribution = AttributionCollector(trace=self.trace)
        else:
            self.attribution = None
        if slo is not None and not isinstance(slo, SloSpec):
            raise TypeError("slo must be an SloSpec")
        #: optional SLO watchdog fed by the telemetry sink
        self.slo = SloWatchdog(slo) if slo is not None else None
        #: optional windowed telemetry sink (armed by the device probe)
        if telemetry is not None:
            self.telemetry: TelemetrySink | None = TelemetrySink(float(telemetry))
        elif slo is not None:
            # an SLO without an explicit interval still needs windows to
            # evaluate: sample at the spec's window length
            self.telemetry = TelemetrySink(slo.window_us)
        else:
            self.telemetry = None
        if self.slo is not None:
            self.telemetry.watchdog = self.slo
        #: optional failure flight recorder
        self.flight_recorder = flight_recorder
        if flight_recorder is not None:
            flight_recorder.obs = self
        if self.slo is not None:
            self.slo.bind(
                registry=self.registry,
                trace=self.trace if self.trace.enabled else None,
                flight_recorder=flight_recorder,
            )

    # ------------------------------------------------------------------
    def device_probe(self, sim, sanitizer=None) -> DeviceProbe:
        """The observer one :class:`~repro.ssd.simulator.SSDSimulator` calls."""
        return DeviceProbe(self, sim, sanitizer)

    def write_chrome_trace(self, path) -> int:
        """Export recorded events in Chrome trace format; returns count."""
        return write_chrome_trace(self.trace.events(), path)

    def export(self) -> dict:
        """Registry snapshot plus utilization, attribution, fault and
        keeper summaries (each section present only when populated)."""
        out = self.registry.snapshot()
        if self.telemetry is not None:
            out["utilization"] = self.telemetry.utilization()
        if self.decisions:
            out["keeper_decisions"] = [d.to_dict() for d in self.decisions]
        if self.attribution is not None:
            out["attribution"] = self.attribution.breakdown().to_dict()
        if self.telemetry is not None:
            out["telemetry"] = TELEMETRY_SCHEMA.stamp(
                interval_us=self.telemetry.interval_us,
                windows=len(self.telemetry.windows),
            )
        if self.slo is not None:
            out["slo"] = self.slo.summary()
        if self.flight_recorder is not None and self.flight_recorder.bundles:
            out["flight_bundles"] = [
                str(p) for p in self.flight_recorder.bundles
            ]
        faults = {
            name: value
            for section in ("counters", "gauges")
            for name, value in out.get(section, {}).items()
            if name.startswith("faults.")
        }
        if faults:
            out["faults"] = faults
        fallbacks = self.registry.get("keeper.fallbacks")
        if fallbacks is not None or self.decisions:
            out["keeper"] = {
                "fallbacks": fallbacks.value if fallbacks is not None else 0,
                "prediction_health": [
                    {
                        "time_us": d.time_us,
                        "healthy": d.fallback_reason is None,
                        "reason": d.fallback_reason,
                    }
                    for d in self.decisions
                ],
            }
        adaptation = self._adaptation_summary(out.get("counters", {}))
        if adaptation is not None:
            out["adaptation"] = adaptation
        return out

    def _adaptation_summary(self, counters: dict) -> dict | None:
        """Roll the adaptive keeper's drift/retrain counters into one
        section (``None`` when no adaptive run published anything)."""
        names = {
            "windows": "drift.windows",
            "detections": "drift.detections",
            "residual_alarms": "drift.residual_alarms",
            "feature_alarms": "drift.feature_alarms",
            "retrains": "keeper.retrains",
            "promotions": "keeper.promotions",
            "rollbacks": "keeper.rollbacks",
            "suppressed_switches": "keeper.suppressed_switches",
            "degradations": "keeper.degradations",
        }
        if not any(counter in counters for counter in names.values()):
            return None
        return {key: counters.get(counter, 0) for key, counter in names.items()}
