"""``repro.obs`` — zero-dependency observability subsystem.

Three pillars, bundled by the :class:`Observability` facade:

* **metrics registry** (:mod:`repro.obs.registry`) — counters, gauges,
  fixed-bucket latency histograms (p50/p95/p99), and series that the
  simulator, FTL, GC, buffer, fast model, keeper, and training loop
  publish into;
* **structured tracing** (:mod:`repro.obs.trace`,
  :mod:`repro.obs.chrometrace`) — ring-buffered event records with JSONL
  and ``chrome://tracing`` exporters;
* **utilization profiling** (:mod:`repro.obs.profiler`) — per-channel /
  per-die busy-fraction and queue-depth time series on a configurable
  simulated-time interval;
* **latency attribution** (:mod:`repro.obs.attribution`) — exact-sum
  decomposition of every completed request's latency into named phases
  (queue waits, bus transfer, die busy, GC stall, ECC retries, buffer
  hits) with per-tenant/per-channel aggregation and Perfetto spans;
* **causal explanation** (:mod:`repro.obs.critpath`,
  :mod:`repro.obs.whatif`) — run-level critical-path extraction (which
  resource bounds the makespan, exact-sum validated) and counterfactual
  what-if profiling by exact re-simulation with scaled config knobs,
  surfaced as ``repro explain``.

Everything is opt-in: the event-driven device sees the bundle only through
one :class:`DeviceProbe` (:mod:`repro.obs.probe`), ``None`` on a bare
device.  Enable with::

    from repro.obs import Observability
    obs = Observability(utilization_interval_us=500.0)
    sim = SSDSimulator(config, channel_sets, obs=obs)
    result = sim.run(trace)
    obs.trace.write_jsonl("run.jsonl")
    obs.write_chrome_trace("run.chrome.json")
    print(obs.registry.to_json(indent=2))
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
    diff_fleet_devices,
    diff_run,
    diff_traces,
    load_diff,
    write_diff,
)
from .fleet import (
    FLEET_SCHEMA_VERSION,
    FleetObserver,
    FleetRegistry,
    FleetSloAlert,
    FleetSloRollup,
    build_fleet_report,
    device_health,
    load_fleet,
    merge_histograms,
    write_fleet_report,
)
from .flightrecorder import FLIGHT_SCHEMA_VERSION, FlightRecorder
from .probe import DeviceProbe
from .profiler import UtilizationProfiler
from .registry import DEFAULT_LATENCY_BUCKETS_US, Counter, Gauge, Histogram, MetricsRegistry, Series
from .slo import SloAlert, SloSpec, SloSpecError, SloWatchdog
from .telemetry import TELEMETRY_SCHEMA, TELEMETRY_SCHEMA_VERSION, TelemetrySink
from .trace import EVENT_NAMES, NULL_RECORDER, NullRecorder, TraceEvent, TraceRecorder, match_pairs
from .whatif import (
    DEFAULT_COUNTERFACTUALS,
    WHATIF_SCHEMA_VERSION,
    Counterfactual,
    WhatIfReport,
    WhatIfRow,
    explain_decisions,
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
    "FLEET_SCHEMA_VERSION",
    "FleetObserver",
    "FleetRegistry",
    "FleetSloAlert",
    "FleetSloRollup",
    "build_fleet_report",
    "device_health",
    "load_fleet",
    "merge_histograms",
    "write_fleet_report",
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
    "explain_decisions",
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
    "match_pairs",
    "UtilizationProfiler",
    "to_chrome_trace",
    "write_chrome_trace",
    "DIFF_SCHEMA_VERSION",
    "DiffError",
    "build_diff_report",
    "diff_critpath_docs",
    "diff_fleet_devices",
    "diff_run",
    "diff_traces",
    "load_diff",
    "write_diff",
]


class Observability:
    """Bundle of registry + trace recorder + profiling config.

    Parameters
    ----------
    registry:
        Existing registry to publish into (default: a fresh one).
    trace:
        ``True`` (default) records events into a ring buffer; ``False``
        installs the no-op recorder (metrics only); or pass a
        pre-configured :class:`TraceRecorder`.
    trace_capacity / trace_sample_every:
        Ring-buffer size and 1-in-N sampling for the default recorder.
    utilization_interval_us:
        When set, the simulator attaches a :class:`UtilizationProfiler`
        sampling every that many simulated microseconds (found afterwards
        on :attr:`profiler`).
    attribution:
        ``True`` attaches an :class:`AttributionCollector` (found on
        :attr:`attribution`): every completed request's latency is
        decomposed into named phases — queue waits, bus transfer, die
        busy, GC stall, ECC retries, buffer hits — with exact-sum
        validation; or pass a pre-configured collector.  ``False`` (the
        default) costs nothing.
    telemetry:
        A sampling interval in simulated microseconds (or a
        pre-configured :class:`TelemetrySink`): the simulator arms the
        sink to emit delta-encoded windows over the registry on weak
        loop events (never perturbing the run).  ``None`` (default)
        costs nothing.
    slo:
        An :class:`SloSpec` (or pre-built :class:`SloWatchdog`): each
        telemetry window is evaluated for burn-rate alerting.  Implies
        telemetry — when no sink/interval is given, one is created with
        the spec's ``window_us``.
    flight_recorder:
        An output directory path (or pre-built :class:`FlightRecorder`):
        sanitizer traps, page-severity SLO alerts, and unrecoverable
        reads dump reproducible debug bundles there.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        trace: "bool | TraceRecorder" = True,
        trace_capacity: int = 65_536,
        trace_sample_every: int = 1,
        utilization_interval_us: float | None = None,
        attribution: "bool | AttributionCollector" = False,
        telemetry: "float | TelemetrySink | None" = None,
        slo: "SloSpec | SloWatchdog | None" = None,
        flight_recorder: "str | FlightRecorder | None" = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        if isinstance(trace, (TraceRecorder, NullRecorder)):
            self.trace = trace
        elif trace:
            self.trace = TraceRecorder(
                capacity=trace_capacity, sample_every=trace_sample_every
            )
        else:
            self.trace = NULL_RECORDER
        if utilization_interval_us is not None and utilization_interval_us <= 0:
            raise ValueError("utilization_interval_us must be positive")
        self.utilization_interval_us = utilization_interval_us
        #: attached by the device probe when profiling is enabled
        self.profiler: UtilizationProfiler | None = None
        #: keeper decision records (:class:`repro.core.keeper.KeeperDecision`)
        self.decisions: list = []
        #: optional per-request latency attribution sink
        if isinstance(attribution, AttributionCollector):
            self.attribution: AttributionCollector | None = attribution
        elif attribution:
            self.attribution = AttributionCollector(trace=self.trace)
        else:
            self.attribution = None
        #: optional SLO watchdog fed by the telemetry sink
        if isinstance(slo, SloWatchdog):
            self.slo: SloWatchdog | None = slo
        elif isinstance(slo, SloSpec):
            self.slo = SloWatchdog(slo)
        elif slo is None:
            self.slo = None
        else:
            raise TypeError("slo must be an SloSpec or SloWatchdog")
        #: optional windowed telemetry sink (armed by the device probe)
        if isinstance(telemetry, TelemetrySink):
            self.telemetry: TelemetrySink | None = telemetry
        elif telemetry is not None:
            self.telemetry = TelemetrySink(float(telemetry))
        elif self.slo is not None:
            # an SLO without an explicit sink still needs windows to
            # evaluate: derive one from the spec's window length
            self.telemetry = TelemetrySink(self.slo.spec.window_us)
        else:
            self.telemetry = None
        if self.slo is not None:
            self.telemetry.watchdog = self.slo
        #: optional failure flight recorder
        if isinstance(flight_recorder, FlightRecorder):
            self.flight_recorder: FlightRecorder | None = flight_recorder
        elif flight_recorder is not None:
            self.flight_recorder = FlightRecorder(flight_recorder)
        else:
            self.flight_recorder = None
        if self.flight_recorder is not None:
            self.flight_recorder.obs = self
        if self.slo is not None:
            self.slo.bind(
                registry=self.registry,
                trace=self.trace if self.trace.enabled else None,
                flight_recorder=self.flight_recorder,
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
        if self.profiler is not None:
            out["utilization"] = self.profiler.to_dict()
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
