"""Fleet observability plane: federation, migration spans, SLO rollups.

The per-device pillars (metrics registry, telemetry windows, SLO
watchdog, flight recorder) each see exactly one SSD.  This module is the
layer above a :class:`repro.ssd.fleet.Fleet`:

* :class:`FleetRegistry` federates per-device
  :class:`~repro.obs.registry.MetricsRegistry` instances into one rollup
  registry — counters summed, fixed-bucket histograms merged exactly
  (element-wise bucket sums, the same delta-friendly representation the
  telemetry sink windows), and per-device health gauges derived from
  the device's fault telemetry (fleets run no keeper handle; a
  ``keeper.fallbacks`` counter, when a keeper shares the device's
  registry, halves the score);
* :class:`FleetObserver` attaches to a fleet's hooks: every completed
  request feeds ``fleet.*`` counters, and each migration becomes a
  first-class ``tenant_migration`` trace span running from drain-start
  to the tenant's first completion on the destination device;
* :class:`FleetSloRollup` sits above the per-device
  :class:`~repro.obs.slo.SloWatchdog` instances: each device window's
  per-objective violation fractions feed fleet-level fast/slow burn
  rates (mean across reporting devices), and a fleet page — budget
  exhaustion across the fleet — dumps a flight-recorder bundle naming
  the offending device (the one with the worst fast burn);
* :func:`build_fleet_report` / :func:`load_fleet` — the schema-versioned
  ``fleet_report.json`` writer and its validating reader (declared once
  as :data:`FLEET_SCHEMA`).

Everything here is deterministic and carries no wall-clock timestamps:
two runs of the same seeded scenario produce byte-identical reports.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..schema import Schema, write_json
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .slo import SloSpec, SloWatchdog, burn_rates, escalate
from .trace import NULL_RECORDER

__all__ = [
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
]

FLEET_SCHEMA_VERSION = 1

FLEET_SCHEMA = Schema(
    "fleet document", FLEET_SCHEMA_VERSION,
    required=(
        "seed", "devices", "placement", "migrations", "rollup", "alerts",
        "scenario",
    ),
)

# ----------------------------------------------------------------------
# Metric federation
# ----------------------------------------------------------------------

def merge_histograms(name: str, histograms: Sequence[Histogram]) -> Histogram:
    """Exact federation of fixed-bucket histograms (same bounds required).

    Bucket counts add element-wise — the merged histogram is *exactly*
    the histogram a single registry would have produced had it observed
    every device's samples, because the bucket representation is a sum
    of indicator counts.  Percentiles remain bucket-interpolated
    estimates, but ``count``/``total``/``min``/``max`` and every bucket
    are exact.
    """
    if not histograms:
        raise ValueError("need at least one histogram to merge")
    bounds = histograms[0].bounds
    for hist in histograms[1:]:
        if hist.bounds != bounds:
            raise ValueError(
                f"cannot merge histograms with differing bounds for {name!r}"
            )
    out = Histogram(name, bounds)
    out.counts = [sum(cs) for cs in zip(*(h.counts for h in histograms))]
    out.count = sum(h.count for h in histograms)
    out.total = sum(h.total for h in histograms)
    out.dropped = sum(h.dropped for h in histograms)
    observed = [h for h in histograms if h.count]
    if observed:
        out.min = min(h.min for h in observed)
        out.max = max(h.max for h in observed)
    return out


def device_health(registry: MetricsRegistry) -> float:
    """Health score in [0, 1] for one device registry.

    The unrecoverable-read fraction (``sim.failed_reads`` over
    ``sim.requests``) scales the score down linearly, and a keeper that
    has fallen back on the device's registry (``keeper.fallbacks`` > 0)
    halves it.  A device with no fallbacks and no faults scores 1.0.
    """
    requests = registry.get("sim.requests")
    failed = registry.get("sim.failed_reads")
    served = requests.value if isinstance(requests, Counter) else 0
    lost = failed.value if isinstance(failed, Counter) else 0
    failed_fraction = (lost / served) if served > 0 else (1.0 if lost else 0.0)
    fallbacks = registry.get("keeper.fallbacks")
    keeper_ok = not (isinstance(fallbacks, Counter) and fallbacks.value > 0)
    score = (1.0 if keeper_ok else 0.5) * (1.0 - failed_fraction)
    return max(0.0, min(1.0, score))


class FleetRegistry:
    """Federates per-device registries into fleet-level rollups.

    Holds a live fleet registry (``fleet.*`` counters the observer and
    rollup publish into) plus handles to every attached device registry;
    :meth:`federate` materialises the merged view on demand.
    """

    def __init__(self) -> None:
        #: live fleet-level metrics (``fleet.requests``,
        #: ``fleet.migrations``, ``fleet.slo.*``)
        self.fleet = MetricsRegistry()
        self.devices: dict[int, MetricsRegistry] = {}

    def attach(self, device_id: int, registry: MetricsRegistry) -> None:
        """Register one device's metrics registry for federation."""
        if device_id in self.devices:
            raise ValueError(f"device {device_id} already attached")
        self.devices[device_id] = registry

    def health(self) -> dict[int, float]:
        """Per-device health scores (see :func:`device_health`)."""
        return {
            dev: device_health(reg) for dev, reg in sorted(self.devices.items())
        }

    def federate(self) -> MetricsRegistry:
        """Merge every attached device registry into one rollup registry.

        Counters with the same name sum across devices; histograms merge
        exactly (see :func:`merge_histograms`); per-device health gauges
        land under ``fleet.device.<id>.health``.  Live fleet-level
        metrics are copied in last so they cannot be shadowed by device
        metrics.
        """
        out = MetricsRegistry()
        by_name: dict[str, list] = {}
        for _, registry in sorted(self.devices.items()):
            for name in registry.names():
                by_name.setdefault(name, []).append(registry.get(name))
        for name, metrics in sorted(by_name.items()):
            first = metrics[0]
            if isinstance(first, Counter):
                out.counter(name).value = sum(m.value for m in metrics)
            elif isinstance(first, Histogram):
                merged = merge_histograms(name, metrics)
                target = out.histogram(name, merged.bounds)
                target.counts = list(merged.counts)
                target.count = merged.count
                target.total = merged.total
                target.min = merged.min
                target.max = merged.max
                target.dropped = merged.dropped
            # gauges/series are last-value or per-run shapes that do not
            # federate meaningfully; device health below covers the
            # gauges the fleet actually rolls up
        for dev, score in self.health().items():
            out.gauge(f"fleet.device.{dev}.health").set(score)
        out.counter("fleet.devices").value = len(self.devices)
        for name in self.fleet.names():
            metric = self.fleet.get(name)
            if isinstance(metric, Counter):
                out.counter(name).value = metric.value
            elif isinstance(metric, Gauge):
                out.gauge(name).set(metric.value)
        return out


# ----------------------------------------------------------------------
# Fleet-level SLO rollup
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetSloAlert:
    """One edge-triggered fleet-level burn alert.

    ``device`` is the offending device — the one with the worst fast
    burn for the objective when the alert fired.
    """

    time_us: float
    severity: str  # "warn" | "page"
    objective: str
    device: int
    fleet_fast_burn: float
    fleet_slow_burn: float
    allowed_fraction: float
    device_fast_burns: dict

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "severity": self.severity,
            "objective": self.objective,
            "device": self.device,
            "fleet_fast_burn": self.fleet_fast_burn,
            "fleet_slow_burn": self.fleet_slow_burn,
            "allowed_fraction": self.allowed_fraction,
            "device_fast_burns": {
                str(d): b for d, b in sorted(self.device_fast_burns.items())
            },
        }


class _RollupFeed:
    """Telemetry-sink watchdog adapter: device watchdog, then rollup.

    Installed as ``sink.watchdog`` so each device window is evaluated by
    the device's own :class:`SloWatchdog` first (per-device alerts keep
    working) and its per-objective violation fractions are then folded
    into the fleet rollup.
    """

    __slots__ = ("_device_id", "_watchdog", "_rollup")

    def __init__(self, device_id: int, watchdog: SloWatchdog,
                 rollup: "FleetSloRollup") -> None:
        self._device_id = device_id
        self._watchdog = watchdog
        self._rollup = rollup

    def observe(self, window: dict) -> list:
        raised = self._watchdog.observe(window)
        self._rollup.on_window(self._device_id, window, self._watchdog)
        return raised


class FleetSloRollup:
    """Aggregates per-device burn inputs into fleet-wide alerting.

    Each device window contributes its objectives' latest violation
    fractions (``SloWatchdog.latest_fractions``).  Per objective, the
    fleet keeps one trailing deque per device (slow-window length) and
    computes fleet fast/slow burns as the mean of the per-device burns
    across devices that have reported.  Severity and its edge trigger
    per objective are the per-device watchdog's rule
    (:func:`~repro.obs.slo.escalate`); a page dumps a flight bundle
    naming the offending device.
    """

    def __init__(self, spec: SloSpec, *, registry=None, trace=None,
                 flight_recorder=None) -> None:
        self.spec = spec
        self.alerts: list[FleetSloAlert] = []
        self.windows_observed = 0
        self._registry = registry
        self._trace = trace if trace is not None and trace.enabled else None
        self._flight_recorder = flight_recorder
        #: objective -> device -> trailing violation fractions
        self._fractions: dict[str, dict[int, deque]] = {}
        self._allowed: dict[str, float] = {}
        self._state: dict[str, str] = {}

    def feed(self, device_id: int, watchdog: SloWatchdog) -> _RollupFeed:
        """Adapter to install as a telemetry sink's ``watchdog``."""
        return _RollupFeed(device_id, watchdog, self)

    # ------------------------------------------------------------------
    def on_window(self, device_id: int, window: dict,
                  watchdog: SloWatchdog) -> list[FleetSloAlert]:
        """Fold one device window into the fleet burn state."""
        self.windows_observed += 1
        if self._registry is not None:
            self._registry.counter("fleet.slo.windows").inc()
        slow_n = self.spec.slow.windows
        for name, fraction, allowed in watchdog.latest_fractions():
            per_device = self._fractions.setdefault(name, {})
            trail = per_device.get(device_id)
            if trail is None:
                trail = deque(maxlen=slow_n)
                per_device[device_id] = trail
            trail.append(fraction)
            self._allowed[name] = allowed
        return self._evaluate(window)

    def _evaluate(self, window: dict) -> list[FleetSloAlert]:
        fast_n = self.spec.fast.windows
        raised: list[FleetSloAlert] = []
        for name, per_device in sorted(self._fractions.items()):
            allowed = self._allowed[name]
            device_fast: dict[int, float] = {}
            fast_burns: list[float] = []
            slow_burns: list[float] = []
            for dev, trail in sorted(per_device.items()):
                fast_burn, slow_burn = burn_rates(trail, fast_n, allowed)
                device_fast[dev] = fast_burn
                fast_burns.append(fast_burn)
                slow_burns.append(slow_burn)
            fleet_fast = sum(fast_burns) / len(fast_burns)
            fleet_slow = sum(slow_burns) / len(slow_burns)
            severity, escalated = escalate(
                self.spec, fleet_fast, fleet_slow, self._state.get(name, "ok")
            )
            if escalated:
                worst = max(
                    sorted(device_fast), key=lambda d: device_fast[d]
                )
                alert = FleetSloAlert(
                    time_us=window["t_end_us"],
                    severity=severity,
                    objective=name,
                    device=worst,
                    fleet_fast_burn=fleet_fast,
                    fleet_slow_burn=fleet_slow,
                    allowed_fraction=allowed,
                    device_fast_burns=dict(device_fast),
                )
                raised.append(alert)
                self._emit(alert)
            self._state[name] = severity
        return raised

    def _emit(self, alert: FleetSloAlert) -> None:
        self.alerts.append(alert)
        if self._registry is not None:
            self._registry.counter(f"fleet.slo.{alert.severity}_alerts").inc()
        if self._trace is not None:
            self._trace.emit(
                alert.time_us, "fleet_slo_alert", alert.objective, "fleet",
                args={
                    "severity": alert.severity,
                    "device": alert.device,
                    "fleet_fast_burn": alert.fleet_fast_burn,
                    "fleet_slow_burn": alert.fleet_slow_burn,
                },
            )
        if alert.severity == "page" and self._flight_recorder is not None:
            self._flight_recorder.dump_once(
                "fleet-slo-page",
                detail=(
                    f"{alert.objective} fleet budget exhausted: device "
                    f"{alert.device} fast_burn="
                    f"{alert.device_fast_burns[alert.device]:.2f} (fleet "
                    f"fast={alert.fleet_fast_burn:.2f} "
                    f"slow={alert.fleet_slow_burn:.2f})"
                ),
                time_us=alert.time_us,
                alert=alert.to_dict(),
            )

    def summary(self) -> dict:
        """Plain-data rollup for reports and ``--json`` output."""
        return {
            "windows": self.windows_observed,
            "warn_alerts": sum(
                1 for a in self.alerts if a.severity == "warn"
            ),
            "page_alerts": sum(
                1 for a in self.alerts if a.severity == "page"
            ),
            "alerts": [a.to_dict() for a in self.alerts],
        }


# ----------------------------------------------------------------------
# The observer that ties a Fleet to the plane above it
# ----------------------------------------------------------------------

class _FleetBundle:
    """Minimal ``Observability``-shaped handle for the flight recorder.

    Gives a fleet-level :class:`~repro.obs.flightrecorder.FlightRecorder`
    the attributes its dump path reads (registry/trace; the per-request
    pillars stay ``None`` at fleet scope) without importing the facade —
    ``repro.obs.fleet`` must stay import-light under ``repro.obs``.
    """

    __slots__ = ("registry", "trace", "attribution", "slo", "telemetry")

    def __init__(self, registry, trace) -> None:
        self.registry = registry
        self.trace = trace
        self.attribution = None
        self.slo = None
        self.telemetry = None


class FleetObserver:
    """Attaches the observability plane to a fleet's hooks.

    Parameters
    ----------
    fleet:
        the :class:`repro.ssd.fleet.Fleet` to observe (hooks are
        installed on construction; build the observer before ``run``).
    device_bundles:
        per-device :class:`~repro.obs.Observability` bundles (``None``
        entries for unobserved devices), index = device id.
    slo:
        optional fleet :class:`SloSpec`; when given, every device bundle
        carrying a telemetry sink and watchdog is re-wired through
        :class:`FleetSloRollup` so fleet burn rates aggregate.
    trace:
        optional fleet-level :class:`~repro.obs.trace.TraceRecorder` for
        ``tenant_migration`` / ``fleet_slo_alert`` spans (defaults to
        the null recorder).
    flight_recorder:
        optional fleet-level
        :class:`~repro.obs.flightrecorder.FlightRecorder`; fleet pages
        dump bundles here naming the offending device.
    """

    def __init__(self, fleet, device_bundles: Sequence, *, slo=None,
                 trace=None, flight_recorder=None) -> None:
        self.fleet = fleet
        self.device_bundles = list(device_bundles)
        if len(self.device_bundles) != len(fleet.sims):
            raise ValueError(
                f"{len(self.device_bundles)} bundles for "
                f"{len(fleet.sims)} devices"
            )
        self.registry = FleetRegistry()
        self.trace = trace if trace is not None else NULL_RECORDER
        self.flight_recorder = flight_recorder
        if flight_recorder is not None:
            flight_recorder.obs = _FleetBundle(self.registry.fleet, self.trace)
        self.rollup: FleetSloRollup | None = None
        if slo is not None:
            self.rollup = FleetSloRollup(
                slo,
                registry=self.registry.fleet,
                trace=self.trace,
                flight_recorder=flight_recorder,
            )
        for dev_id, bundle in enumerate(self.device_bundles):
            if bundle is None:
                continue
            self.registry.attach(dev_id, bundle.registry)
            if (
                self.rollup is not None
                and bundle.telemetry is not None
                and bundle.slo is not None
            ):
                bundle.telemetry.watchdog = self.rollup.feed(
                    dev_id, bundle.slo
                )
        self.registry.fleet.counter("fleet.devices").value = len(fleet.sims)
        fleet.on_complete = self._on_complete
        fleet.on_migration = self._on_migration
        fleet.on_migration_complete = self._on_migration_complete

    # ------------------------------------------------------------------
    def _on_complete(self, device_id: int, req) -> None:
        self.registry.fleet.counter("fleet.requests").inc()

    def _on_migration(self, record) -> None:
        self.registry.fleet.counter("fleet.migrations").inc()

    def _on_migration_complete(self, record) -> None:
        if self.trace.enabled:
            self.trace.emit(
                record.start_us, "tenant_migration",
                f"tenant{record.tenant}", "fleet",
                dur_us=record.span_us,
                args={
                    "tenant": record.tenant,
                    "src": record.src,
                    "dst": record.dst,
                    "requests_replayed": record.requests_replayed,
                },
            )

    def alerts(self) -> list[FleetSloAlert]:
        """Fleet rollup alerts raised so far (empty without an SLO)."""
        return list(self.rollup.alerts) if self.rollup is not None else []


# ----------------------------------------------------------------------
# fleet_report.json — schema-versioned writer and validating reader
# ----------------------------------------------------------------------

def _op_stats_dict(stats) -> dict:
    """Plain-data view of one :class:`~repro.ssd.metrics.OpStats`."""
    return {
        "count": stats.count,
        "mean_us": stats.mean_us,
        "min_us": stats.min_us if stats.count else 0.0,
        "max_us": stats.max_us,
        "p95_us": (
            stats.percentile(95) if stats.samples is not None else None  # repro-lint: disable=R001 (OpStats.percentile returns microseconds)
        ),
        "p99_us": (
            stats.percentile(99) if stats.samples is not None else None  # repro-lint: disable=R001 (OpStats.percentile returns microseconds)
        ),
    }


def build_fleet_report(fleet_result, *, seed: int, observer=None,
                       scenario: Mapping | None = None) -> dict:
    """Assemble the ``fleet_report.json`` document.

    Deterministic by construction: no wall-clock timestamps, every
    mapping key sorted at serialisation time, all content derived from
    the seeded run.  ``observer`` (a :class:`FleetObserver`) adds the
    federated rollup section and fleet SLO alerts.
    """
    devices = []
    for dev, result in enumerate(fleet_result.results):
        per_tenant = fleet_result.completions[dev]
        devices.append({
            "device": dev,
            "summary": result.summary(),
            "requests": result.requests,
            "subrequests": result.subrequests,
            "failed_reads": result.failed_reads,
            "makespan_us": result.makespan_us,
            "total_latency_us": result.total_latency_us,
            "gc_collections": result.gc_collections,
            "gc_pages_moved": result.gc_pages_moved,
            "read": _op_stats_dict(result.read),
            "write": _op_stats_dict(result.write),
            "tenants": {
                str(t): count for t, count in sorted(per_tenant.items())
            },
        })
    rollup = None
    alerts: list[dict] = []
    if observer is not None:
        rollup = observer.registry.federate().snapshot()
        rollup["health"] = {
            str(d): score for d, score in observer.registry.health().items()
        }
        alerts = [a.to_dict() for a in observer.alerts()]
        if observer.rollup is not None:
            rollup["slo"] = {
                "windows": observer.rollup.windows_observed,
                "warn_alerts": sum(
                    1 for a in observer.rollup.alerts
                    if a.severity == "warn"
                ),
                "page_alerts": sum(
                    1 for a in observer.rollup.alerts
                    if a.severity == "page"
                ),
            }
    return FLEET_SCHEMA.stamp(
        seed=seed,
        devices=devices,
        placement={
            "initial": {
                str(t): d
                for t, d in sorted(fleet_result.placement_initial.items())
            },
            "final": {
                str(t): d
                for t, d in sorted(fleet_result.placement_final.items())
            },
        },
        migrations=[m.to_dict() for m in fleet_result.migrations],
        rollup=rollup,
        alerts=alerts,
        scenario=dict(scenario) if scenario is not None else None,
    )


def load_fleet(doc: dict) -> dict:
    """Validate a fleet report produced by :func:`build_fleet_report`.

    The round-trip reader for the fleet schema: refuses version
    mismatches and structurally truncated documents so downstream
    consumers never operate on half a report.
    """
    FLEET_SCHEMA.load(doc)
    for entry in doc["devices"]:
        if not isinstance(entry.get("device"), int):
            raise ValueError("fleet document has a malformed device entry")
    for migration in doc["migrations"]:
        span = migration.get("span_us")
        if span is not None and (
            not isinstance(span, (int, float)) or not math.isfinite(span)
        ):
            raise ValueError(
                "fleet document has a non-finite migration span"
            )
    return doc


def write_fleet_report(doc: dict, path) -> None:
    """Serialise a validated report deterministically (sorted keys)."""
    load_fleet(doc)
    write_json(path, doc)
