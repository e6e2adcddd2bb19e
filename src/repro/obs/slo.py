"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` declares service-level objectives for a run —
per-tenant latency percentile targets, a failed-read budget, a GC-stall
fraction ceiling, and a keeper prediction-health floor.  An
:class:`SloWatchdog` evaluates the spec against every telemetry window
(:mod:`repro.obs.telemetry`) using the SRE burn-rate recipe: each
objective's **violation fraction** per window is averaged over a *fast*
and a *slow* trailing window set, normalised by the objective's allowed
fraction, and compared against warn/page burn thresholds.  Alerts are
edge-triggered (one alert per escalation; a downgrade re-arms), surface
as ``slo.*`` counters and ``slo_alert`` trace events, and a page-severity
alert hands a reproducible bundle to the flight recorder
(:mod:`repro.obs.flightrecorder`).

Violation fractions per objective kind:

* latency targets — fraction of the window's samples in histogram
  buckets whose *upper* bound exceeds the target (conservative: a bucket
  straddling the target counts as violating; exact when targets sit on
  bucket boundaries), allowed fraction 0.05 for p95 / 0.01 for p99;
* failed-read budget — failed reads over completed requests, the budget
  itself being the allowed fraction;
* GC stall — GC-busy die time over total die time, the configured
  ceiling being the allowed fraction;
* keeper health — binary: a window with any keeper fallback violates,
  allowed fraction ``1 - keeper_health_floor``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from ..schema import Schema

__all__ = [
    "BurnWindow",
    "SloAlert",
    "SloSpec",
    "SloSpecError",
    "SloWatchdog",
    "SLO_SCHEMA_VERSION",
    "TENANT_TARGET_KEYS",
]

SLO_SCHEMA_VERSION = 1

#: a spec without a version is read as the current one
SLO_SCHEMA = Schema(
    "spec", SLO_SCHEMA_VERSION,
    optional=(
        "window_us", "tenants", "failed_read_budget", "gc_stall_fraction",
        "keeper_health_floor", "burn",
    ),
    closed=True,
    version_required=False,
)

#: recognised per-tenant latency targets -> allowed violation fraction
TENANT_TARGET_KEYS: dict[str, float] = {
    "read_p95_us": 0.05,
    "read_p99_us": 0.01,
    "write_p95_us": 0.05,
    "write_p99_us": 0.01,
}

_SEVERITY_RANK = {"ok": 0, "warn": 1, "page": 2}


class SloSpecError(ValueError):
    """Named spec-validation failure; ``code`` is machine-readable."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate evaluation horizon (a count of telemetry windows)."""

    windows: int
    warn_burn: float
    page_burn: float

    def validate(self, label: str) -> None:
        if not isinstance(self.windows, int) or self.windows < 1:
            raise SloSpecError(
                "bad-spec", f"{label}.windows must be a positive integer"
            )
        if self.warn_burn <= 0 or self.page_burn <= 0:
            raise SloSpecError(
                "non-positive-target", f"{label} burn thresholds must be > 0"
            )
        if self.warn_burn > self.page_burn:
            raise SloSpecError(
                "bad-spec", f"{label}.warn_burn must not exceed page_burn"
            )


@dataclass(frozen=True)
class SloSpec:
    """Validated, immutable SLO declaration for one run."""

    window_us: float
    tenants: dict = field(default_factory=dict)
    failed_read_budget: "float | None" = None
    gc_stall_fraction: "float | None" = None
    keeper_health_floor: "float | None" = None
    fast: BurnWindow = BurnWindow(windows=3, warn_burn=2.0, page_burn=6.0)
    slow: BurnWindow = BurnWindow(windows=12, warn_burn=1.0, page_burn=3.0)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict, *, known_tenants=None) -> "SloSpec":
        """Build and validate a spec from plain data (see examples/slo.json).

        ``known_tenants``, when given, is the set of workload ids the run
        actually has; a spec naming any other tenant is rejected with the
        ``unknown-tenant`` error code.
        """
        try:
            SLO_SCHEMA.load(data)
        except ValueError as exc:
            raise SloSpecError("bad-spec", str(exc)) from None
        window_us = data.get("window_us")  # repro-lint: disable=R001 (spec field window_us is documented as microseconds)
        if not isinstance(window_us, (int, float)) or window_us <= 0:
            raise SloSpecError(
                "non-positive-target", "window_us must be a positive number"
            )
        tenants: dict[int, dict[str, float]] = {}
        for raw_wid, targets in (data.get("tenants") or {}).items():
            try:
                wid = int(raw_wid)
            except (TypeError, ValueError):
                raise SloSpecError(
                    "unknown-tenant", f"tenant id {raw_wid!r} is not an integer"
                ) from None
            if known_tenants is not None and wid not in known_tenants:
                raise SloSpecError(
                    "unknown-tenant",
                    f"tenant {wid} not in run tenants {sorted(known_tenants)}",
                )
            if not isinstance(targets, dict):
                raise SloSpecError(
                    "bad-spec", f"tenant {wid} targets must be an object"
                )
            bad = set(targets) - set(TENANT_TARGET_KEYS)
            if bad:
                raise SloSpecError(
                    "bad-spec",
                    f"tenant {wid} has unknown targets: {sorted(bad)}",
                )
            for key, value in targets.items():
                if not isinstance(value, (int, float)) or value <= 0:
                    raise SloSpecError(
                        "non-positive-target",
                        f"tenant {wid} target {key} must be > 0",
                    )
            tenants[wid] = {k: float(v) for k, v in targets.items()}
        for key in ("failed_read_budget", "gc_stall_fraction",
                    "keeper_health_floor"):
            value = data.get(key)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or not 0 < value <= 1:
                raise SloSpecError(
                    "non-positive-target", f"{key} must be in (0, 1]"
                )
        burn = data.get("burn") or {}
        fast = _burn_window(burn.get("fast"), cls.fast, "burn.fast")
        slow = _burn_window(burn.get("slow"), cls.slow, "burn.slow")
        fast.validate("burn.fast")
        slow.validate("burn.slow")
        if fast.windows >= slow.windows:
            raise SloSpecError(
                "overlapping-burn-windows",
                f"fast window ({fast.windows}) must be strictly shorter "
                f"than slow window ({slow.windows})",
            )
        return cls(
            window_us=float(window_us),
            tenants=tenants,
            failed_read_budget=data.get("failed_read_budget"),
            gc_stall_fraction=data.get("gc_stall_fraction"),
            keeper_health_floor=data.get("keeper_health_floor"),
            fast=fast,
            slow=slow,
        )

    @classmethod
    def load(cls, path) -> "SloSpec":
        """Load and validate a JSON spec file."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SloSpecError("bad-spec", f"invalid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return SLO_SCHEMA.stamp(
            window_us=self.window_us,
            tenants={str(w): dict(t) for w, t in self.tenants.items()},
            failed_read_budget=self.failed_read_budget,
            gc_stall_fraction=self.gc_stall_fraction,
            keeper_health_floor=self.keeper_health_floor,
            burn={
                "fast": vars(self.fast).copy(),
                "slow": vars(self.slow).copy(),
            },
        )


def _burn_window(raw, default: BurnWindow, label: str) -> BurnWindow:
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise SloSpecError("bad-spec", f"{label} must be an object")
    bad = set(raw) - {"windows", "warn_burn", "page_burn"}
    if bad:
        raise SloSpecError("bad-spec", f"{label} unknown keys: {sorted(bad)}")
    return BurnWindow(
        windows=raw.get("windows", default.windows),
        warn_burn=float(raw.get("warn_burn", default.warn_burn)),
        page_burn=float(raw.get("page_burn", default.page_burn)),
    )


@dataclass(frozen=True)
class SloAlert:
    """One edge-triggered burn-rate alert."""

    time_us: float
    window_seq: int
    severity: str  # "warn" | "page"
    objective: str  # e.g. "tenant0.read_p95_us", "gc_stall"
    tenant: "int | None"
    fast_burn: float
    slow_burn: float
    violation_fraction: float
    allowed_fraction: float

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "window_seq": self.window_seq,
            "severity": self.severity,
            "objective": self.objective,
            "tenant": self.tenant,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "violation_fraction": self.violation_fraction,
            "allowed_fraction": self.allowed_fraction,
        }


class _Objective:
    """Burn-rate state for one SLO objective."""

    __slots__ = ("name", "tenant", "allowed", "fractions", "state", "_frac_fn")

    def __init__(self, name, tenant, allowed, frac_fn, slow_windows) -> None:
        self.name = name
        self.tenant = tenant
        self.allowed = allowed
        self.fractions = deque(maxlen=slow_windows)
        self.state = "ok"
        self._frac_fn = frac_fn

    def violation_fraction(self, window: dict) -> float:
        return self._frac_fn(window)


class SloWatchdog:
    """Evaluates an :class:`SloSpec` against each telemetry window."""

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.alerts: list[SloAlert] = []
        self.windows_evaluated = 0
        #: output sinks, attached by :meth:`bind`
        self._registry = None
        self._trace = None
        self._flight_recorder = None
        self._objectives = self._build_objectives(spec)

    def bind(self, *, registry=None, trace=None, flight_recorder=None) -> None:
        """Attach output sinks (any may stay ``None``)."""
        if registry is not None:
            self._registry = registry
        if trace is not None:
            self._trace = trace if trace.enabled else None
        if flight_recorder is not None:
            self._flight_recorder = flight_recorder

    # ------------------------------------------------------------------
    def _build_objectives(self, spec: SloSpec) -> list[_Objective]:
        objectives: list[_Objective] = []
        slow = spec.slow.windows
        for wid, targets in sorted(spec.tenants.items()):
            for key, target in sorted(targets.items()):
                kind = "read" if key.startswith("read") else "write"
                hist_name = f"sim.tenant.{wid}.{kind}_latency_us"
                objectives.append(_Objective(
                    f"tenant{wid}.{key}", wid, TENANT_TARGET_KEYS[key],
                    _latency_fraction_fn(hist_name, target), slow,
                ))
        if spec.failed_read_budget is not None:
            objectives.append(_Objective(
                "failed_reads", None, spec.failed_read_budget,
                _failed_read_fraction, slow,
            ))
        if spec.gc_stall_fraction is not None:
            objectives.append(_Objective(
                "gc_stall", None, spec.gc_stall_fraction,
                _gc_stall_fraction, slow,
            ))
        if spec.keeper_health_floor is not None:
            objectives.append(_Objective(
                "keeper_health", None, 1.0 - spec.keeper_health_floor,
                _keeper_violation, slow,
            ))
        return objectives

    # ------------------------------------------------------------------
    def observe(self, window: dict) -> None:
        """Fold one telemetry window in; the alerts it raises go to
        :attr:`alerts` and the bound sinks.

        The dual-window burn-rate rule: an objective's fast burn is its
        mean violation fraction over the newest ``spec.fast.windows``
        windows, its slow burn the mean over its whole trail, each divided
        by the allowed fraction.  A severity needs both burns at or above
        its thresholds (page before warn, else ``"ok"``); an alert is
        raised only on the edge where the severity climbs above the
        objective's severity after the previous window.
        """
        self.windows_evaluated += 1
        if self._registry is not None:
            self._registry.counter("slo.windows").inc()
        fast, slow = self.spec.fast, self.spec.slow
        for obj in self._objectives:
            fraction = obj.violation_fraction(window)
            obj.fractions.append(fraction)
            trail = list(obj.fractions)
            newest = trail[-fast.windows:]
            fast_burn = sum(newest) / len(newest) / obj.allowed
            slow_burn = sum(trail) / len(trail) / obj.allowed
            if fast_burn >= fast.page_burn and slow_burn >= slow.page_burn:
                severity = "page"
            elif fast_burn >= fast.warn_burn and slow_burn >= slow.warn_burn:
                severity = "warn"
            else:
                severity = "ok"
            if _SEVERITY_RANK[severity] > _SEVERITY_RANK[obj.state]:
                self._emit(SloAlert(
                    time_us=window["t_end_us"],
                    window_seq=window["seq"],
                    severity=severity,
                    objective=obj.name,
                    tenant=obj.tenant,
                    fast_burn=fast_burn,
                    slow_burn=slow_burn,
                    violation_fraction=fraction,
                    allowed_fraction=obj.allowed,
                ))
            obj.state = severity

    def _emit(self, alert: SloAlert) -> None:
        self.alerts.append(alert)
        if self._registry is not None:
            self._registry.counter(f"slo.{alert.severity}_alerts").inc()
        if self._trace is not None:
            self._trace.emit(
                alert.time_us, "slo_alert", alert.objective, "slo",
                args={
                    "severity": alert.severity,
                    "fast_burn": alert.fast_burn,
                    "slow_burn": alert.slow_burn,
                },
            )
        if alert.severity == "page" and self._flight_recorder is not None:
            self._flight_recorder.dump_once(
                "slo-page",
                detail=f"{alert.objective} fast_burn={alert.fast_burn:.2f} "
                       f"slow_burn={alert.slow_burn:.2f}",
                time_us=alert.time_us,
                alert=alert.to_dict(),
            )

    def summary(self) -> dict:
        """Plain-data rollup for exports and ``--json`` output."""
        return {
            "windows": self.windows_evaluated,
            "warn_alerts": sum(
                1 for a in self.alerts if a.severity == "warn"
            ),
            "page_alerts": sum(
                1 for a in self.alerts if a.severity == "page"
            ),
            "alerts": [a.to_dict() for a in self.alerts],
        }


# ----------------------------------------------------------------------
# violation-fraction extractors (window dict -> fraction in [0, inf))

def _latency_fraction_fn(hist_name: str, target_us: float):
    def fraction(window: dict) -> float:
        hist = window["histograms"].get(hist_name)
        if not hist or hist["count"] <= 0:
            return 0.0
        bounds = hist["bounds"]
        violating = 0
        for i, n in enumerate(hist["buckets"]):
            upper = bounds[i] if i < len(bounds) else None
            if upper is None or upper > target_us:
                violating += n
        return violating / hist["count"]

    return fraction


def _failed_read_fraction(window: dict) -> float:
    counters = window["counters"]
    failed = counters.get("sim.failed_reads", 0)
    completed = counters.get("sim.requests", 0)
    if completed <= 0:
        return 1.0 if failed else 0.0
    return failed / completed


def _gc_stall_fraction(window: dict) -> float:
    gc = window.get("resources", {}).get("gc_busy_us")
    if not gc:
        return 0.0
    span = window["t_end_us"] - window["t_start_us"]
    if span <= 0:
        return 0.0
    return sum(gc) / (span * len(gc))


def _keeper_violation(window: dict) -> float:
    return 1.0 if window["counters"].get("keeper.fallbacks", 0) > 0 else 0.0
