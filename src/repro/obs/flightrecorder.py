"""Failure flight recorder: reproducible debug bundles.

When a run trips — a :class:`~repro.analysis.sanitizer.SanitizerError`,
a page-severity SLO alert, or an unrecoverable read — the
:class:`FlightRecorder` dumps a self-contained bundle directory holding
everything needed to reproduce and diagnose the failure offline:

* ``manifest.json`` — schema version, trigger, run context (full config
  + seeds as recorded by the caller), and the **exact CLI command** that
  replays the failing run deterministically;
* ``metrics.json`` — full registry snapshot at dump time;
* ``trace.jsonl`` — the last-N ring events from the trace recorder;
* ``attribution_tail.json`` — the most recent attributed requests;
* ``alerts.json`` — every SLO alert so far plus the triggering one;
* ``telemetry_tail.json`` — the most recent telemetry windows;
* ``sanitizer_events.json`` — the sanitizer's recent-event ring;
* ``critpath.json`` — the bottleneck report at trigger time (which
  resource the critical path was bound by when things went wrong),
  extracted from the attribution records when attribution is armed.

Sections whose source is not attached are simply omitted (and listed as
absent in the manifest).  Dumping writes files only — it schedules no
simulation events and draws no randomness, so an armed recorder never
perturbs a run.
"""

from __future__ import annotations

import json
import shlex
from pathlib import Path

from ..schema import Schema

__all__ = ["FlightRecorder", "FLIGHT_SCHEMA_VERSION", "load_manifest"]

FLIGHT_SCHEMA_VERSION = 1

#: the bundle manifest (replay tooling reads it back from bundle directories)
FLIGHT_SCHEMA = Schema(
    "bundle manifest", FLIGHT_SCHEMA_VERSION,
    required=(
        "trigger", "detail", "time_us", "context", "replay", "bundle_files",
    ),
)


#: how many of the most recent trace events, attributed requests and
#: telemetry windows a bundle keeps
_TRACE_TAIL = 512
_ATTRIBUTION_TAIL = 64
_TELEMETRY_TAIL = 32


def load_manifest(bundle_dir) -> dict:
    """Read and validate ``manifest.json`` from a flight bundle directory.

    The round-trip reader for bundle manifests: refuses version
    mismatches and truncated manifests so replay commands are never
    assembled from half a bundle.
    """
    with open(Path(bundle_dir) / "manifest.json", encoding="utf-8") as fh:
        return FLIGHT_SCHEMA.load(json.load(fh))


class FlightRecorder:
    """Dump-on-failure bundle writer (one directory per trigger)."""

    def __init__(self, out_dir, *, context=None, replay_argv=None,
                 explain_argv=None) -> None:
        self.out_dir = Path(out_dir)
        #: caller-supplied run description (config, seeds, scenario name…)
        self.context = dict(context) if context else {}
        #: exact argv that reproduces this run (``None`` = not replayable)
        self.replay_argv = list(replay_argv) if replay_argv else None
        #: argv of the ``repro explain`` invocation that diagnoses this
        #: run's bottleneck offline (``None`` = no canned explainer)
        self.explain_argv = list(explain_argv) if explain_argv else None
        #: set by :class:`repro.obs.Observability` when carried by one
        self.obs = None
        #: set by the device probe when a sanitizer is attached
        self.sanitizer = None
        #: bundle directories written so far, oldest first
        self.bundles: list[Path] = []
        self._triggered: set[str] = set()

    # ------------------------------------------------------------------
    def dump_once(self, trigger: str, detail: str = "", *,
                  time_us: float = 0.0, alert=None) -> "Path | None":
        """Dump at most one bundle per trigger kind; None if already done."""
        if trigger in self._triggered:
            return None
        return self.dump(trigger, detail, time_us=time_us, alert=alert)

    def dump(self, trigger: str, detail: str = "", *,
             time_us: float = 0.0, alert=None) -> Path:
        """Write one bundle directory and return its path."""
        self._triggered.add(trigger)
        bundle = self.out_dir / f"bundle-{len(self.bundles):02d}-{trigger}"
        bundle.mkdir(parents=True, exist_ok=True)
        files = ["manifest.json"]
        obs = self.obs
        if obs is not None:
            _write_json(bundle / "metrics.json", obs.registry.snapshot())
            files.append("metrics.json")
            if obs.trace is not None and obs.trace.enabled:
                events = obs.trace.events()[-_TRACE_TAIL:]
                with open(bundle / "trace.jsonl", "w", encoding="utf-8") as fh:
                    for ev in events:
                        fh.write(json.dumps(ev.to_dict()) + "\n")
                files.append("trace.jsonl")
            if obs.attribution is not None:
                records = obs.attribution.records
                tail = records[-_ATTRIBUTION_TAIL:]
                _write_json(
                    bundle / "attribution_tail.json",
                    [rec.to_dict() for rec in tail],
                )
                files.append("attribution_tail.json")
                if records:
                    # bottleneck report at trigger time: walk back from
                    # the trigger's simulated time (or the last completion
                    # when the trigger carries none).  validate=False — a
                    # failure dump must never raise, and a mid-run chain's
                    # residual is informative, not an invariant.
                    from .critpath import extract_critical_path

                    makespan_us = time_us
                    if makespan_us <= 0.0:
                        makespan_us = max(r.complete_us for r in records)
                    report = extract_critical_path(
                        records, makespan_us, validate=False,
                    )
                    _write_json(bundle / "critpath.json", report.to_dict())
                    files.append("critpath.json")
            if obs.slo is not None:
                _write_json(bundle / "alerts.json", {
                    "triggering": alert,
                    "history": [a.to_dict() for a in obs.slo.alerts],
                })
                files.append("alerts.json")
            if obs.telemetry is not None:
                _write_json(
                    bundle / "telemetry_tail.json",
                    obs.telemetry.windows[-_TELEMETRY_TAIL:],
                )
                files.append("telemetry_tail.json")
        if self.sanitizer is not None:
            _write_json(
                bundle / "sanitizer_events.json",
                {
                    "stats": self.sanitizer.stats(),
                    "recent": self.sanitizer.recent_events(),
                },
            )
            files.append("sanitizer_events.json")
        manifest = FLIGHT_SCHEMA.stamp(
            trigger=trigger,
            detail=detail,
            time_us=time_us,
            context=self.context,
            replay={
                "argv": self.replay_argv,
                "command": (
                    shlex.join(self.replay_argv)
                    if self.replay_argv else None
                ),
                "explain_argv": self.explain_argv,
                "explain_command": (
                    shlex.join(self.explain_argv)
                    if self.explain_argv else None
                ),
            },
            bundle_files=sorted(files),
        )
        _write_json(bundle / "manifest.json", manifest)
        self.bundles.append(bundle)
        return bundle


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
