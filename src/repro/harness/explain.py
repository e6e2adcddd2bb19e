"""``repro explain`` — causal bottleneck explanation for one scenario.

Runs one seeded scenario (:mod:`repro.workloads.scenarios`)
with latency attribution armed, then answers the two questions the raw
metrics cannot:

* **which resource bounds the run** — the critical-path extractor
  (:mod:`repro.obs.critpath`) walks the attribution records backwards
  from the makespan and charges every microsecond of the run to the
  channel bus, die, DRAM buffer, host idle gap or internal tail that
  spent it, validated by the ``critpath-exact-sum`` invariant;
* **what a change would buy** — the what-if engine
  (:mod:`repro.obs.whatif`) re-simulates the identical trace with each
  config knob scaled and ranks the exact virtual speedups, re-verifying
  the winner by a second identical run.

The baseline simulation is observed, never perturbed: its summary is
byte-identical to an unexplained run of the same scenario (the golden
integration test asserts this).  Exit codes: 0 = explained, 2 = usage
error (unknown scenario, unattributable fast-model scenario, bad path).
"""

from __future__ import annotations

from . import lab

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "explain_scenario",
    "load_explain",
]

#: Bump when the document layout changes shape.
EXPLAIN_SCHEMA_VERSION = 1

#: top-level fields of the explain document ("whatif"/"sanitizer" are
#: present only when those passes ran; R007 round-trip contract)
_EXPLAIN_FIELDS = frozenset({
    "schema_version", "scenario", "quick", "requests", "makespan_us",
    "total_latency_us", "summary", "critpath", "decisions", "whatif",
    "sanitizer",
})

#: fields that must be present in every document (no optional passes)
_EXPLAIN_REQUIRED = frozenset({
    "schema_version", "scenario", "quick", "requests", "makespan_us",
    "total_latency_us", "summary", "critpath", "decisions",
})


def load_explain(doc: dict) -> dict:
    """Validate a saved explain document (round-trip reader).

    Refuses schema_version mismatches, unknown top-level fields, and
    documents missing the always-present core fields.
    """
    if doc.get("schema_version") != EXPLAIN_SCHEMA_VERSION:
        raise ValueError(
            f"explain document has schema_version "
            f"{doc.get('schema_version')!r}; this tool reads version "
            f"{EXPLAIN_SCHEMA_VERSION}"
        )
    public = {key for key in doc if not key.startswith("_")}
    missing = _EXPLAIN_REQUIRED - public
    if missing:
        raise ValueError(
            f"explain document is missing fields: {sorted(missing)}"
        )
    unknown = public - _EXPLAIN_FIELDS
    if unknown:
        raise ValueError(
            f"explain document has unknown fields: {sorted(unknown)}"
        )
    return doc


def explain_scenario(
    name: str,
    *,
    quick: bool = False,
    sanitize: bool = False,
    whatif: bool = True,
    tolerance_us: float = 1e-6,
    log=None,
) -> dict:
    """Run + explain one bench scenario; returns the report document.

    Raises ``KeyError`` for an unknown scenario and ``ValueError`` for
    one that cannot be attributed (the vectorised fast model records no
    spans).  ``sanitize=True`` routes the exact-sum invariants through a
    runtime :class:`~repro.analysis.Sanitizer` so the report carries its
    check counters.
    """
    from ..obs import Observability
    from ..obs.critpath import extract_critical_path
    from ..obs.whatif import explain_decisions, run_whatif
    from ..ssd.simulator import simulate
    from ..workloads.scenarios import build

    _, requests, cfg, sets, faults = build(name, quick=quick, event_driven=True)
    sanitizer = None
    if sanitize:
        from ..analysis import Sanitizer

        sanitizer = Sanitizer()
    obs = Observability(trace=False, attribution=True)
    result = simulate(
        requests, cfg, sets, record_latencies=True, obs=obs, faults=faults,
        sanitizer=sanitizer,
    )
    if log is not None:
        log(f"{name}: {result.summary()}")

    report = extract_critical_path(
        obs.attribution.records,
        result.makespan_us,
        tolerance_us=tolerance_us,
        sanitizer=sanitizer,
    )
    doc: dict = {
        "schema_version": EXPLAIN_SCHEMA_VERSION,
        "scenario": name,
        "quick": quick,
        "requests": len(requests),
        "makespan_us": result.makespan_us,
        "total_latency_us": result.total_latency_us,
        "summary": result.summary(),
        "critpath": report.to_dict(),
        "decisions": explain_decisions(obs.decisions, result.breakdown),
    }
    if whatif:
        wreport = run_whatif(
            requests, cfg, sets, faults=faults, baseline=result, log=log,
        )
        doc["whatif"] = wreport.to_dict()
        doc["_whatif_report"] = wreport
    if sanitizer is not None:
        doc["sanitizer"] = sanitizer.stats()
    doc["_critpath_report"] = report
    return doc


def _render(doc: dict, top: int) -> str:
    lines = [doc["summary"], ""]
    lines.append(doc.pop("_critpath_report").format(top=top))
    wreport = doc.pop("_whatif_report", None)
    if wreport is not None:
        lines.append("")
        lines.append(wreport.format())
    sanitizer = doc.get("sanitizer")
    if sanitizer is not None:
        checks = ", ".join(f"{k} {v}" for k, v in sanitizer.items())
        lines.append("")
        lines.append(f"sanitizer: all invariants held ({checks})")
    return "\n".join(lines)


def add_arguments(parser) -> None:
    lab.add_shared(
        parser, "--scenario",
        default="gc_heavy",
        help="scenario to explain (default gc_heavy); event-driven "
        "scenarios only",
    )
    lab.add_shared(parser, "--quick")
    parser.add_argument(
        "--top",
        type=lab.count,
        default=8,
        metavar="N",
        help="rows in the bottleneck table (default 8)",
    )
    parser.add_argument(
        "--no-whatif",
        action="store_true",
        help="skip the counterfactual sweep (critical path only)",
    )
    lab.add_shared(parser, "--sanitize", "--json", "--out")


def run(args) -> int:
    """``repro explain``: 0 = explained."""
    try:
        doc = explain_scenario(
            args.scenario,
            quick=args.quick,
            sanitize=args.sanitize,
            whatif=not args.no_whatif,
            log=None if args.json else print,
        )
    except ValueError as exc:
        raise lab.UsageError(str(exc)) from None
    lab.emit(args, doc, _render(doc, args.top))  # _render pops the objects
    if args.out:
        lab.note(f"wrote {lab.write_json(args.out, doc)}")
    return 0
