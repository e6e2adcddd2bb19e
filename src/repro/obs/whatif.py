"""Counterfactual what-if engine (exact causal profiling).

Coz-style causal profilers answer "what would speeding up X buy?" by
*virtually* speeding X up — inserting compensating delays everywhere
else and measuring the shift.  Our simulator needs no such trick: it is
deterministic and seeded, so the counterfactual can simply be **run** —
re-simulate the identical request trace with one configuration knob
scaled (:meth:`repro.ssd.config.SSDConfig.scale_knob`) or the channel
allocation replaced, and compare totals.  The resulting *virtual
speedup* table is exact, not a perturbation estimate, and the top row
is re-verified by running it a second time and asserting bit-identical
totals (determinism is the load-bearing assumption; this check makes
its failure loud).

Knobs whose scaled value violates configuration validation (e.g.
doubling ``gc_threshold`` past the restore watermark's legal range on
an aggressive config) are reported as ``inapplicable`` rather than
failing the sweep.

Like the rest of ``repro.obs``, nothing here touches a live run: the
engine only *launches* fresh simulations from plain inputs (requests,
config, channel sets, an optional stateless
:class:`~repro.ssd.faults.FaultConfig`), so arming it cannot perturb
the baseline being explained.
"""

from __future__ import annotations

from ..schema import Schema

__all__ = [
    "WHATIF_SCHEMA_VERSION",
    "load_report",
    "Counterfactual",
    "DEFAULT_COUNTERFACTUALS",
    "WhatIfRow",
    "WhatIfReport",
    "run_whatif",
]

#: Bump when the report document layout changes shape.
WHATIF_SCHEMA_VERSION = 1

#: the document of WhatIfReport.to_dict
WHATIF_SCHEMA = Schema(
    "what-if report", WHATIF_SCHEMA_VERSION,
    required=("requests", "baseline", "counterfactuals"),
)

#: validate a persisted what-if report (round-trip reader)
load_report = WHATIF_SCHEMA.load


class Counterfactual:
    """One hypothetical to re-simulate.

    Either a config-knob scaling (``knob`` from
    :data:`repro.ssd.config.KNOBS` scaled by ``factor``) or an
    allocation swap (``allocation="shared"`` gives every tenant every
    channel — the degenerate strategy the paper's keeper improves on).
    """

    __slots__ = ("name", "description", "knob", "factor", "allocation")

    def __init__(
        self,
        name: str,
        description: str,
        *,
        knob: str | None = None,
        factor: float = 1.0,
        allocation: str | None = None,
    ) -> None:
        if (knob is None) == (allocation is None):
            raise ValueError(
                "exactly one of knob= or allocation= must be given"
            )
        if allocation is not None and allocation != "shared":
            raise ValueError(f"unknown allocation counterfactual {allocation!r}")
        self.name = name
        self.description = description
        self.knob = knob
        self.factor = factor
        self.allocation = allocation

    def apply(self, cfg, sets):
        """Return the ``(cfg, sets)`` this hypothetical simulates.

        Raises ``ValueError`` when the scaled config is invalid — the
        sweep records that as ``inapplicable``.
        """
        if self.allocation == "shared":
            every = list(range(cfg.channels))
            return cfg, {wid: list(every) for wid in sets}
        return cfg.scale_knob(self.knob, self.factor), sets


#: The standard sweep: one hypothetical per timing knob the paper's
#: design space cares about, plus the shared-allocation strategy swap.
DEFAULT_COUNTERFACTUALS: tuple[Counterfactual, ...] = (
    Counterfactual(
        "bus_2x", "channel bus twice as fast",
        knob="bus_bandwidth", factor=2.0,
    ),
    Counterfactual(
        "tR_half", "flash read (tR) latency halved",
        knob="read_latency", factor=0.5,
    ),
    Counterfactual(
        "tPROG_half", "flash program (tPROG) latency halved",
        knob="write_latency", factor=0.5,
    ),
    Counterfactual(
        "erase_half", "block erase (tBERS) latency halved",
        knob="erase_latency", factor=0.5,
    ),
    Counterfactual(
        "no_cmd_overhead", "zero per-command bus overhead",
        knob="command_overhead", factor=0.0,
    ),
    Counterfactual(
        "gc_earlier", "GC watermarks doubled (reclaim earlier, more slack)",
        knob="gc_threshold", factor=2.0,
    ),
    Counterfactual(
        "shared_allocation", "all tenants share every channel",
        allocation="shared",
    ),
)


class WhatIfRow:
    """Outcome of one counterfactual re-simulation."""

    __slots__ = (
        "name", "description", "status", "total_latency_us", "makespan_us",
        "mean_read_us", "mean_write_us", "speedup", "makespan_speedup",
        "verified", "note",
    )

    def __init__(
        self,
        name: str,
        description: str,
        status: str,
        *,
        total_latency_us: float = 0.0,
        makespan_us: float = 0.0,
        mean_read_us: float = 0.0,
        mean_write_us: float = 0.0,
        speedup: float = 0.0,
        makespan_speedup: float = 0.0,
        note: str = "",
    ) -> None:
        #: ``ok`` or ``inapplicable`` (scaled config failed validation)
        self.status = status
        self.name = name
        self.description = description
        self.total_latency_us = total_latency_us
        self.makespan_us = makespan_us
        self.mean_read_us = mean_read_us
        self.mean_write_us = mean_write_us
        #: virtual speedup of the paper's objective:
        #: baseline total latency / counterfactual total latency
        self.speedup = speedup
        self.makespan_speedup = makespan_speedup
        #: the counterfactual was re-simulated a second time and the
        #: totals matched exactly (determinism re-proven for this row)
        self.verified = False
        self.note = note

    def to_dict(self) -> dict:
        out = {"name": self.name, "description": self.description,
               "status": self.status}
        if self.status == "ok":
            out.update(
                total_latency_us=self.total_latency_us,
                makespan_us=self.makespan_us,
                mean_read_us=self.mean_read_us,
                mean_write_us=self.mean_write_us,
                speedup=self.speedup,
                makespan_speedup=self.makespan_speedup,
                verified=self.verified,
            )
        if self.note:
            out["note"] = self.note
        return out


class WhatIfReport:
    """Baseline metrics plus the ranked virtual-speedup table."""

    __slots__ = (
        "baseline_total_latency_us", "baseline_makespan_us",
        "baseline_mean_read_us", "baseline_mean_write_us",
        "requests", "rows",
    )

    def __init__(
        self,
        *,
        baseline_total_latency_us: float,
        baseline_makespan_us: float,
        baseline_mean_read_us: float,
        baseline_mean_write_us: float,
        requests: int,
        rows: list[WhatIfRow],
    ) -> None:
        self.baseline_total_latency_us = baseline_total_latency_us
        self.baseline_makespan_us = baseline_makespan_us
        self.baseline_mean_read_us = baseline_mean_read_us
        self.baseline_mean_write_us = baseline_mean_write_us
        self.requests = requests
        self.rows = rows

    def ranked(self) -> list[WhatIfRow]:
        """Applicable rows, largest virtual speedup first."""
        ok = [row for row in self.rows if row.status == "ok"]
        ok.sort(key=lambda row: (-row.speedup, row.name))
        return ok

    def best(self) -> WhatIfRow | None:
        ranked = self.ranked()
        return ranked[0] if ranked else None

    def to_dict(self) -> dict:
        return WHATIF_SCHEMA.stamp(
            requests=self.requests,
            baseline={
                "total_latency_us": self.baseline_total_latency_us,
                "makespan_us": self.baseline_makespan_us,
                "mean_read_us": self.baseline_mean_read_us,
                "mean_write_us": self.baseline_mean_write_us,
            },
            counterfactuals=[row.to_dict() for row in self.ranked()]
            + [
                row.to_dict() for row in self.rows if row.status != "ok"
            ],
        )

    def format(self) -> str:
        """Human-readable speedup table (embedded in ``repro explain``)."""
        lines = [
            f"what-if over {self.requests} requests (baseline total "
            f"latency {self.baseline_total_latency_us / 1e6:.3f}s):"
        ]
        for row in self.ranked():
            mark = " *verified*" if row.verified else ""
            lines.append(
                f"  {row.name:<18} {row.speedup:>6.2f}x total latency  "
                f"({row.makespan_speedup:.2f}x makespan)  "
                f"{row.description}{mark}"
            )
        for row in self.rows:
            if row.status != "ok":
                lines.append(
                    f"  {row.name:<18} inapplicable: {row.note}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def reset_completions(requests) -> None:
    """Clear the completion stamps a simulation left on ``requests``
    (the only state a run leaves on the trace), so it can be replayed."""
    for request in requests:
        request.complete_us = -1.0


def _simulate(requests, cfg, sets, faults):
    from ..ssd.simulator import simulate  # lazy: obs must not import ssd at module load

    reset_completions(requests)
    result = simulate(requests, cfg, sets, faults=faults)
    return result


def _metrics(result) -> tuple[float, float, float, float]:
    return (
        result.total_latency_us,
        result.makespan_us,
        result.mean_read_us,
        result.mean_write_us,
    )


def run_whatif(
    requests,
    cfg,
    sets,
    *,
    faults=None,
    baseline=None,
    log=None,
) -> WhatIfReport:
    """Sweep :data:`DEFAULT_COUNTERFACTUALS` by exact re-simulation of one
    trace.

    ``faults`` must be a stateless :class:`~repro.ssd.faults.FaultConfig`
    (not a used injector) so every run draws the identical fault
    sequence.  ``baseline`` optionally passes an already-computed
    :class:`~repro.ssd.metrics.SimulationResult` for the unmodified
    inputs — the sweep then skips re-running it (callers that just
    simulated the baseline, like ``repro explain``, avoid one run).

    The top-ranked counterfactual is re-simulated, and ``RuntimeError``
    raised if the totals are not bit-identical — a failed
    re-verification means the simulator lost determinism, which would
    silently invalidate the whole table.
    """
    from ..ssd.faults import FaultInjector  # lazy, cycle guard

    if isinstance(faults, FaultInjector):
        raise TypeError(
            "pass the FaultConfig, not a FaultInjector: an injector is "
            "stateful and would give each re-simulation a different "
            "fault sequence"
        )
    if baseline is None:
        baseline = _simulate(requests, cfg, sets, faults)
    base_total_us, base_makespan_us, base_read_us, base_write_us = _metrics(
        baseline
    )

    rows: list[WhatIfRow] = []
    results: dict[str, tuple[float, float, float, float]] = {}
    for cf in DEFAULT_COUNTERFACTUALS:
        try:
            cf_cfg, cf_sets = cf.apply(cfg, sets)
        except ValueError as exc:
            rows.append(
                WhatIfRow(cf.name, cf.description, "inapplicable",
                          note=str(exc))
            )
            continue
        metrics = _metrics(_simulate(requests, cf_cfg, cf_sets, faults))
        results[cf.name] = metrics
        total_us, makespan_us, read_us, write_us = metrics
        rows.append(
            WhatIfRow(
                cf.name, cf.description, "ok",
                total_latency_us=total_us,
                makespan_us=makespan_us,
                mean_read_us=read_us,
                mean_write_us=write_us,
                speedup=base_total_us / total_us if total_us else 0.0,
                makespan_speedup=(
                    base_makespan_us / makespan_us if makespan_us else 0.0
                ),
            )
        )
        if log is not None:
            log(f"what-if {cf.name}: {rows[-1].speedup:.2f}x")

    report = WhatIfReport(
        baseline_total_latency_us=base_total_us,
        baseline_makespan_us=base_makespan_us,
        baseline_mean_read_us=base_read_us,
        baseline_mean_write_us=base_write_us,
        requests=len(requests),
        rows=rows,
    )
    best = report.best()
    if best is not None:
        by_name = {cf.name: cf for cf in DEFAULT_COUNTERFACTUALS}
        cf_cfg, cf_sets = by_name[best.name].apply(cfg, sets)
        rerun = _metrics(_simulate(requests, cf_cfg, cf_sets, faults))
        if rerun != results[best.name]:
            raise RuntimeError(
                f"counterfactual {best.name!r} is not reproducible: "
                f"first run {results[best.name]} vs re-run {rerun}; "
                "the simulator lost determinism"
            )
        best.verified = True
    # don't leave the last counterfactual's completion stamps on the
    # shared request objects
    reset_completions(requests)
    return report
