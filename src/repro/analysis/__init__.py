"""``repro.analysis`` — domain-specific static lints + runtime sanitizer.

The reproduction's credibility rests on invariants the test suite only
samples: microsecond-unit consistency across the timing layers, seeded
determinism of the DES and fault injector, the opt-in (``obs=None`` /
``faults=None``) hot-path cost contract, and the FTL capacity conservation
law.  This package machine-checks them, twice over:

* **static lints** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`) — an AST-walking rule engine with four
  per-file domain rules:

  - **R001 unit hygiene** — a value flowing into a ``*_us`` parameter,
    field, or return must provably be microseconds (a ``*_us``-suffixed
    name, a numeric literal, or unit arithmetic that converts correctly);
    ``*_ms`` / ``*_ns`` / unsuffixed names are flagged.
  - **R002 determinism hygiene** — no module-level RNG
    (``random.random()``, ``np.random.*``), no wall-clock reads
    (``time.time()``), no bare set iteration, and no dict iteration
    feeding event ordering inside ``repro.ssd`` / ``repro.core``.
  - **R003 opt-in purity** — code under ``repro.ssd`` / ``repro.core``
    may not touch ``obs.*`` / ``faults.*`` / ``sanitizer.*`` without a
    ``None``-guard (preserving the disabled-hot-path cost contract).
  - **R004 event-loop discipline** — every ``loop.schedule(when, ...)``
    must pass a ``when`` anchored to an absolute simulated time
    (a ``now`` / ``free_at`` / grant-``start`` term), not a bare duration.

  and two whole-program rules over one call graph
  (:mod:`repro.analysis.program`):

  - **R005 seed provenance** — every RNG construction traces, through
    the call graph, to an explicit seed, and no seed fans out unsplit.
  - **R007 schema round trip** — versioned JSON documents are stamped
    only through a declared ``Schema`` whose reader checks them back.

  Violations can be waived per line with a written justification::

      risky_call()  # repro-lint: disable=R002 (seeded upstream by run())

* **runtime sanitizer** (:mod:`repro.analysis.sanitizer`) — an opt-in
  :class:`Sanitizer` threaded like ``obs`` / ``faults`` through the event
  loop, resources, controller, mapping and GC, asserting event-time
  monotonicity, channel/die mutual exclusion, mapping-table bijectivity
  and capacity conservation on every step; violations raise
  :class:`SanitizerError` with a trace-correlated report.

Run the lints with ``python -m repro.analysis [paths]`` or
``python -m repro lint``.
"""

from __future__ import annotations

from .engine import LintEngine, ModuleSource, Report, Violation, lint_paths
from .rules import RULE_CODES, Rule, default_rules
from .sanitizer import Sanitizer, SanitizerError

__all__ = [
    "LintEngine",
    "ModuleSource",
    "Report",
    "Violation",
    "Rule",
    "RULE_CODES",
    "default_rules",
    "lint_paths",
    "Sanitizer",
    "SanitizerError",
]
