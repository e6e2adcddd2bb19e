"""Domain lint rules.

Each rule is a small class with a ``code`` (``R00x``), a one-line
``summary``, an optional ``applies_to`` scope (dotted package prefixes —
empty means every file), and a ``check(module)`` generator yielding
:class:`~repro.analysis.engine.Violation` records.  The contract each
rule protects is documented in its module docstring and in DESIGN.md's
"Invariants & analysis" section.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import ModuleSource, Violation

__all__ = ["Rule", "ProgramRule", "RULE_CODES", "default_rules"]


class Rule:
    """Base class: subclasses set ``code``/``summary`` and implement check."""

    code: str = ""
    summary: str = ""
    #: dotted package prefixes this rule is scoped to (empty = all files)
    applies_to: tuple[str, ...] = ()

    def check(self, module: "ModuleSource") -> Iterator["Violation"]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def violation(
        self, module: "ModuleSource", node, message: str
    ) -> "Violation":
        """Build a violation anchored at ``node``."""
        from ..engine import Violation

        return Violation(
            rule=self.code,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProgramRule(Rule):
    """Whole-program rule: sees the package-wide symbol table + call graph.

    Subclasses implement ``check_program(program)`` instead of ``check``;
    the engine builds one :class:`~repro.analysis.program.Program` per run
    (one parse per module) and dispatches every program rule over it.
    ``applies_to`` filters by the module each violation lands in.
    """

    def check(self, module: "ModuleSource") -> Iterator["Violation"]:
        # program rules never run per-file; the engine routes them through
        # check_program with a single-module program when needed
        return iter(())

    def check_program(self, program) -> Iterator["Violation"]:
        raise NotImplementedError


def default_rules() -> list[Rule]:
    """The six domain rules, in code order."""
    from .determinism import DeterminismHygieneRule
    from .purity import OptInPurityRule
    from .scheduling import EventLoopDisciplineRule
    from .schema import SchemaRoundTripRule
    from .seedflow import SeedProvenanceRule
    from .units import UnitHygieneRule

    return [
        UnitHygieneRule(),
        DeterminismHygieneRule(),
        OptInPurityRule(),
        EventLoopDisciplineRule(),
        SeedProvenanceRule(),
        SchemaRoundTripRule(),
    ]


RULE_CODES = ("R001", "R002", "R003", "R004", "R005", "R007")
