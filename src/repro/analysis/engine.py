"""Lint engine: discovery, parse memo, waivers, rule dispatch.

The engine parses each file once (an mtime-keyed memo serves repeat loads
within a process), extracts per-line waivers from comments, derives the
dotted module name (so rules can scope themselves to ``repro.ssd`` /
``repro.core``), and dispatches two rule families:

* **per-file rules** (R001–R004) see one :class:`ModuleSource` at a time;
* **program rules** (R005, R007) see a :class:`~repro.analysis.program.Program`
  built once over *all* discovered modules — symbol table, call graph,
  interprocedural edges.

Violations on a line carrying a matching waiver comment are kept in the
report (so ``--json`` consumers can audit them) but marked ``waived`` and
excluded from the exit-code decision.

Waiver grammar (one comment per line, reason mandatory)::

    expr  # repro-lint: disable=R001 (trace column 0 is microseconds)
    expr  # repro-lint: disable=R001,R004 (absolute trace timestamps)

The reason runs to the *last* closing paren on the line, so justifications
may themselves contain parentheses: ``(1/rps is seconds (SI), so ...)``.
A waiver without a parenthesised justification does **not** silence the
violation — the point of the waiver is the written reason.

Fixture files outside the package tree can pin the module name rules see
with a comment line of its own near the top:
``# repro-lint: module=repro.ssd.fixture``.

Report output is deterministic: discovery sorts by posix-style path,
violations sort by (path, line, col, rule), and the JSON document contains
nothing run-dependent — two invocations over the same tree are
byte-identical.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
import re
from typing import Iterable

from ..schema import Schema

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "Violation",
    "Waiver",
    "ModuleSource",
    "Report",
    "LintEngine",
    "lint_paths",
    "load_report_dict",
]

#: version stamped into :meth:`Report.to_dict` (v2 carried baseline
#: fingerprints and suppression counts; v3 drops them)
REPORT_SCHEMA_VERSION = 3

#: the JSON report every consumer may rely on
REPORT_SCHEMA = Schema(
    "report", REPORT_SCHEMA_VERSION,
    required=("tool", "files", "ok", "counts", "violations"),
)

# The reason capture runs greedily to the LAST ')' on the line: a reason
# like "(1/rps is seconds (SI), so the product is unitless)" must survive
# intact — the old [^)]* grammar truncated it at the first ')', silently
# invalidating the waiver.
_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)"
    r"(?:\s*\((?P<reason>.*)\))?"
)
#: a comment line of its own, so prose that quotes the pragma never matches
_MODULE_RE = re.compile(
    r"^#\s*repro-lint:\s*module=(?P<module>[\w.]+)", re.MULTILINE
)


@dataclass(frozen=True)
class Violation:
    """One finding: rule code, location, message, and any waiver."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str | None = None

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.waived:
            text += f"  [waived: {self.waiver_reason}]"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }


@dataclass(frozen=True)
class Waiver:
    """Parsed ``repro-lint: disable=`` comment on one line."""

    codes: frozenset[str]
    reason: str | None

    @property
    def justified(self) -> bool:
        return bool(self.reason and self.reason.strip())


@dataclass
class ModuleSource:
    """One parsed file, ready for rules."""

    path: Path
    module: str
    text: str
    tree: ast.Module
    waivers: dict[int, Waiver] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            module=_derive_module(path, text),
            text=text,
            tree=tree,
            waivers=_parse_waivers(text),
        )

    @classmethod
    def load(cls, path: Path) -> "ModuleSource":
        """Like :meth:`parse`, through the mtime-keyed parse memo."""
        return _cached_parse(path)

    def in_package(self, *prefixes: str) -> bool:
        """True when this module lives under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


# ----------------------------------------------------------------------
# Parse memo for one process: entries are keyed by resolved path and
# validated by (mtime_ns, size).
# ----------------------------------------------------------------------
_MEM_CACHE: dict[str, tuple[int, int, ModuleSource]] = {}


def _cached_parse(path: Path) -> ModuleSource:
    resolved = str(path.resolve())
    try:
        stat = path.stat()
        stamp = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        return ModuleSource.parse(path)
    entry = _MEM_CACHE.get(resolved)
    if entry is not None and entry[:2] == stamp:
        # re-anchor the memoised module at the path string used this call
        return replace(entry[2], path=path)
    module = ModuleSource.parse(path)
    _MEM_CACHE[resolved] = (*stamp, module)
    return module


def _derive_module(path: Path, text: str) -> str:
    override = _MODULE_RE.search(text[:2000])
    if override:
        return override.group("module")
    parts = list(path.resolve().with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return path.stem
    return ".".join(parts[anchor:])


def _parse_waivers(text: str) -> dict[int, Waiver]:
    waivers: dict[int, Waiver] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        match = _WAIVER_RE.search(line)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group("codes").split(",")
        )
        waivers[lineno] = Waiver(codes=codes, reason=match.group("reason"))
    return waivers


@dataclass
class Report:
    """All violations found over one engine run."""

    violations: list[Violation]
    files: int
    #: (code, summary) for every rule that ran, in code order
    rules: list[tuple[str, str]] = field(default_factory=list)

    @property
    def active(self) -> list[Violation]:
        """Violations that fail the run (not waived)."""
        return [v for v in self.violations if not v.waived]

    @property
    def waived(self) -> list[Violation]:
        return [v for v in self.violations if v.waived]

    @property
    def ok(self) -> bool:
        return not self.active

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for violation in self.active:
            out[violation.rule] = out.get(violation.rule, 0) + 1
        return out

    def to_dict(self) -> dict:
        return REPORT_SCHEMA.stamp(
            tool={
                "name": "repro-analysis",
                "rules": {code: summary for code, summary in self.rules},
            },
            files=self.files,
            ok=self.ok,
            counts=self.counts(),
            violations=[v.to_dict() for v in self.violations],
        )


#: validate a machine-readable report (the v3 round-trip reader)
load_report_dict = REPORT_SCHEMA.load


class LintEngine:
    """Runs per-file and whole-program rules over files or directory trees."""

    def __init__(self, *, select: Iterable[str] | None = None) -> None:
        from .rules import default_rules

        rules = default_rules()
        if select is not None:
            wanted = {code.strip().upper() for code in select}
            unknown = wanted - {rule.code for rule in rules}
            if unknown:
                raise ValueError(f"unknown rule codes: {sorted(unknown)}")
            rules = [rule for rule in rules if rule.code in wanted]
        self.rules = list(rules)

    def _split_rules(self):
        from .rules import ProgramRule

        file_rules = [r for r in self.rules if not isinstance(r, ProgramRule)]
        program_rules = [r for r in self.rules if isinstance(r, ProgramRule)]
        return file_rules, program_rules

    # ------------------------------------------------------------------
    def lint_file(self, path: Path | str) -> list[Violation]:
        module = ModuleSource.load(Path(path))
        file_rules, program_rules = self._split_rules()
        violations = self._file_violations(module, file_rules)
        if program_rules:
            violations.extend(
                self._program_violations([module], program_rules)
            )
        violations.sort(key=lambda v: (v.line, v.col, v.rule, v.message))
        return violations

    def lint_paths(self, paths: Iterable[Path | str]) -> Report:
        """Lint every python file under ``paths``."""
        files = _dedupe_sorted(_discover(paths))
        modules = [ModuleSource.load(path) for path in files]
        file_rules, program_rules = self._split_rules()
        violations: list[Violation] = []
        for module in modules:
            violations.extend(self._file_violations(module, file_rules))
        if program_rules:
            violations.extend(self._program_violations(modules, program_rules))
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.message))
        return Report(
            violations=violations,
            files=len(files),
            rules=[(r.code, r.summary) for r in self.rules],
        )

    # ------------------------------------------------------------------
    def _file_violations(self, module: ModuleSource, rules) -> list[Violation]:
        violations: list[Violation] = []
        for rule in rules:
            if rule.applies_to and not module.in_package(*rule.applies_to):
                continue
            for violation in rule.check(module):
                violations.append(self._apply_waiver(module, violation))
        return violations

    def _program_violations(self, modules, rules) -> list[Violation]:
        from .program import Program

        program = Program.build(modules)
        by_path = {str(m.path): m for m in modules}
        violations: list[Violation] = []
        for rule in rules:
            for violation in rule.check_program(program):
                module = by_path.get(violation.path)
                if module is None:
                    violations.append(violation)
                    continue
                if rule.applies_to and not module.in_package(*rule.applies_to):
                    continue
                violations.append(self._apply_waiver(module, violation))
        return violations

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_waiver(module: ModuleSource, violation: Violation) -> Violation:
        waiver = module.waivers.get(violation.line)
        if waiver is None or violation.rule not in waiver.codes:
            return violation
        if not waiver.justified:
            return replace(
                violation,
                message=violation.message
                + " [waiver rejected: missing (justification)]",
            )
        return replace(
            violation,
            waived=True,
            waiver_reason=waiver.reason.strip(),
        )


def _dedupe_sorted(paths: Iterable[Path]) -> list[Path]:
    """Platform-independent ordering: posix path string, duplicates dropped."""
    seen: set[str] = set()
    unique: list[Path] = []
    for path in paths:
        key = str(path.resolve())
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return sorted(unique, key=lambda p: p.as_posix())


def _discover(paths: Iterable[Path | str]) -> Iterable[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for child in path.rglob("*.py"):
                if "__pycache__" not in child.parts:
                    yield child
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


def lint_paths(
    paths: Iterable[Path | str],
    *,
    select: Iterable[str] | None = None,
) -> Report:
    """One-shot convenience wrapper: lint ``paths`` with the default rules."""
    return LintEngine(select=select).lint_paths(paths)
