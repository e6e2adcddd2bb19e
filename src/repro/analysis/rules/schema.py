"""R007 — versioned JSON documents are stamped through one declaration.

Ten document formats carry a ``schema_version`` (bench results, lint
reports, telemetry headers, flight-recorder manifests, SLO specs, ...).
Each is declared once as a :class:`repro.schema.Schema` (version,
required and optional fields); writers build documents with the
declaration's ``stamp()`` and readers validate them with its ``load()``,
so the version check a reader applies is the one the writer stamped.

R007 enforces, whole-program:

* a ``schema_version`` key stamped anywhere outside :mod:`repro.schema`
  (a dict-literal key, a ``doc["schema_version"] = ...`` store or a
  ``schema_version=`` keyword) is a violation — a hand-stamped document
  has no declared reader, so its version stamp protects nobody;
* every key a writer puts in a stamped document must be listed by the
  declaration: the ``stamp()`` keywords plus ``doc["key"] = ...`` stores
  on the variable holding the stamped document (``_``-prefixed keys are
  private carry-alongs and exempt).

Declarations are matched by canonical symbol (``repro.obs.slo.SLO_SCHEMA``
however it was imported), so a writer may live in any module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import ProgramRule

__all__ = ["SchemaRoundTripRule"]

_SCHEMA_KEY = "schema_version"
_SCHEMA_MODULE = "repro.schema"
_SCHEMA_CLASS = "repro.schema.Schema"


class SchemaRoundTripRule(ProgramRule):
    """R007: documents are stamped only through a declared Schema."""

    code = "R007"
    summary = (
        "schema_version documents are stamped only through a repro.schema "
        "declaration that lists every field the writer emits"
    )
    applies_to = ()

    # ------------------------------------------------------------------
    def check_program(self, program) -> Iterator:
        declared = self._declarations(program)
        for module in sorted(program.modules.values(), key=lambda m: m.name):
            if module.name == _SCHEMA_MODULE:
                continue
            for node in ast.walk(module.source.tree):
                if self._hand_stamped(node):
                    yield self.violation(
                        module.source,
                        node,
                        "hand-stamped schema_version: declare the format "
                        "once as a repro.schema.Schema and build the "
                        "document with its stamp()",
                    )
            for local_qual in sorted(module.functions):
                fi = module.functions[local_qual]
                if fi.nested:
                    continue
                for call, name, fields in self._writers(program, module, fi, declared):
                    undeclared = sorted(fields - declared[name])
                    if undeclared:
                        yield self.violation(
                            module.source,
                            call,
                            f"schema field mismatch for {name}: the writer "
                            f"emits {undeclared}, which the declaration "
                            "does not list — add them to its required or "
                            "optional fields",
                        )

    # ------------------------------------------------------------------
    @staticmethod
    def _declarations(program) -> dict[str, set[str]]:
        """Canonical name of every module-level ``Schema(...)`` -> fields."""
        from ..program import dotted_name

        out: dict[str, set[str]] = {}
        for module in program.modules.values():
            for gname, info in module.globals.items():
                value = info.value
                if not isinstance(value, ast.Call):
                    continue
                func = dotted_name(value.func)
                if func is None or program.canonical(module, func) != _SCHEMA_CLASS:
                    continue
                out[f"{module.name}.{gname}"] = {
                    node.value
                    for kw in value.keywords
                    if kw.arg in ("required", "optional")
                    for node in ast.walk(kw.value)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                }
        return out

    @staticmethod
    def _hand_stamped(node: ast.AST) -> bool:
        def is_key(expr) -> bool:
            return isinstance(expr, ast.Constant) and expr.value == _SCHEMA_KEY

        if isinstance(node, ast.Dict):
            return any(is_key(key) for key in node.keys)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            return is_key(node.slice)
        return isinstance(node, ast.keyword) and node.arg == _SCHEMA_KEY

    @staticmethod
    def _writers(program, module, fi, declared):
        """``(call, declaration, public keys)`` per ``<declaration>.stamp()``
        in ``fi``: the keywords plus ``doc["key"] = ...`` stores on the
        variable the stamped document is assigned to."""
        from ..program import dotted_name

        stamps, bound, stores = [], {}, {}
        for node in ast.walk(fi.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        bound[node.value] = target.id
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                stores.setdefault(node.value.id, set()).add(node.slice.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stamp"
            ):
                receiver = dotted_name(node.func.value)
                name = receiver and program.canonical(module, receiver)
                if name in declared:
                    stamps.append((node, name))
        for call, name in stamps:
            keys = {kw.arg for kw in call.keywords if kw.arg is not None}
            keys |= stores.get(bound.get(call), set())
            yield call, name, {key for key in keys if not key.startswith("_")}
