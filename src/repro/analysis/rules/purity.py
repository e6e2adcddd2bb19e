"""R003 — opt-in purity of observability/fault/sanitizer hooks.

PRs 1–3 thread ``obs`` / ``faults`` / ``sanitizer`` through the hot path
as *opt-in* collaborators: every component stores them as attributes
defaulting to ``None`` and the disabled cost is exactly one
``is not None`` branch per hook site.  That contract dies the first time
somebody writes ``self.obs.counter(...)`` unguarded — the simulator then
crashes with ``AttributeError`` the moment observability is off, and the
"pay only when enabled" property silently became "always required".

R003 flags every ``obs.*`` / ``faults.*`` / ``sanitizer.*`` /
``attribution.*`` / ``probe.*`` attribute access (on a bare name or a
``self.``-attribute) inside ``repro.ssd`` / ``repro.core`` that is not
dominated by a ``None``-guard (in the device that is one seam, its
``DeviceProbe``).  Recognised guards, checked on enclosing context:

* ``if x is not None: ...`` / ``if x: ...`` (and the ``else`` of
  ``is None`` / ``not x``);
* ``x is not None and x.hook(...)`` / ``x and x.hook(...)`` bool-ops;
* ``x.hook(...) if x is not None else ...`` conditional expressions;
* ``assert x is not None`` earlier in the same function body;
* an early return/raise: ``if x is None: return`` before the use.
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import Rule

__all__ = ["OptInPurityRule"]

#: attribute roots that must be None-guarded
_GUARDED_ROOTS = frozenset({
    "obs", "faults", "sanitizer", "attribution", "probe",
    "_obs", "_faults", "_sanitizer", "_attribution", "_probe",
})


def _root_key(node: ast.expr) -> str | None:
    """Identify ``obs`` / ``self.obs`` style receivers by their root name."""
    if isinstance(node, ast.Name) and node.id in _GUARDED_ROOTS:
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and node.attr in _GUARDED_ROOTS
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    ):
        return f"{node.value.id}.{node.attr}"
    return None


def _guard_keys(test: ast.expr, *, negated: bool = False) -> set[str]:
    """Root keys proven non-None when ``test`` is truthy (or falsy if negated)."""
    keys: set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and not negated:
        for value in test.values:
            keys |= _guard_keys(value)
        return keys
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _guard_keys(test.operand, negated=not negated)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        left, right = test.left, test.comparators[0]
        is_none = isinstance(right, ast.Constant) and right.value is None
        if is_none:
            key = _root_key(left)
            if key is not None:
                if isinstance(op, ast.IsNot) and not negated:
                    keys.add(key)
                elif isinstance(op, ast.Is) and negated:
                    keys.add(key)
        return keys
    if not negated:
        key = _root_key(test)
        if key is not None:
            keys.add(key)
    return keys


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class OptInPurityRule(Rule):
    """R003: every obs/faults/sanitizer hook call must be None-guarded."""

    code = "R003"
    summary = (
        "obs.*/faults.*/sanitizer.* access in repro.ssd/repro.core must be "
        "dominated by a None-guard (opt-in hot-path contract)"
    )
    applies_to = (
        "repro.ssd",
        "repro.core",
        # the explainer layer consumes sanitizer/attribution handles and
        # must honour the same opt-in contract it observes
        "repro.obs.critpath",
        "repro.obs.whatif",
        # the differential layer re-simulates with its own handles and
        # must not regress the opt-in contract while doing so
        "repro.obs.diff",
    )

    def check(self, module) -> Iterator:
        for func in ast.walk(module.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, func)

    # ------------------------------------------------------------------
    def _check_function(self, module, func: ast.FunctionDef):
        yield from self._walk_body(module, func.body, set())

    def _walk_body(self, module, body: list[ast.stmt], proven: set[str]):
        proven = set(proven)
        for stmt in body:
            yield from self._walk_stmt(module, stmt, proven)
            # facts established by this statement for the rest of the body
            if isinstance(stmt, ast.Assert):
                proven |= _guard_keys(stmt.test)
            elif isinstance(stmt, ast.If):
                test_keys = _guard_keys(stmt.test)
                neg_keys = _guard_keys(stmt.test, negated=True)
                if neg_keys and _terminates(stmt.body) and not stmt.orelse:
                    proven |= neg_keys  # ``if x is None: return`` early exit
                if test_keys and stmt.orelse and _terminates(stmt.orelse):
                    proven |= test_keys  # ``if x is not None: ... else: return``
            elif isinstance(stmt, ast.Assign):
                # rebinding the root invalidates earlier proofs
                for target in stmt.targets:
                    key = _root_key(target)
                    if key is not None:
                        proven.discard(key)

    def _walk_stmt(self, module, stmt: ast.stmt, proven: set[str]):
        if isinstance(stmt, ast.If):
            yield from self._check_expr(module, stmt.test, proven)
            then_proven = proven | _guard_keys(stmt.test)
            yield from self._walk_body(module, stmt.body, then_proven)
            else_proven = proven | _guard_keys(stmt.test, negated=True)
            yield from self._walk_body(module, stmt.orelse, else_proven)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield from self._check_expr(module, stmt.iter, proven)
            yield from self._walk_body(module, stmt.body, proven)
            yield from self._walk_body(module, stmt.orelse, proven)
        elif isinstance(stmt, ast.While):
            yield from self._check_expr(module, stmt.test, proven)
            body_proven = proven | _guard_keys(stmt.test)
            yield from self._walk_body(module, stmt.body, body_proven)
            yield from self._walk_body(module, stmt.orelse, proven)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                yield from self._check_expr(module, item.context_expr, proven)
            yield from self._walk_body(module, stmt.body, proven)
        elif isinstance(stmt, ast.Try):
            yield from self._walk_body(module, stmt.body, proven)
            for handler in stmt.handlers:
                yield from self._walk_body(module, handler.body, proven)
            yield from self._walk_body(module, stmt.orelse, proven)
            yield from self._walk_body(module, stmt.finalbody, proven)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested function: guards outside don't dominate calls inside
            yield from self._walk_body(module, stmt.body, set())
        elif isinstance(stmt, ast.ClassDef):
            yield from self._walk_body(module, stmt.body, set())
        else:
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    yield from self._check_expr(module, value, proven)

    # ------------------------------------------------------------------
    def _check_expr(self, module, expr: ast.expr, proven: set[str]):
        """Flag unguarded hook accesses inside ``expr``."""
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            facts = set(proven)
            for value in expr.values:
                yield from self._check_expr(module, value, facts)
                facts |= _guard_keys(value)
            return
        if isinstance(expr, ast.IfExp):
            yield from self._check_expr(module, expr.test, proven)
            yield from self._check_expr(
                module, expr.body, proven | _guard_keys(expr.test)
            )
            yield from self._check_expr(
                module, expr.orelse, proven | _guard_keys(expr.test, negated=True)
            )
            return
        if isinstance(expr, ast.Attribute):
            key = _root_key(expr.value)
            if key is not None and key not in proven:
                root = key.split(".")[-1]
                yield self.violation(
                    module,
                    expr,
                    f"'{key}.{expr.attr}' without a None-guard — "
                    f"'{root}' is opt-in (defaults to None); guard with "
                    f"'if {key} is not None:'",
                )
            # still descend into the receiver chain below the root
            if key is None:
                yield from self._check_expr(module, expr.value, proven)
            return
        if isinstance(expr, ast.Compare):
            # comparisons against None are themselves guards, not uses
            for side in [expr.left, *expr.comparators]:
                if _root_key(side) is None:
                    yield from self._check_expr(module, side, proven)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                yield from self._check_expr(module, child, proven)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                yield from self._check_expr(module, child.value, proven)
            elif isinstance(child, ast.comprehension):
                yield from self._check_expr(module, child.iter, proven)
                for cond in child.ifs:
                    yield from self._check_expr(module, cond, proven)
