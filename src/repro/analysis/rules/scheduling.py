"""R004 — event-loop discipline for ``loop.schedule(when, ...)``.

The event loop takes **absolute** simulated times.  The classic bug is
passing a duration: ``loop.schedule(transfer_us, cb)`` schedules the
callback near time zero instead of ``now + transfer_us``, silently
compressing the timeline.  R004 requires every ``when`` expression
passed to a ``schedule`` call on a loop-like receiver (terminal name
``loop`` / ``_loop`` / ``event_loop``) — and the times of a
``schedule_sorted(whens_us, ...)`` batch — to contain an *absolute-time
anchor term*:

* the clock itself — ``now`` / ``self.loop.now`` / ``loop.now``;
* a resource grant time — ``free_at``, ``start`` / ``start_us`` (grant
  start times handed to resource callbacks are absolute);
* ``when`` / ``when_us`` (already-absolute times passed through);
* a local variable that was itself assigned from an anchored expression
  (one level of substitution: ``done = start + dur; loop.schedule(done,
  ...)`` passes).

Durations (``*_us`` service times, literals, products) on their own are
flagged.  Pre-computed absolute times that arrive from outside the
function (trace arrival timestamps, window boundaries) are legitimate —
waive them with the reason they are absolute::

    loop.schedule(arrival_us, submit)  # repro-lint: disable=R004 (trace arrivals are absolute times)
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import Rule

__all__ = ["EventLoopDisciplineRule"]

#: receivers whose terminal name marks an event loop
_LOOP_NAMES = frozenset({"loop", "_loop", "event_loop"})

#: names that anchor an expression to absolute simulated time
_ANCHOR_NAMES = frozenset(
    {"now", "free_at", "start", "start_us", "when", "when_us", "at", "at_us"}
)


#: loop methods whose first argument is an absolute time (or batch of them)
_SCHEDULE_METHODS = frozenset({"schedule", "schedule_sorted"})


def _is_loop_receiver(func: ast.expr) -> bool:
    if not (isinstance(func, ast.Attribute) and func.attr in _SCHEDULE_METHODS):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id in _LOOP_NAMES
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in _LOOP_NAMES
    return False


def _has_anchor(expr: ast.expr, anchored_locals: set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            if node.id in _ANCHOR_NAMES or node.id in anchored_locals:
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr in _ANCHOR_NAMES:
                return True
    return False


class EventLoopDisciplineRule(Rule):
    """R004: schedule() times must contain a now-relative anchor term."""

    code = "R004"
    summary = (
        "loop.schedule(when, ...) must pass an absolute time — an "
        "expression containing a now/free_at/start anchor, not a bare "
        "duration"
    )

    def check(self, module) -> Iterator:
        for func in ast.walk(module.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, func)

    # ------------------------------------------------------------------
    def _check_function(self, module, func: ast.FunctionDef):
        # one forward pass: track locals assigned from anchored expressions
        anchored_locals: set[str] = set()
        for node in _walk_in_order(func):
            if isinstance(node, ast.Assign):
                if _has_anchor(node.value, anchored_locals):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            anchored_locals.add(target.id)
                else:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            anchored_locals.discard(target.id)
            elif isinstance(node, ast.AugAssign):
                # ``t += dur`` keeps t anchored; ``t = dur`` above resets
                if isinstance(node.target, ast.Name) and _has_anchor(
                    node.value, anchored_locals
                ):
                    anchored_locals.add(node.target.id)
            elif isinstance(node, ast.Call) and _is_loop_receiver(node.func):
                if not node.args:
                    continue
                when_expr = node.args[0]
                if not _has_anchor(when_expr, anchored_locals):
                    yield self.violation(
                        module,
                        node,
                        "schedule() time has no now/free_at/start anchor "
                        "term — looks like a duration, not an absolute "
                        "simulated time",
                    )


def _walk_in_order(func: ast.FunctionDef):
    """Walk ``func`` body depth-first in source order, skipping nested defs'
    own re-analysis (they are visited by the outer check loop)."""
    stack = list(reversed(func.body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
