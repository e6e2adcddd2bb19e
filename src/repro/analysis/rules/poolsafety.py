"""R006 — process-pool / shared-state race detector.

``repro.harness.sweep.run_sweep`` forks callables onto
``multiprocessing.Pool`` workers.
Three things silently break there:

* **closures and lambdas** don't pickle — the sweep dies at submission;
* **bound methods** drag their whole receiver across the fork;
* **module-level mutable globals** are *copied* into each worker at fork
  time and never merged back: a pooled callable that reads or writes one
  (``global _DEFAULT`` caches, module-level registries, accumulator
  lists) computes against stale state in the parent and divergent state
  across workers — the classic irreproducible "works serially" race.

R006 finds every callable that flows into a pool — directly
(``pool.map(fn, ...)``), through :func:`run_sweep`, or through any
wrapper whose parameter transitively reaches a pool (discovered by
fixpoint, so the rule keeps working as new wrappers appear) —
and then walks the call graph from that callable, flagging every
reachable read or write of module-level mutable state with the full
access path (``worker -> helper -> repro.harness.cache.default_cache
writes 'repro.harness.cache._DEFAULT'``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from . import ProgramRule

__all__ = ["PoolSafetyRule"]

#: canonical constructors whose instances are process pools
_POOL_FACTORIES = frozenset({
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.get_context",
    "concurrent.futures.ProcessPoolExecutor",
})

#: methods on a pool object that take a worker callable as first argument
_POOL_METHODS = frozenset({
    "map", "imap", "imap_unordered", "map_async",
    "starmap", "starmap_async", "apply", "apply_async", "submit",
})

#: entry points that forward a callable parameter into a pool, known even
#: when their defining module is outside the linted program (fixtures)
_KNOWN_POOL_ENTRIES = frozenset({
    "repro.harness.sweep.run_sweep",
    "repro.harness.run_sweep",
})

_MAX_ROUNDS = 12


class PoolSafetyRule(ProgramRule):
    """R006: pooled callables are module-level defs free of shared state."""

    code = "R006"
    summary = (
        "callables shipped to a process pool must be closure-free "
        "module-level defs that reach no module-level mutable global"
    )
    applies_to = ()

    # ------------------------------------------------------------------
    def check_program(self, program) -> Iterator:
        pool_params = self._discover_pool_params(program)
        sites = self._concrete_sites(program, pool_params)
        for module_name, fi_qual, expr, call_node in sites:
            module = program.modules[module_name]
            owner = program.functions.get(fi_qual)
            yield from self._check_site(
                program, module, expr, call_node, owner=owner
            )

    # ------------------------------------------------------------------
    # Sink discovery
    # ------------------------------------------------------------------
    def _discover_pool_params(self, program) -> dict[str, set[str]]:
        """(function qualname -> params) that flow into a pool, by fixpoint."""
        pool_params: dict[str, set[str]] = {}
        for _ in range(_MAX_ROUNDS):
            changed = False
            for fi in program.sorted_functions():
                if fi.nested:
                    continue
                for expr, _node in self._pooled_exprs(program, fi, pool_params):
                    if not isinstance(expr, ast.Name):
                        continue
                    if expr.id not in fi.params:
                        continue
                    bucket = pool_params.setdefault(fi.qualname, set())
                    if expr.id not in bucket:
                        bucket.add(expr.id)
                        changed = True
            if not changed:
                break
        return pool_params

    def _concrete_sites(self, program, pool_params):
        """Deterministic list of (module, function, callable-expr, call)."""
        sites = []
        for fi in program.sorted_functions():
            if fi.nested:
                continue
            for expr, node in self._pooled_exprs(program, fi, pool_params):
                if isinstance(expr, ast.Name) and expr.id in fi.params:
                    continue  # handled transitively at the callers
                sites.append((fi.module, fi.qualname, expr, node))
        return sites

    def _pooled_exprs(self, program, fi, pool_params):
        """Every (callable expression, call node) shipped to a pool in fi."""
        module = program.modules[fi.module]
        pool_vars = self._pool_receivers(program, module, fi)
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Call):
                continue
            # pool.map(fn, ...) style: receiver is a locally-created pool
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_METHODS
            ):
                receiver = node.func.value
                is_pool = (
                    isinstance(receiver, ast.Name) and receiver.id in pool_vars
                ) or (
                    isinstance(receiver, ast.Call)
                    and self._is_pool_factory(program, module, receiver)
                )
                if is_pool and node.args:
                    yield node.args[0], node
                continue
            # run_sweep(fn, ...) style: resolved entry with a pool param
            from ..program import dotted_name

            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            callee = program.canonical(module, dotted)
            param_names: set[str] = set()
            target = program.function_for(callee)
            if callee in _KNOWN_POOL_ENTRIES:
                if target is not None and target.qualname in pool_params:
                    param_names = pool_params[target.qualname]
                else:
                    param_names = {"fn"}
                    if target is None and node.args:
                        yield node.args[0], node
                        continue
            elif target is not None and target.qualname in pool_params:
                param_names = pool_params[target.qualname]
            if not param_names or target is None:
                continue
            bound = program.bind_args(node, target)
            for pname in sorted(param_names):
                arg = bound.get(pname)
                if arg is not None:
                    yield arg, node

    def _pool_receivers(self, program, module, fi) -> set[str]:
        """Local names bound to a freshly-constructed pool object."""
        receivers: set[str] = set()
        for node in ast.walk(fi.node):
            if isinstance(node, ast.Assign):
                if self._is_pool_factory(program, module, node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            receivers.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if self._is_pool_factory(
                        program, module, item.context_expr
                    ) and isinstance(item.optional_vars, ast.Name):
                        receivers.add(item.optional_vars.id)
        return receivers

    @staticmethod
    def _is_pool_factory(program, module, expr) -> bool:
        from ..program import dotted_name

        if not isinstance(expr, ast.Call):
            return False
        dotted = dotted_name(expr.func)
        if dotted is None:
            return False
        canonical = program.canonical(module, dotted)
        if canonical in _POOL_FACTORIES:
            return True
        # multiprocessing.get_context("spawn").Pool(...)
        return (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "Pool"
            and isinstance(expr.func.value, ast.Call)
            and PoolSafetyRule._is_pool_factory(program, module, expr.func.value)
        )

    # ------------------------------------------------------------------
    # Site verification
    # ------------------------------------------------------------------
    def _check_site(self, program, module, expr, call_node, *, owner=None) -> Iterator:
        from ..program import dotted_name

        if isinstance(expr, ast.Lambda):
            yield self.violation(
                module.source,
                call_node,
                "lambda shipped to a process pool — lambdas don't pickle; "
                "promote it to a module-level def",
            )
            return
        # functools.partial(f, ...) wraps a picklable target: unwrap it
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if dotted is not None and program.canonical(module, dotted) in (
                "functools.partial", "partial",
            ):
                if expr.args:
                    yield from self._check_site(
                        program, module, expr.args[0], call_node, owner=owner
                    )
                return
            return  # arbitrary call result: not statically resolvable
        dotted = dotted_name(expr)
        if dotted is None:
            return
        if "." in dotted and dotted.partition(".")[0] in ("self", "cls"):
            yield self.violation(
                module.source,
                call_node,
                f"bound method '{dotted}' shipped to a process pool — the "
                "whole receiver object is pickled into every worker; use a "
                "module-level def taking explicit arguments",
            )
            return
        target = None
        if "." not in dotted and owner is not None:
            # a bare name may be one of the enclosing function's nested defs
            target = program.function_for(f"{owner.qualname}.{dotted}")
        if target is None:
            target = program.function_for(program.canonical(module, dotted))
        if target is None:
            return  # external / unresolvable: nothing to prove
        if target.nested:
            yield self.violation(
                module.source,
                call_node,
                f"'{dotted}' is a nested def (closure) shipped to a process "
                "pool — closures don't pickle and capture enclosing state; "
                "promote it to module level",
            )
            return
        if target.is_method:
            yield self.violation(
                module.source,
                call_node,
                f"method '{target.qualname}' shipped to a process pool — "
                "use a closure-free module-level def",
            )
            return
        yield from self._check_shared_state(program, module, target, call_node)

    def _check_shared_state(self, program, module, entry, call_node) -> Iterator:
        """BFS the call graph from ``entry``; flag mutable-global touches."""
        reported: set[tuple[str, str, str]] = set()
        visited = {entry.qualname}
        queue: list[tuple[str, tuple[str, ...]]] = [
            (entry.qualname, (entry.qualname,))
        ]
        while queue:
            qual, path = queue.pop(0)
            fi = program.functions.get(qual)
            if fi is None:
                continue
            for mod_name, gname in sorted(fi.global_writes):
                key = ("write", mod_name, gname)
                if key not in reported:
                    reported.add(key)
                    yield self._shared_state_violation(
                        module, call_node, path, "writes", mod_name, gname,
                        program,
                    )
            for mod_name, gname in sorted(fi.global_reads):
                info = program.global_index.get(f"{mod_name}.{gname}")
                if info is None or not info.mutable:
                    continue
                key = ("read", mod_name, gname)
                if key not in reported and ("write", mod_name, gname) not in reported:
                    reported.add(key)
                    yield self._shared_state_violation(
                        module, call_node, path, "reads", mod_name, gname,
                        program,
                    )
            callees = sorted(
                {site.callee for site in fi.calls} | fi.refs
            )
            for callee in callees:
                target = program.function_for(callee)
                if target is None or target.qualname in visited:
                    continue
                visited.add(target.qualname)
                queue.append((target.qualname, path + (target.qualname,)))

    def _shared_state_violation(
        self, module, call_node, path, verb, mod_name, gname, program
    ):
        info = program.global_index.get(f"{mod_name}.{gname}")
        kind = f" ({info.kind})" if info is not None else ""
        chain = " -> ".join(path)
        return self.violation(
            module.source,
            call_node,
            f"pooled callable reaches shared mutable state: {chain} {verb} "
            f"module global '{mod_name}.{gname}'{kind} — fork-copied state "
            "diverges across workers; pass it as an argument or return it",
        )
