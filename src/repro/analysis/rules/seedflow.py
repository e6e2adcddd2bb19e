"""R005 — seed-provenance taint tracking across the call graph.

The repository's reproducibility contract is that every random stream is
derived from an *explicit* seed: a ``seed`` parameter, a config field
(``config.seed``, ``spec.fault_seed``), or a literal.  R002 already bans
drawing from the process-global stream; R005 closes the remaining holes
at the **construction sites**:

* **ambient seeding** — ``np.random.default_rng()`` / ``default_rng(None)``
  pulls OS entropy; two runs diverge silently;
* **untraceable seeds** — ``random.Random(x)`` where ``x`` cannot be
  traced (through local assignments and, interprocedurally, through the
  call graph's argument-to-parameter bindings) back to a seed parameter
  or config field;
* **module-global RNGs** — an RNG stored in a module global is shared
  process state: import order and every other caller corrupt its
  lineage;
* **seed fan-out** — the *same* seed expression constructing two RNGs in
  one function yields two identical (not independent) streams; derive
  per-consumer seeds (``seed + 1``, ``SeedSequence(seed).spawn``) instead.

Taint propagation is optimistic-interprocedural: a parameter is
seed-tainted when its name matches the seed pattern **or** any caller
passes a tainted expression in its position.  Literal integer seeds are
accepted — they are reproducible by construction.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from . import ProgramRule

__all__ = ["SeedProvenanceRule"]

#: canonical constructor names that mint a random stream
_RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
})

_SEED_NAME_RE = re.compile(r"(^|_)(seed|seeds|entropy)($|_)", re.IGNORECASE)

_MAX_TAINT_ROUNDS = 12


def _is_seed_name(name: str) -> bool:
    return bool(_SEED_NAME_RE.search(name))


class SeedProvenanceRule(ProgramRule):
    """R005: every RNG construction traces to an explicit seed."""

    code = "R005"
    summary = (
        "RNG construction sites must be seeded from an explicit seed "
        "parameter, config field, or literal — never ambient entropy, "
        "never stored in module globals, never the same seed twice"
    )
    applies_to = ()

    # ------------------------------------------------------------------
    def check_program(self, program) -> Iterator:
        tainted_params = self._propagate_param_taint(program)
        for module in sorted(program.modules.values(), key=lambda m: m.name):
            yield from self._check_module_level(program, module)
            for local_qual in sorted(module.functions):
                fi = module.functions[local_qual]
                if fi.nested:
                    continue
                yield from self._check_function(
                    program, module, fi, tainted_params.get(fi.qualname, set())
                )

    # ------------------------------------------------------------------
    def _propagate_param_taint(self, program) -> dict[str, set[str]]:
        """Fixpoint: param is tainted if seed-named or fed a tainted arg."""
        tainted: dict[str, set[str]] = {}
        for fi in program.sorted_functions():
            seeds = {p for p in fi.params if _is_seed_name(p)}
            if seeds:
                tainted[fi.qualname] = seeds
        for _ in range(_MAX_TAINT_ROUNDS):
            changed = False
            for fi in program.sorted_functions():
                if fi.nested:
                    continue
                local = self._local_taint(fi, tainted.get(fi.qualname, set()))
                for site in fi.calls:
                    callee = program.function_for(site.callee)
                    if callee is None:
                        continue
                    for pname, arg in sorted(
                        program.bind_args(site.node, callee).items()
                    ):
                        if not self._expr_tainted(arg, local):
                            continue
                        bucket = tainted.setdefault(callee.qualname, set())
                        if pname not in bucket:
                            bucket.add(pname)
                            changed = True
            if not changed:
                break
        return tainted

    def _local_taint(self, fi, extra_params: set[str]) -> set[str]:
        """Names provably seed-derived inside one function."""
        taint = {p for p in fi.params if _is_seed_name(p)} | set(extra_params)
        taint |= {n for n in fi.local_names if _is_seed_name(n)}
        for _ in range(3):
            grew = False
            for node in ast.walk(fi.node):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.AugAssign):
                    targets, value = [node.target], node.value
                if value is None or not self._expr_tainted(value, taint):
                    continue
                for target in targets:
                    names = (
                        [target] if isinstance(target, ast.Name)
                        else list(target.elts)
                        if isinstance(target, (ast.Tuple, ast.List)) else []
                    )
                    for name_node in names:
                        if (
                            isinstance(name_node, ast.Name)
                            and name_node.id not in taint
                        ):
                            taint.add(name_node.id)
                            grew = True
            if not grew:
                break
        return taint

    @staticmethod
    def _expr_tainted(expr: ast.expr, taint: set[str]) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in taint:
                return True
            if isinstance(node, ast.Attribute) and _is_seed_name(node.attr):
                return True
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
                and _is_seed_name(node.slice.value)
            ):
                return True
        return False

    # ------------------------------------------------------------------
    def _rng_call(self, program, module, fi, node: ast.Call) -> bool:
        from ..program import dotted_name

        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        if fi is not None:
            head = dotted.partition(".")[0]
            if head in fi.local_names and head not in module.aliases:
                return False
        return program.canonical(module, dotted) in _RNG_CONSTRUCTORS

    @staticmethod
    def _seed_argument(node: ast.Call) -> ast.expr | None:
        if node.args and not isinstance(node.args[0], ast.Starred):
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "seed":
                return kw.value
        return None

    # ------------------------------------------------------------------
    def _check_module_level(self, program, module) -> Iterator:
        """RNGs minted at import time are ambient *and* module-global."""
        for stmt in module.source.tree.body:
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if value is None:
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Call) and self._rng_call(
                    program, module, None, node
                ):
                    yield self.violation(
                        module.source,
                        node,
                        "RNG constructed at module import time becomes "
                        "shared process state — construct it inside the "
                        "run path from an explicit seed",
                    )

    def _check_function(self, program, module, fi, extra_params) -> Iterator:
        local = self._local_taint(fi, extra_params)
        sources_seen: dict[str, int] = {}
        for node in ast.walk(fi.node):
            if not (isinstance(node, ast.Call) and self._rng_call(
                program, module, fi, node
            )):
                continue
            if self._stored_in_global(fi, node):
                yield self.violation(
                    module.source,
                    node,
                    "RNG instance stored in a module global — seed lineage "
                    "is lost the moment another caller (or pooled worker) "
                    "shares the stream; pass the RNG explicitly instead",
                )
                continue
            seed_arg = self._seed_argument(node)
            if seed_arg is None or (
                isinstance(seed_arg, ast.Constant) and seed_arg.value is None
            ):
                yield self.violation(
                    module.source,
                    node,
                    "ambient seeding — this RNG draws OS entropy, so two "
                    "runs diverge; thread an explicit seed parameter or "
                    "config field to this construction site",
                )
                continue
            if isinstance(seed_arg, ast.Constant):
                source_key = f"literal {seed_arg.value!r}"
            elif self._expr_tainted(seed_arg, local):
                source_key = self._source_key(seed_arg)
            else:
                rendered = ast.unparse(seed_arg)
                yield self.violation(
                    module.source,
                    node,
                    f"seed expression '{rendered}' cannot be traced to an "
                    "explicit seed parameter or config field through the "
                    "call graph — rename the source to *seed*, or plumb "
                    "the seed through the callers",
                )
                continue
            first = sources_seen.get(source_key)
            if first is not None and self._plain_source(seed_arg):
                yield self.violation(
                    module.source,
                    node,
                    f"seed fan-out: source {source_key} already constructed "
                    f"an RNG at line {first} in this function — identical "
                    "seeds yield identical (not independent) streams; derive "
                    "per-consumer seeds (seed + k, SeedSequence.spawn)",
                )
            elif self._plain_source(seed_arg):
                sources_seen[source_key] = node.lineno
        return

    @staticmethod
    def _plain_source(expr: ast.expr) -> bool:
        """Only undistinguished sources (bare name/attr/literal) fan out."""
        return isinstance(expr, (ast.Name, ast.Attribute, ast.Constant))

    @staticmethod
    def _source_key(expr: ast.expr) -> str:
        return f"'{ast.unparse(expr)}'"

    @staticmethod
    def _stored_in_global(fi, rng_call: ast.Call) -> bool:
        if not fi.global_decls:
            return False
        for node in ast.walk(fi.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            holds_rng = any(child is rng_call for child in ast.walk(value))
            if not holds_rng:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in fi.global_decls:
                    return True
        return False
