"""Whole-program model: package-wide symbol table and call graph.

The per-file rules (R001–R004) see one :class:`~repro.analysis.engine.ModuleSource`
at a time, which is exactly why they cannot answer the questions that span
modules: *where did this RNG's seed come from?* (the construction site and
the seed parameter live in different modules), *who reads this
schema-versioned document back?* (the reader lives in another package).

:class:`Program` answers them.  It is built once per engine run from the
already-parsed modules — one parse per file, no re-walking — and records:

* a **symbol table** per module: import aliases (absolute and relative,
  chased through re-exporting ``__init__`` modules), module-level globals
  with their assigned values, functions, classes and their methods;
* a **call graph**: every resolved call edge out of each function;
* per-function **bindings**: the names a function binds locally and the
  names it declares ``global``.

Resolution is *canonicalising*: ``np.random.default_rng`` becomes
``numpy.random.default_rng`` whatever the local alias, and a name imported
through ``repro.harness`` resolves to its defining module
``repro.harness.cache.default_cache``.  Names that leave the program (stdlib,
numpy internals) stay dotted-absolute so rules can match them by literal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import ModuleSource

__all__ = [
    "Program",
    "ModuleInfo",
    "FunctionInfo",
    "GlobalInfo",
    "CallSite",
    "dotted_name",
]

def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class GlobalInfo:
    """One module-level binding."""

    name: str
    module: str
    lineno: int
    value: ast.expr | None = None


@dataclass
class CallSite:
    """One resolved call edge out of a function."""

    callee: str  # canonical dotted name (program qualname or external)
    node: ast.Call


@dataclass
class FunctionInfo:
    """One def (top-level, method, or nested) plus its calls and bindings."""

    qualname: str  # e.g. repro.harness.cli.main / repro.obs.slo.SloSpec.to_dict
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: list[str]
    is_method: bool = False
    nested: bool = False
    lineno: int = 0
    calls: list[CallSite] = field(default_factory=list)
    local_names: set[str] = field(default_factory=set)
    global_decls: set[str] = field(default_factory=set)

    def bindable_params(self) -> list[str]:
        """Parameters a caller can bind (drops the self/cls receiver)."""
        if self.params and self.params[0] in ("self", "cls"):
            return self.params[1:]
        return self.params


@dataclass
class ModuleInfo:
    """One module's symbol table."""

    source: ModuleSource
    name: str
    is_package: bool
    aliases: dict[str, str] = field(default_factory=dict)
    globals: dict[str, GlobalInfo] = field(default_factory=dict)
    #: local qualifier ("f", "Cls.m") -> FunctionInfo
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class local name -> list of method local names
    classes: dict[str, list[str]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]


class Program:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: canonical class qualname -> defining ModuleInfo
        self.class_index: dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: Sequence[ModuleSource] | Iterable[ModuleSource]) -> "Program":
        program = cls()
        for source in sources:
            info = _index_module(source)
            # First module wins on a name collision (e.g. duplicated fixture
            # pragma): deterministic because sources arrive sorted.
            program.modules.setdefault(info.name, info)
        for info in program.modules.values():
            for fi in info.functions.values():
                program.functions[fi.qualname] = fi
            for cname in info.classes:
                program.class_index[f"{info.name}.{cname}"] = info
        for info in program.modules.values():
            _analyze_module(program, info)
        return program

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def canonical(self, module: ModuleInfo, dotted: str) -> str:
        """Canonicalise a dotted name as written inside ``module``.

        Program symbols come back as their defining qualname; external
        names come back absolute (``numpy.random.default_rng``); names we
        cannot place (builtins, locals) come back unchanged.
        """
        head, _, rest = dotted.partition(".")
        if head in module.aliases:
            base = module.aliases[head]
        elif (
            head in module.functions
            or head in module.classes
            or head in module.globals
        ):
            base = f"{module.name}.{head}"
        else:
            return dotted
        full = base + (f".{rest}" if rest else "")
        return self._chase(full, seen=set())

    def _chase(self, full: str, seen: set[str]) -> str:
        """Follow import chains (``from .cache import default_cache`` re-exports)."""
        if full in seen:
            return full
        seen.add(full)
        parts = full.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            mod = self.modules.get(prefix)
            if mod is None:
                continue
            nxt = parts[i]
            tail = parts[i + 1:]
            if nxt in mod.aliases:
                return self._chase(".".join([mod.aliases[nxt], *tail]), seen)
            return full
        return full

    def function_for(self, canonical: str) -> FunctionInfo | None:
        """FunctionInfo for a canonical name; classes map to ``__init__``."""
        fi = self.functions.get(canonical)
        if fi is not None:
            return fi
        if canonical in self.class_index:
            return self.functions.get(f"{canonical}.__init__")
        return None

    def bind_args(
        self, call: ast.Call, callee: FunctionInfo
    ) -> dict[str, ast.expr]:
        """Map call arguments onto the callee's parameter names.

        Starred args/kwargs are skipped (unresolvable statically); the
        self/cls receiver is never bound.
        """
        params = callee.bindable_params()
        bound: dict[str, ast.expr] = {}
        pos = [a for a in call.args if not isinstance(a, ast.Starred)]
        for name, arg in zip(params, pos):
            bound[name] = arg
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                bound[kw.arg] = kw.value
        return bound

    def sorted_functions(self) -> list[FunctionInfo]:
        """Deterministic iteration order for fixpoint passes."""
        return [self.functions[q] for q in sorted(self.functions)]


# ----------------------------------------------------------------------
# Module indexing (pass 1)
# ----------------------------------------------------------------------
def _index_module(source: ModuleSource) -> ModuleInfo:
    info = ModuleInfo(
        source=source,
        name=source.module,
        is_package=source.path.stem == "__init__",
    )
    _collect_imports(info, source.tree)
    _collect_globals(info, source.tree)
    _collect_functions(info, source.tree)
    return info


def _collect_imports(info: ModuleInfo, tree: ast.Module) -> None:
    # Function-local imports are indexed module-wide: a deliberate
    # approximation (the repo imports lazily inside functions a lot, and
    # a local alias shadowing a different module-level one is vanishingly
    # rare here).
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                info.aliases.setdefault(local, target)
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(info, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.aliases.setdefault(local, f"{base}.{alias.name}")


def _import_base(info: ModuleInfo, node: ast.ImportFrom) -> str | None:
    if node.level == 0:
        return node.module
    base = info.package
    for _ in range(node.level - 1):
        base = base.rpartition(".")[0]
        if not base:
            return None
    if node.module:
        base = f"{base}.{node.module}"
    return base or None


def _collect_globals(info: ModuleInfo, tree: ast.Module) -> None:
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            names = (
                [target] if isinstance(target, ast.Name)
                else list(target.elts) if isinstance(target, (ast.Tuple, ast.List))
                else []
            )
            for name_node in names:
                if not isinstance(name_node, ast.Name):
                    continue
                info.globals.setdefault(name_node.id, GlobalInfo(
                    name=name_node.id,
                    module=info.name,
                    lineno=stmt.lineno,
                    value=value,
                ))


def _params_of(node: ast.AST) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return names


def _collect_functions(info: ModuleInfo, tree: ast.Module) -> None:
    def add(node, local_qual: str, *, is_method: bool, nested: bool) -> None:
        fi = FunctionInfo(
            qualname=f"{info.name}.{local_qual}",
            module=info.name,
            name=node.name,
            node=node,
            params=_params_of(node),
            is_method=is_method,
            nested=nested,
            lineno=node.lineno,
        )
        info.functions.setdefault(local_qual, fi)
        for child in node.body:
            _walk_nested(child, local_qual)

    def _walk_nested(node: ast.AST, parent_qual: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, f"{parent_qual}.{node.name}", is_method=False, nested=True)
            return
        for child in ast.iter_child_nodes(node):
            _walk_nested(child, parent_qual)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(stmt, stmt.name, is_method=False, nested=False)
        elif isinstance(stmt, ast.ClassDef):
            methods: list[str] = []
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    add(item, f"{stmt.name}.{item.name}",
                        is_method=True, nested=False)
            info.classes[stmt.name] = methods


# ----------------------------------------------------------------------
# Call and binding analysis (pass 2)
# ----------------------------------------------------------------------
def _analyze_module(program: Program, info: ModuleInfo) -> None:
    for local_qual, fi in info.functions.items():
        if fi.nested:
            # the enclosing function owns its nested defs' calls; the
            # nested FunctionInfo exists only so calls to it resolve
            continue
        _analyze_function(program, info, fi)


def _analyze_function(program: Program, info: ModuleInfo, fi: FunctionInfo) -> None:
    body = fi.node
    for node in ast.walk(body):
        if isinstance(node, ast.Global):
            fi.global_decls.update(node.names)

    # Local bindings: params, assignment targets, comprehension targets,
    # nested def/lambda names, with/except/for targets, local imports.
    fi.local_names.update(fi.params)
    for node in ast.walk(body):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id not in fi.global_decls:
                fi.local_names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not body:
            fi.local_names.add(node.name)
            fi.local_names.update(_params_of(node))
        elif isinstance(node, ast.Lambda):
            fi.local_names.update(_params_of(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                fi.local_names.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    fi.local_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            fi.local_names.add(node.name)

    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            callee = _resolve_call(program, info, fi, node)
            if callee is not None:
                fi.calls.append(CallSite(callee=callee, node=node))


def _resolve_call(
    program: Program, info: ModuleInfo, fi: FunctionInfo, node: ast.Call
) -> str | None:
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head = dotted.partition(".")[0]
    if head in ("self", "cls") and fi.is_method:
        if "." not in dotted:
            return None  # bare self(...) — callable instance
        # self.method() -> same-class method
        cls_qual = fi.qualname.rsplit(".", 1)[0]  # module.Cls
        method = dotted.split(".", 1)[1]
        if "." not in method:
            candidate = f"{cls_qual}.{method}"
            if candidate in program.functions:
                return candidate
        return None
    if head in fi.local_names and head not in info.aliases:
        # a genuinely local callable (lambda var, nested def): keep nested
        # defs resolvable, drop the rest
        if dotted in {f.name for f in info.functions.values() if f.nested}:
            base = fi.qualname
            candidate = f"{base}.{dotted}"
            if candidate in program.functions:
                return candidate
        return None
    return program.canonical(info, dotted)
