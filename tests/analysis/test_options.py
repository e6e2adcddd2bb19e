"""Every option in ``src/repro`` is set by some caller outside the tests.

An option is a parameter with a default, of a module-level function or of
a method of a module-level class, or a field with a default of a
dataclass.  A field of a mutable dataclass that starts from a
``default_factory``, or that the program assigns through an attribute,
is state the object accumulates rather than an option.

An option is set when a resolved call in ``src/`` or in a root file (see
``conftest.py``) passes it, by keyword or by position.  A ``*`` or ``**``
splat passes every parameter, ``dataclasses.replace(obj, name=...)``
passes the field it names, and a callable handed on as a value (a
registry entry, an argument) has every parameter passed, since its
callers are out of sight.

Calls resolve on the :class:`~repro.analysis.program.Program`: a called
name or dotted chain is canonicalised in the module it appears in, a
class call binds to its ``__init__`` (or to its dataclass fields), and
``super().__init__`` binds to the base class's.  Only method calls, whose
receiver type is not known statically, fall back to bare names: ``x.m(...)``
binds to every method named ``m``.  An option no call passes is a
constant in disguise; give it its default's value and delete it, or add it
to ``KEEP`` with a reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.program import ModuleInfo, dotted_name

#: Options no program code passes, kept on purpose.
KEEP = {
    "repro.core.keeper:SSDKeeper(faults=)":
        "safety path: the keeper over a device with the NAND fault model on",
    "repro.workloads.traces:load(strict=)":
        "safety path: raise on the first malformed trace line instead of skipping it",
    "repro.core.labeler:LabelerConfig(objective=)":
        "perfbench reads it to score its label sweeps",
    "repro.core.labeler:LabelerConfig(tie_epsilon=)":
        "perfbench reads it to check its labels",
    "repro.harness.cli:main(argv=)":
        "the CLI's in-process entry; python -m repro passes none and reads sys.argv",
    "repro.harness.cache:ArtifactCache(root=)":
        "a deployment path: where a cache lives; the program's own cache "
        "reads it from REPRO_CACHE_DIR",
    "repro.harness.experiments:cached_learner_or_none(cache=)":
        "which cache to probe, a deployment path like ArtifactCache(root=)",
    "repro.obs.registry:MetricsRegistry.histogram(buckets=)":
        "a histogram with bounds other than the latency buckets; the "
        "OpenMetrics exposition is checked on small ones",
}


@dataclass(frozen=True)
class Signature:
    """What a call to one program callable can bind."""

    #: ``module:qualname``; a class stands for its constructor
    key: str
    #: parameters bindable by position, receiver dropped
    positional: tuple[str, ...]
    #: every parameter bindable by keyword
    names: frozenset[str]
    #: the parameters (or dataclass fields) that have a default
    options: tuple[str, ...]

    def passed(self, call: ast.Call, *, skip: int = 0) -> set[str]:
        """The parameters ``call`` passes, its first ``skip`` arguments aside."""
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            return set(self.names)
        return set(self.positional[: len(call.args) - skip]) | {
            kw.arg for kw in call.keywords
        }


def _function_signature(key: str, node: ast.FunctionDef, bound: bool) -> Signature:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    with_default = positional[len(positional) - len(args.defaults):]
    if bound:
        positional = positional[1:]
    options = [*with_default] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return Signature(
        key, tuple(positional),
        frozenset(positional) | {a.arg for a in args.kwonlyargs}, tuple(options),
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


_FIELD_CALLS = ("field", "dataclasses.field")


def _is_frozen(node: ast.ClassDef) -> bool:
    return any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value
        for d in node.decorator_list if isinstance(d, ast.Call)
        for kw in d.keywords
    )


def _field_signature(key: str, node: ast.ClassDef, assigned: set[str]) -> Signature:
    """A dataclass's generated ``__init__``: its fields, in order, with the
    state fields (see the module docstring) left out of the options."""
    frozen = _is_frozen(node)
    fields, options = [], []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and dotted_name(value.func) in _FIELD_CALLS:
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in keywords or (
                "default_factory" in keywords and frozen
            )
        else:
            has_default = value is not None
        fields.append(item.target.id)
        if has_default and (frozen or item.target.id not in assigned):
            options.append(item.target.id)
    return Signature(key, tuple(fields), frozenset(fields), tuple(options))


@dataclass
class Callables:
    """The program's callables with options, indexed for call resolution."""

    #: canonical name -> signature; a class maps to its constructor's
    by_canonical: dict[str, Signature]
    #: bare method name -> the signature of every method so named
    by_method: dict[str, list[Signature]]
    #: every dataclass's canonical name -> its field signature
    dataclasses: dict[str, Signature]
    #: canonical class name -> its base classes' canonical names
    bases: dict[str, list[str]]


def _assigned_attributes(codebase) -> set[str]:
    """Every attribute name ``src/`` assigns (``x.name = ...``, ``+=``)."""
    return {
        node.attr
        for info in codebase.src
        for node in ast.walk(info.source.tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }


def callables(codebase) -> Callables:
    program = codebase.program
    assigned = _assigned_attributes(codebase)
    found = Callables({}, {}, {}, {})
    inherits: dict[str, str] = {}
    for info in codebase.src:
        for node in info.source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.by_canonical[f"{info.name}.{node.name}"] = _function_signature(
                    f"{info.name}:{node.name}", node, bound=False
                )
            if not isinstance(node, ast.ClassDef):
                continue
            qual, key = f"{info.name}.{node.name}", f"{info.name}:{node.name}"
            found.bases[qual] = [
                program.canonical(info, name)
                for name in map(dotted_name, node.bases) if name is not None
            ]
            if _is_dataclass(node):
                signature = _field_signature(key, node, assigned)
                found.dataclasses[qual] = found.by_canonical[qual] = signature
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(dotted_name(d) == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    found.by_canonical[qual] = _function_signature(key, item, bound=True)
                    continue
                signature = _function_signature(f"{key}.{item.name}", item, bound=not static)
                found.by_canonical[f"{qual}.{item.name}"] = signature
                found.by_method.setdefault(item.name, []).append(signature)
            if qual not in found.by_canonical and found.bases[qual]:
                inherits[qual] = found.bases[qual][0]
    for qual, base in inherits.items():
        while base in inherits:
            base = inherits[base]
        if base in found.by_canonical:
            found.by_canonical[qual] = found.by_canonical[base]
    return found


def _calls(info: ModuleInfo):
    """``(enclosing class name or None, call)`` for every call in a module."""
    for node in info.source.tree.body:
        owner = f"{info.name}.{node.name}" if isinstance(node, ast.ClassDef) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                yield owner, sub


def _callees(program, found: Callables, info, owner, call) -> list[Signature]:
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and dotted_name(func.value.func) == "super"
        and owner is not None
    ):
        name = "" if func.attr == "__init__" else f".{func.attr}"
        return [
            found.by_canonical[base + name]
            for base in found.bases.get(owner, ())
            if base + name in found.by_canonical
        ]
    dotted = dotted_name(func)
    if dotted is None:
        return found.by_method.get(func.attr, []) if isinstance(func, ast.Attribute) else []
    head, _, rest = dotted.partition(".")
    if owner is not None and head in ("self", "cls"):
        if not rest:
            constructs = head == "cls" and owner in found.by_canonical
            return [found.by_canonical[owner]] if constructs else []
        if f"{owner}.{rest}" in found.by_canonical:
            return [found.by_canonical[f"{owner}.{rest}"]]
        return found.by_method.get(func.attr, [])
    canonical = program.canonical(info, dotted)
    if canonical in found.by_canonical:
        return [found.by_canonical[canonical]]
    if isinstance(func, ast.Attribute):
        return found.by_method.get(func.attr, [])
    return []


def _replaced(found: Callables, owner, call) -> list[tuple[Signature, set[str]]]:
    """``dataclasses.replace(obj, ...)``: the fields it passes, by name.

    ``obj`` is ``self`` inside a dataclass's own method; anywhere else its
    type is unknown and a keyword passes the field so named in every
    dataclass.
    """
    if call.args and isinstance(call.args[0], ast.Name) and call.args[0].id == "self":
        if owner in found.dataclasses:
            signature = found.dataclasses[owner]
            return [(signature, signature.passed(call, skip=1))]
    keywords = {kw.arg for kw in call.keywords}
    return [(s, keywords & s.names) for s in found.dataclasses.values()]


#: calls whose arguments name a callable without handing it on: type
#: tests, and ``field(default_factory=...)``, which calls it with nothing
_NOT_ESCAPES = frozenset({"isinstance", "issubclass", *_FIELD_CALLS})


def _value_positions(tree: ast.Module):
    """Every node of ``tree`` outside annotations, type tests and
    ``except`` clauses, which name a callable without handing it on."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call) and dotted_name(node.func) in _NOT_ESCAPES:
            continue
        yield node
        for name, child in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            if isinstance(node, ast.ExceptHandler) and name == "type":
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))


def _escaped(program, found: Callables, info: ModuleInfo) -> list[Signature]:
    """Callables a module hands on as values (a registry entry, an argument,
    an assignment, a return value): who calls them, and with what, is out of
    sight, so every parameter counts as passed."""
    escaped = []
    for parent in _value_positions(info.source.tree):
        if isinstance(parent, ast.Call):
            values = [*parent.args, *(kw.value for kw in parent.keywords)]
        elif isinstance(parent, ast.Dict):
            values = parent.values
        elif isinstance(parent, (ast.List, ast.Tuple, ast.Set)):
            values = parent.elts
        elif isinstance(parent, (ast.Assign, ast.AnnAssign, ast.Return)):
            values = [parent.value]
        else:
            continue
        for value in values:
            dotted = dotted_name(value) if value is not None else None
            if dotted is None:
                continue
            canonical = program.canonical(info, dotted)
            if canonical in found.by_canonical:
                escaped.append(found.by_canonical[canonical])
    return escaped


def unset(codebase, keep=KEEP) -> list[str]:
    """Options in ``src/`` that no program call passes, minus ``keep``."""
    program = codebase.program
    found = callables(codebase)
    passed: dict[str, set[str]] = {}
    for info in (*codebase.src, *codebase.roots):
        for owner, call in _calls(info):
            dotted = dotted_name(call.func)
            if dotted is not None and program.canonical(info, dotted) == "dataclasses.replace":
                bound = _replaced(found, owner, call)
            else:
                bound = [(s, s.passed(call)) for s in _callees(program, found, info, owner, call)]
            for signature, names in bound:
                passed.setdefault(signature.key, set()).update(names)
        for signature in _escaped(program, found, info):
            passed.setdefault(signature.key, set()).update(signature.names)
    signatures = {s.key: s for s in found.by_canonical.values()}
    return sorted(
        f"{key}({option}=)"
        for key, signature in signatures.items()
        for option in signature.options
        if option not in passed.get(key, ())
        and f"{key}({option}=)" not in keep
    )


def test_keep_holds_only_unset_options(codebase):
    assert sorted(set(KEEP) - set(unset(codebase, keep={}))) == []


def test_every_option_is_set(codebase):
    missing = unset(codebase)
    assert missing == [], (
        "options no program call passes (make each a constant at its "
        "default, or add it to KEEP with a reason):\n  " + "\n  ".join(missing)
    )
