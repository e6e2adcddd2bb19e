"""Every definition in ``src/repro`` is reached from outside the tests.

A definition is a module-level ``def`` or ``class``, or a non-dunder
method of a module-level class.  It is reached when it is mentioned in

* a root: module-level code of a non-``__init__`` module of ``src/``,
  every file under ``perfbench/``, ``benchmarks/`` and ``examples/``, the
  lab entry points the CLI imports by module name and the functions
  ``perfbench`` wraps in spans (see ``conftest.py``);
* the body of a reached definition (to a fixpoint);
* a ``KEEP`` entry, each of which is also a root.

Names resolve on the :class:`~repro.analysis.program.Program`: a name or
dotted attribute chain is canonicalised in the module it appears in, so
``traces.load`` and a ``load`` imported from ``repro.workloads.traces``
both reach ``repro.workloads.traces.load``, and a re-export through an
``__init__`` reaches the definition it names.  Only methods, whose
receiver type is not known statically, fall back to bare names: any
attribute or string constant ``x`` reaches every method named ``x``.
Import statements are not uses and ``__init__`` modules are not roots, so
a re-export or an ``__all__`` string keeps nothing alive.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.program import ModuleInfo, dotted_name

#: Reached by nothing in the program, kept on purpose.
KEEP = {
    "repro.ssd.geometry:Geometry.pack":
        "paper-facing: a structural address to its PPN, the page hierarchy of Table I",
    "repro.ssd.geometry:Geometry.unpack":
        "paper-facing: a PPN back to its structural address, the inverse of pack",
    "repro.ssd.timing:ServiceTimes.read_service_us":
        "paper-facing: Table I's idle-device read service time, the timing oracle",
    "repro.ssd.timing:ServiceTimes.write_service_us":
        "paper-facing: Table I's idle-device write service time, the timing oracle",
    "repro.core.allocator:ChannelAllocator.overhead_report":
        "paper-facing: Section IV-D's storage/compute overhead",
    "repro.core.allocator:OverheadReport":
        "paper-facing: what overhead_report returns",
    "repro.nn.network:MLP.forward_multiplies":
        "paper-facing: Section IV-D's compute estimate, sum of N_i * N_(i+1)",
    "repro.analysis.engine:LintEngine.lint_file":
        "the lint engine's single-file entry, the unit the rule tests drive",
    "repro.obs.flightrecorder:load_manifest":
        "schema reader: R007 pairs it with the manifest writer",
}


@dataclass(frozen=True)
class Definition:
    module: ModuleInfo
    #: ``module.qualname``, the name :meth:`Program.canonical` gives it
    canonical: str
    #: the bare name a method is also reached by; ``None`` for the rest
    method: str | None
    #: what reaching it reaches in turn; a class's body is everything but
    #: its non-dunder methods
    body: tuple[ast.AST, ...]


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    """``__all__ = [...]`` (or ``+=``): export lists are not uses."""
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _top_level(info: ModuleInfo) -> list[ast.stmt]:
    return [
        node for node in info.source.tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_all(node)
    ]


def definitions(codebase) -> dict[str, Definition]:
    """``"module:qualname"`` -> :class:`Definition` for all of ``src/``."""
    found: dict[str, Definition] = {}
    for info in codebase.src:
        for node in _top_level(info):
            if not _is_def(node):
                continue
            key = f"{info.name}:{node.name}"
            if not isinstance(node, ast.ClassDef):
                found[key] = Definition(info, f"{info.name}.{node.name}", None, (node,))
                continue
            body: list[ast.AST] = [*node.decorator_list, *node.bases, *node.keywords]
            for item in node.body:
                if _is_def(item) and not _is_dunder(item.name):
                    found[f"{key}.{item.name}"] = Definition(
                        info, f"{info.name}.{node.name}.{item.name}", item.name, (item,)
                    )
                else:
                    body.append(item)
            found[key] = Definition(info, f"{info.name}.{node.name}", None, tuple(body))
    return found


def _mentions(program, info: ModuleInfo, nodes) -> tuple[set[str], set[str]]:
    """(canonical names, attribute names and strings) under ``nodes``."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                dotted = dotted_name(sub)
                if dotted is not None:
                    names.add(program.canonical(info, dotted))
                if isinstance(sub, ast.Attribute):
                    attributes.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                attributes.add(sub.value)
    return names, attributes


def unreached(codebase, keep=KEEP) -> list[str]:
    """Definitions in ``src/`` that no root reaches, minus ``keep``."""
    program = codebase.program
    found = definitions(codebase)
    names: set[str] = set(codebase.by_string)
    attributes: set[str] = set()

    def mention(info, nodes) -> None:
        more_names, more_attributes = _mentions(program, info, nodes)
        names.update(more_names)
        attributes.update(more_attributes)

    for info in codebase.roots:
        mention(info, [info.source.tree])
    for info in codebase.src:
        if not info.is_package:
            mention(info, [n for n in _top_level(info) if not _is_def(n)])
    for key in keep.keys() & found.keys():
        mention(found[key].module, found[key].body)

    def reached(d: Definition) -> bool:
        return d.canonical in names or d.method in attributes

    expanded: set[str] = set()
    while True:
        grown = [k for k, d in found.items() if k not in expanded and reached(d)]
        if not grown:
            break
        for key in grown:
            expanded.add(key)
            mention(found[key].module, found[key].body)
    return sorted(key for key, d in found.items() if not reached(d) and key not in keep)


def test_keep_holds_only_unreached_definitions(codebase):
    assert sorted(set(KEEP) - set(definitions(codebase))) == []
    assert sorted(set(KEEP) - set(unreached(codebase, keep={}))) == []


def test_every_definition_is_reached(codebase):
    missing = unreached(codebase)
    assert missing == [], (
        "definitions no program code reaches (delete them, or add them to "
        "KEEP with a reason):\n  " + "\n  ".join(missing)
    )
