"""Every definition in ``src/repro`` is reached from outside the tests.

A definition is a module-level ``def`` or ``class``, or a non-dunder
method of a module-level class.  A name counts as referenced when it
appears as an ``ast.Name``, an ``ast.Attribute`` or a string constant in

* a root: module-level code of a non-``__init__`` module of ``src/``,
  every file under ``perfbench/``, ``benchmarks/`` and ``examples/``, and
  the lab entry points the CLI reaches through ``importlib``;
* the body of a definition whose name is referenced (to a fixpoint);
* a ``KEEP`` entry, each of which is also a root.

Import statements are not uses, and ``__init__`` modules are not roots, so
a re-export or an ``__all__`` string keeps nothing alive.  The match is by
bare name: a definition is reached when any definition or root mentions
its name, so a collision can hide an uncalled definition but never flags
a called one.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ROOT_DIRS = ("perfbench", "benchmarks", "examples")

#: Lab modules are imported by name on dispatch and called through these.
ENTRY_POINTS = frozenset({"add_arguments", "run", "main"})

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
    "repro.obs.trace:match_pairs":
        "test oracle: the acquire/release discipline of a trace",
    "repro.obs.flightrecorder:load_manifest":
        "schema reader: R007 pairs it with the manifest writer",
    "repro.harness.sweep:run_sweep":
        "R006's documented pool entry; its interprocedural fixture resolves through it",
    "repro.harness.sweep:auto_processes":
        "R006's documented pool entry; run_sweep's default worker count",
}


def _names(nodes) -> set[str]:
    """Names, attributes and string constants mentioned under ``nodes``."""
    found: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def _is_all(node: ast.AST) -> bool:
    """``__all__ = [...]`` (or ``+=``): export lists are not uses."""
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _collect():
    """``(definitions, root names)`` of ``src/``.

    Definitions map ``"module:qualname"`` to ``(bare name, body nodes)``;
    a class's body is everything but its non-dunder methods.
    """
    definitions: dict[str, tuple[str, list[ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        top = [
            n for n in tree.body
            if not isinstance(n, (ast.Import, ast.ImportFrom)) and not _is_all(n)
        ]
        if path.name != "__init__.py":
            roots |= _names(n for n in top if not _is_def(n))
        for node in top:
            if not _is_def(node):
                continue
            if not isinstance(node, ast.ClassDef):
                definitions[f"{module}:{node.name}"] = (node.name, [node])
                continue
            body: list[ast.AST] = [*node.decorator_list, *node.bases, *node.keywords]
            for item in node.body:
                if _is_def(item) and not _is_dunder(item.name):
                    key = f"{module}:{node.name}.{item.name}"
                    definitions[key] = (item.name, [item])
                else:
                    body.append(item)
            definitions[f"{module}:{node.name}"] = (node.name, body)
    return definitions, roots


def unreached(keep=KEEP) -> list[str]:
    """Definitions in ``src/`` that no root reaches, minus ``keep``."""
    definitions, referenced = _collect()
    referenced |= ENTRY_POINTS
    for top in ROOT_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            referenced |= _names([ast.parse(path.read_text(), filename=str(path))])
    for key in keep.keys() & definitions.keys():
        referenced |= _names(definitions[key][1])
    expanded: set[str] = set()
    while True:
        grown = False
        for key, (name, body) in definitions.items():
            if key not in expanded and name in referenced:
                expanded.add(key)
                referenced |= _names(body)
                grown = True
        if not grown:
            break
    return sorted(
        key for key, (name, _) in definitions.items()
        if name not in referenced and key not in keep
    )


def test_keep_holds_only_unreached_definitions():
    definitions, _ = _collect()
    assert sorted(set(KEEP) - set(definitions)) == []
    assert sorted(set(KEEP) - set(unreached(keep={}))) == []


def test_every_definition_is_reached():
    missing = unreached()
    assert missing == [], (
        "definitions no program code reaches (delete them, or add them to "
        "KEEP with a reason):\n  " + "\n  ".join(missing)
    )
