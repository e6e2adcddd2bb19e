"""The whole program as the call-graph tests see it, parsed once per session.

``src/repro`` is the package under test.  Every file under
:data:`ROOT_DIRS` is program code too: it calls the package and nothing
calls it, so each of those files is a root in full.  The package also
reaches a few of its own definitions by string, and those strings are
read here so that the tests need no copy of them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.analysis.engine import ModuleSource
from repro.analysis.program import ModuleInfo, Program

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ROOT_DIRS = ("perfbench", "benchmarks", "examples")


@dataclass(frozen=True)
class Codebase:
    """A :class:`Program` over ``src/`` and the root files."""

    program: Program
    #: the modules of ``src/repro``
    src: tuple[ModuleInfo, ...]
    #: the modules under :data:`ROOT_DIRS`, each a root in full
    roots: tuple[ModuleInfo, ...]
    #: canonical names reached by string: the lab entry points the CLI
    #: imports by module name and the functions ``perfbench`` wraps in spans
    by_string: frozenset[str]


def _root_source(path: Path) -> ModuleSource:
    """A root file, named by its path so that no two roots collide."""
    name = ".".join(path.relative_to(ROOT).with_suffix("").parts)
    return replace(ModuleSource.parse(path), module=name)


def _lab_entry_points(cli: ModuleInfo) -> set[str]:
    """``add_arguments`` and ``run`` of each module in the CLI's table."""
    table = cli.globals["_COMMANDS"].value
    served = {ast.literal_eval(value)[0] for value in table.values}
    return {
        f"repro.harness.{module}.{entry}"
        for module in served - {None}
        for entry in ("add_arguments", "run")
    }


def _span_targets(spans: ModuleInfo) -> set[str]:
    """``module.attribute`` of each ``spans.TARGETS`` entry."""
    targets = spans.globals["TARGETS"].value
    return {f"{entry.elts[1].value}.{entry.elts[2].value}" for entry in targets.elts}


@pytest.fixture(scope="session")
def codebase() -> Codebase:
    src = [ModuleSource.parse(path) for path in sorted(SRC.rglob("*.py"))]
    roots = [
        _root_source(path)
        for top in ROOT_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    program = Program.build([*src, *roots])
    modules = program.modules
    return Codebase(
        program=program,
        src=tuple(modules[s.module] for s in src),
        roots=tuple(modules[r.module] for r in roots),
        by_string=frozenset(
            _lab_entry_points(modules["repro.harness.cli"])
            | _span_targets(modules["perfbench.spans"])
        ),
    )
