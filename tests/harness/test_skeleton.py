"""The lab skeleton: layering, the pinned flag surface, lazy dispatch, and
``--json`` output that is exactly one JSON document."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness.cli import build_parser

from .test_cli_exit_codes import run_cli

SRC = Path(repro.__file__).resolve().parents[1]
REPO = SRC.parent


# ----------------------------------------------------------------------
# Layering: the simulator, keeper, model and obs pillars sit below the
# harness and never reach back up into it
# ----------------------------------------------------------------------
LOWER_LAYERS = ("obs", "ssd", "core", "nn", "workloads", "analysis")


def _imported_modules(path: Path):
    """(line, absolute module name) of every import in one source file."""
    # the package a relative import starts from (an ``__init__`` file's
    # own package, else the module's parent)
    package = list(path.relative_to(SRC).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
            else:
                base = []
            module = base + ([node.module] if node.module else [])
            yield node.lineno, ".".join(module)
            for alias in node.names:  # ``from .. import harness``
                yield node.lineno, ".".join(module + [alias.name])


def test_lower_layers_never_import_harness():
    offenders = []
    for layer in LOWER_LAYERS:
        for path in sorted((SRC / "repro" / layer).rglob("*.py")):
            for line, name in _imported_modules(path):
                if name == "repro.harness" or name.startswith("repro.harness."):
                    rel = path.relative_to(SRC).as_posix()
                    offenders.append(f"{rel}:{line} imports {name}")
    assert offenders == []


# ----------------------------------------------------------------------
# Flag surface: every subcommand keeps exactly the option strings it had
# before the subcommand table replaced the per-lab parsers
# ----------------------------------------------------------------------
_PAPER_FLAGS = {
    "--chrome-trace", "--erase-fail-rate", "--fault-seed", "--flight-dir",
    "--help", "--json", "--max-read-retries", "--metrics-out",
    "--openmetrics", "--program-fail-rate", "--read-ber", "--sanitize",
    "--scale", "--slo", "--telemetry-interval", "--telemetry-out", "--trace",
    "--utilization-interval", "--wear-coupling", "-h",
}

FLAG_SURFACE = {
    **{
        name: _PAPER_FLAGS
        for name in ("info", "fig2", "fig4", "fig5", "fig6", "tab2", "tab3",
                     "tab5", "quality", "ablations", "stats", "faults", "all")
    },
    "bench": {
        "--baseline", "--flight-dir", "--help", "--json", "--max-regression",
        "--no-write", "--out", "--quick", "--repeat", "--scenario", "--slo",
        "--trajectory", "--update-baseline", "-h",
    },
    "diff": {"--help", "-h"},
    "diff bench": {"--help", "--json", "--out", "--wall-tolerance", "-h"},
    "diff critpath": {"--help", "--json", "--out", "-h"},
    "diff fleet": {"--help", "--json", "--out", "-h"},
    "diff run": {
        "--chrome-trace", "--help", "--json", "--out", "--quick", "--scale",
        "--scenario", "-h",
    },
    "diff trace": {"--help", "--json", "--out", "-h"},
    "drift": {
        "--help", "--json", "--out", "--poison", "--quick", "--sanitize",
        "--scenario", "--seed", "-h",
    },
    "explain": {
        "--help", "--json", "--no-whatif", "--out", "--quick", "--sanitize",
        "--scenario", "--top", "-h",
    },
    "fleet": {
        "--chrome-trace", "--devices", "--flight-dir", "--help", "--json",
        "--migrate", "--no-migrate", "--out", "--quick", "--seed", "--slo",
        "--slo-tight", "--tenants", "-h",
    },
    "lint": {
        "--baseline", "--changed", "--check-baseline", "--diff-base",
        "--help", "--json", "--sarif", "--select", "--show-waived",
        "--write-baseline", "-h",
    },
    "profile": {
        "--collapsed", "--help", "--json", "--out", "--quick", "--scenario",
        "--top", "-h",
    },
}


def _subparsers(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _option_strings(command: str) -> set:
    if command == "lint":  # forwarded to python -m repro.analysis
        from repro.analysis.__main__ import build_parser as lint_parser

        parser = lint_parser()
    else:
        name, _, mode = command.partition(" ")
        parser = _subparsers(build_parser(name))[name]
        if mode:
            parser = _subparsers(parser)[mode]
    return {flag for action in parser._actions for flag in action.option_strings}


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_flag_surface_is_pinned(command):
    assert _option_strings(command) == FLAG_SURFACE[command]


def test_every_subcommand_is_pinned():
    commands = set(_subparsers(build_parser()))
    commands |= {f"diff {mode}" for mode in _subparsers(
        _subparsers(build_parser("diff"))["diff"]
    )}
    assert commands == set(FLAG_SURFACE)


# ----------------------------------------------------------------------
# Lazy dispatch: a lab module is imported only for its own subcommand
# ----------------------------------------------------------------------
LAB_MODULES = {
    "repro.harness.bench", "repro.harness.explain",
    "repro.harness.hostprofile", "repro.harness.driftlab",
    "repro.harness.fleetlab", "repro.harness.difflab", "repro.harness.paper",
}


def _loaded_after(statement: str) -> set:
    code = (
        f"import sys\n{statement}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return set(ast.literal_eval(done.stdout))


def test_dispatch_imports_only_the_dispatched_lab():
    assert not _loaded_after("import repro.harness.cli") & LAB_MODULES
    loaded = _loaded_after(
        "from repro.harness.cli import build_parser\nbuild_parser('drift')"
    )
    assert loaded & LAB_MODULES == {"repro.harness.driftlab"}


def test_lab_import_pulls_in_no_dispatcher():
    loaded = _loaded_after("import repro.harness.driftlab")
    assert "repro.harness.cli" not in loaded
    assert loaded & LAB_MODULES == {"repro.harness.driftlab"}


# ----------------------------------------------------------------------
# --json: stdout carries exactly one document, notes go to stderr
# ----------------------------------------------------------------------
JSON_RUNS = {
    "bench": ["bench", "--quick", "--scenario", "fastmodel", "--json",
              "--out", "{tmp}/bench"],
    "bench-baseline": ["bench", "--quick", "--scenario", "fastmodel",
                       "--json", "--out", "{tmp}/bench",
                       "--baseline", str(REPO / "benchmarks/baseline.json"),
                       "--max-regression", "1000"],
    "bench-trajectory": ["bench", "--trajectory", "{tmp}", "--json"],
    "explain": ["explain", "--scenario", "gc_heavy", "--quick",
                "--no-whatif", "--json", "--out", "{tmp}/doc.json"],
    "profile": ["profile", "--scenario", "gc_heavy", "--quick", "--top", "3",
                "--json", "--out", "{tmp}/doc.json"],
    "drift": ["drift", "--quick", "--json", "--out", "{tmp}/doc.json"],
    "fleet": ["fleet", "--quick", "--devices", "2", "--tenants", "2",
              "--json", "--out", "{tmp}/doc.json",
              "--chrome-trace", "{tmp}/fleet.chrome.json"],
    "diff": ["diff", "run", "--scenario", "mix2_shared", "--quick", "--json",
             "--out", "{tmp}/doc.json"],
}


@pytest.mark.parametrize("argv", JSON_RUNS.values(), ids=JSON_RUNS.keys())
def test_json_stdout_is_exactly_one_document(argv, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_cli(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    written = tmp_path / "doc.json"
    if written.exists():
        assert json.loads(written.read_text()) == printed
