"""``python -m repro``: one subcommand table over the paper and its labs.

Each subcommand names the module under :mod:`repro.harness` that serves
it.  That module exposes ``add_arguments(parser)`` and ``run(args) ->
int`` and is imported only when its subcommand is dispatched.  Shared
flags, output routing and the exit contract live in
:mod:`repro.harness.lab`.  ``run`` returns 0 (success) or 1 (regression,
alert, divergence); a :class:`~repro.harness.lab.UsageError`, like any
argparse error, exits 2.  ``lint`` forwards its arguments to
``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .lab import UsageError

__all__ = ["build_parser", "main"]

#: subcommand -> (serving module, ``repro -h`` line); the module's
#: docstring is the subcommand's description.  ``lint`` is forwarded.
_COMMANDS: dict[str, tuple[str | None, str]] = {
    "info": ("paper", "describe the device, strategy space and scale"),
    "fig2": ("paper", "Figure 2: latency vs write proportion"),
    "fig4": ("paper", "Figure 4: training loss and accuracy"),
    "fig5": ("paper", "Figure 5: per-mix latency per allocation"),
    "fig6": ("paper", "Figure 6: the keeper's strategy decisions"),
    "tab2": ("paper", "Table II: workload statistics"),
    "tab3": ("paper", "Table III: optimizer comparison"),
    "tab5": ("paper", "Table V: features and allocation per mix"),
    "quality": ("paper", "held-out regret of the deployed model"),
    "ablations": ("paper", "the ablation studies"),
    "all": ("paper", "every table and figure above"),
    "stats": ("paper", "one instrumented simulation, metrics and exports"),
    "faults": ("paper", "the stats run under the seeded NAND fault model"),
    "lint": (None, "the domain lints R001-R007 (python -m repro.analysis)"),
    "bench": ("bench", "the fixed benchmark suite with regression tracking"),
    "explain": ("explain", "critical path and exact counterfactuals"),
    "profile": ("hostprofile", "cProfile a scenario's host hot paths"),
    "drift": ("driftlab", "adaptive vs one-shot keeper under drift"),
    "fleet": ("fleetlab", "a seeded multi-device fleet"),
    "diff": ("difflab", "differential forensics between two artifacts"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; only ``command``'s module is imported and
    given its flags."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SSDKeeper paper's tables and figures "
        "and run the labs around them.",
    )
    subcommands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )
    for name, (module, help_line) in _COMMANDS.items():
        sub = subcommands.add_parser(
            name, help=help_line,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        if name == command and module is not None:
            served = importlib.import_module(f"{__package__}.{module}")
            sub.description = served.__doc__
            served.add_arguments(sub)
            sub.set_defaults(run=served.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro``; returns 0 or 1, and exits 2
    (``SystemExit``) on a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from ..analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    args.argv = argv  # the flight recorder's replay command
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
