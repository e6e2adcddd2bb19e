"""Examples stay importable and their cheap paths run.

The full examples take minutes (they train models); here we compile all of
them, exercise the quickstart end to end with a reduced workload by reusing
its building blocks, and run the strategy explorer (seconds) as it ships.
"""

import hashlib
import importlib.util
from pathlib import Path
import py_compile
import sys

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: sha256 of the strategy explorer's stdout; its mix and every strategy's
#: simulation are seeded, so the report is the same on every run
EXPLORER_STDOUT_SHA256 = "ac18649acd51e537ae911543762755eaa14e029694201a14c539f10d3e0733ee"


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert {
            "quickstart.py",
            "multi_tenant_datacenter.py",
            "online_adaptation.py",
            "page_allocation_study.py",
        } <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(
            str(path), cfile=str(tmp_path / f"{path.stem}.pyc"), doraise=True
        )

    def test_quickstart_logic_small(self, capsys):
        """The quickstart's core loop on a tiny workload."""
        from repro.core import StrategySpace
        from repro.ssd import SSDConfig, simulate
        from repro.workloads import WorkloadSpec, synthesize_mix

        config = SSDConfig.small()
        tenants = [
            WorkloadSpec(name="logger", write_ratio=0.95, rate_rps=12_000,
                         footprint_pages=8192),
            WorkloadSpec(name="web", write_ratio=0.05, rate_rps=14_000,
                         footprint_pages=8192),
        ]
        mixed = synthesize_mix(tenants, total_requests=400, seed=42)
        space = StrategySpace(config.channels, 2)
        write_dominated = [s.is_write_dominated for s in tenants]
        totals = {}
        for strategy in space:
            sets = strategy.channel_sets(config.channels, write_dominated)
            totals[strategy.label] = simulate(
                list(mixed.requests), config, sets
            ).total_latency_us
        assert len(totals) == 8
        assert all(v > 0 for v in totals.values())

    def test_strategy_explorer_runs(self, capsys, monkeypatch):
        # loading by path would cache bytecode under examples/__pycache__
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(
            "strategy_explorer", EXAMPLES_DIR / "strategy_explorer.py"
        )
        explorer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(explorer)
        explorer.main()
        out = capsys.readouterr().out
        assert "Fast-model ranking (top 8 of 42)" in out
        assert "Event-driven confirmation (top 3)" in out
        assert "recommended allocation for this mix:" in out
        assert hashlib.sha256(out.encode()).hexdigest() == EXPLORER_STDOUT_SHA256
