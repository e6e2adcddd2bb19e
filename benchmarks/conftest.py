"""Shared bench fixtures.

Benches run at the scale named by ``$REPRO_SCALE`` (smoke/default/paper,
default: default).  Experiment results are cached under ``.repro-cache`` so
repeated bench runs only pay for the pytest-benchmark kernels; each bench
also writes its regenerated table to ``results/<name>.txt`` and echoes it
to the terminal.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness import Scale, default_cache


@pytest.fixture(scope="session")
def scale() -> Scale:
    return Scale.from_env()


@pytest.fixture(scope="session")
def cache():
    return default_cache()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture
def report(results_dir, capsys):
    """Write a regenerated table to results/ and echo it to the terminal."""

    def emit(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        with capsys.disabled():
            print(f"\n{text}\n[saved to results/{name}.txt]")

    return emit
