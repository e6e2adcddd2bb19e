"""Shared fixtures and hypothesis settings."""

from __future__ import annotations

from pathlib import Path
import subprocess

from hypothesis import HealthCheck, settings
import numpy as np
import pytest

from repro.ssd import SSDConfig

# Keep property tests fast on the single-core CI box.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

ROOT = Path(__file__).resolve().parents[1]


def _git_status() -> str | None:
    """``git status --porcelain`` of the checkout; ``None`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def checkout_left_unchanged():
    """Fail the session if the tests changed the checkout's git status.

    Tests write only under their temp dirs; a tracked file modified or an
    untracked file left behind shows up here.  Outside a git checkout the
    guard does nothing.
    """
    before = _git_status()
    yield
    if before is None:
        return
    after = _git_status()
    assert after == before, (
        "the test session changed the checkout:\n"
        f"before:\n{before}after:\n{after}"
    )


@pytest.fixture
def paper_config() -> SSDConfig:
    """The exact Table-I device."""
    return SSDConfig.paper()


@pytest.fixture
def small_config() -> SSDConfig:
    """Paper topology with fewer blocks (fast sweeps)."""
    return SSDConfig.small()


@pytest.fixture
def tiny_config() -> SSDConfig:
    """Very small planes so GC triggers with short traces."""
    return SSDConfig(
        channels=8,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=8,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
