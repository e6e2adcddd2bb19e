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


def _cache_files() -> set[Path]:
    """Files under the checkout's ``.repro-cache/`` (git ignores it)."""
    cache = ROOT / ".repro-cache"
    return {p for p in cache.rglob("*") if p.is_file()} if cache.is_dir() else set()


@pytest.fixture(scope="session", autouse=True)
def caches_in_temp_dir(tmp_path_factory):
    """Point the artifact and lint parse caches at a session temp dir.

    Both default to ``.repro-cache/`` under the working directory; CLI
    tests run in subprocesses inherit the environment.
    """
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root / "artifacts"))
        mp.setenv("REPRO_LINT_CACHE_DIR", str(root / "lint-ast"))
        yield


@pytest.fixture(scope="session", autouse=True)
def checkout_left_unchanged():
    """Fail the session if the tests changed the checkout.

    Tests write only under their temp dirs; a tracked file modified or an
    untracked file left behind shows up in ``git status``, and a file
    added under the ignored ``.repro-cache/`` shows up in its listing.
    Outside a git checkout the status check does nothing.
    """
    before = _git_status()
    cache_before = _cache_files()
    yield
    added = sorted(str(p.relative_to(ROOT)) for p in _cache_files() - cache_before)
    assert not added, (
        f"the test session wrote {len(added)} file(s) under .repro-cache/: "
        + ", ".join(added[:5])
    )
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
