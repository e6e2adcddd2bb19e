"""Shared fixtures and hypothesis settings."""

from __future__ import annotations

from pathlib import Path
import shutil
import subprocess
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis.configuration import set_hypothesis_home_dir
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


#: git-ignored directories of the checkout that tools write by default
_IGNORED_DIRS = (".repro-cache", ".hypothesis", "examples/__pycache__")


def _ignored_files() -> dict[Path, tuple[int, int]]:
    """``(mtime_ns, size)`` of each file under :data:`_IGNORED_DIRS`.

    ``git status --porcelain`` hides these directories, so the guard
    lists them itself.
    """
    stamps = {}
    for name in _IGNORED_DIRS:
        root = ROOT / name
        if root.is_dir():
            for p in root.rglob("*"):
                if p.is_file():
                    st = p.stat()
                    stamps[p] = (st.st_mtime_ns, st.st_size)
    return stamps


#: taken at import, before collection: hypothesis's pytest plugin caches
#: the test modules' constants while collecting, before any fixture runs
_IGNORED_AT_START = _ignored_files()

#: hypothesis's storage (``.hypothesis/`` under the working directory by
#: default), moved here for the same reason
_HYPOTHESIS_HOME = Path(tempfile.mkdtemp(prefix="repro-hypothesis-"))
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


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
    added or rewritten under one of the ignored :data:`_IGNORED_DIRS`
    shows up in its listing.  Outside a git checkout the status check
    does nothing.
    """
    before = _git_status()
    yield
    written = sorted(
        str(p.relative_to(ROOT))
        for p, stamp in _ignored_files().items()
        if _IGNORED_AT_START.get(p) != stamp
    )
    assert not written, (
        f"the test session wrote {len(written)} git-ignored file(s): "
        + ", ".join(written[:5])
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
