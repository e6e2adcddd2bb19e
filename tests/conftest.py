"""Shared fixtures and hypothesis settings."""

from __future__ import annotations

import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

#: bytecode of everything imported from here on (the package, the other
#: test modules, the examples) and of the CLI subprocesses the tests start
#: goes under a temp dir instead of ``__pycache__/`` in the checkout
_PYCACHE = tempfile.mkdtemp(prefix="repro-pycache-")
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"] = _PYCACHE

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
_IGNORED_DIRS = (".repro-cache", ".hypothesis", ".pytest_cache")
#: trees whose ``__pycache__/`` directories the guard also lists
_BYTECODE_TREES = ("src", "tests", "examples")


def _ignored_files() -> dict[Path, tuple[int, int]]:
    """``(mtime_ns, size)`` of each file under :data:`_IGNORED_DIRS` and
    under the ``__pycache__/`` directories of :data:`_BYTECODE_TREES`.

    ``git status --porcelain`` hides these directories, so the guard
    lists them itself.
    """
    stamps = {}
    roots = [ROOT / name for name in _IGNORED_DIRS] + [
        cache for tree in _BYTECODE_TREES for cache in (ROOT / tree).rglob("__pycache__")
    ]
    for root in roots:
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
    shutil.rmtree(_PYCACHE, ignore_errors=True)


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
    added or rewritten under a git-ignored directory (see
    :func:`_ignored_files`) shows up in its listing.  Outside a git checkout the status check
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
