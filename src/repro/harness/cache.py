"""Disk cache for expensive experiment artifacts.

Label datasets and trained models take minutes to build; every bench and
example that needs them goes through :class:`ArtifactCache` so the cost is
paid once per (key, parameters) combination.  Keys hash the full parameter
dict, so changing any knob invalidates cleanly.

The cache lives in ``.repro-cache/`` next to the repository root (or
``$REPRO_CACHE_DIR``); entries are plain files, safe to delete at any time.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["ArtifactCache", "default_cache"]


def _stable_hash(params: dict) -> str:
    """Deterministic short hash of a JSON-serialisable parameter dict."""
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class ArtifactCache:
    """File-per-artifact cache with save/load callbacks."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or Path.cwd() / ".repro-cache"
        self.root = Path(root)

    def path_for(self, name: str, params: dict, suffix: str) -> Path:
        """Deterministic on-disk location for one artifact."""
        return self.root / f"{name}-{_stable_hash(params)}{suffix}"

    def get_or_build(
        self,
        name: str,
        params: dict,
        *,
        build: Callable[[], T],
        save: Callable[[T, Path], None],
        load: Callable[[Path], T],
        suffix: str = ".bin",
    ) -> T:
        """Return the cached artifact, building and saving it on first use."""
        path = self.path_for(name, params, suffix)
        if path.exists():
            try:
                return load(path)
            except Exception:
                path.unlink(missing_ok=True)  # corrupt entry: rebuild
        artifact = build()
        self.root.mkdir(parents=True, exist_ok=True)
        # Keep the real suffix last: writers like np.savez append their own
        # extension when they don't recognise the file name's suffix.
        tmp = path.with_name(f"{path.stem}.tmp{path.suffix}")
        save(artifact, tmp)
        os.replace(tmp, path)
        return artifact

    def get_or_build_json(
        self, name: str, params: dict, *, build: Callable[[], dict]
    ) -> dict:
        """JSON-document convenience wrapper around :meth:`get_or_build`."""
        return self.get_or_build(
            name,
            params,
            build=build,
            save=lambda doc, p: p.write_text(json.dumps(doc), encoding="utf-8"),
            load=lambda p: json.loads(p.read_text(encoding="utf-8")),
            suffix=".json",
        )


_DEFAULT: ArtifactCache | None = None


def default_cache() -> ArtifactCache:
    """Process-wide cache instance (respects ``$REPRO_CACHE_DIR``)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ArtifactCache()
    return _DEFAULT
