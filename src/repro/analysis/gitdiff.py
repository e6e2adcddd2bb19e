"""Changed-file discovery for ``repro lint --changed``.

The diff-aware mode still parses the whole tree (the interprocedural
rules need every module in the program), but only *reports* violations in
files that differ from the base revision — tracked changes against
``--diff-base`` (default ``HEAD``) plus untracked python files.
"""

from __future__ import annotations

from pathlib import Path
import subprocess

__all__ = ["changed_python_files", "GitError"]


class GitError(RuntimeError):
    """git was unavailable or the working directory is not a repository."""


def _git(args: list[str], cwd: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise GitError(f"git {' '.join(args)} failed: {exc}") from exc
    if proc.returncode != 0:
        raise GitError(
            f"git {' '.join(args)} failed: {proc.stderr.strip() or proc.returncode}"
        )
    return proc.stdout


def changed_python_files(*, base: str = "HEAD") -> list[Path]:
    """Python files changed vs ``base``, plus untracked ones, repo-relative.

    Deleted files are excluded (there is nothing left to lint).  Paths are
    returned relative to the repository root, sorted posix-style.
    """
    root = Path(_git(["rev-parse", "--show-toplevel"], Path(".")).strip())
    changed = _git(
        ["diff", "--name-only", "--diff-filter=d", base, "--", "*.py"], root
    )
    untracked = _git(
        ["ls-files", "--others", "--exclude-standard", "--", "*.py"], root
    )
    names = {
        line.strip()
        for blob in (changed, untracked)
        for line in blob.splitlines()
        if line.strip()
    }
    paths = [root / name for name in names]
    return sorted(
        (p for p in paths if p.exists()), key=lambda p: p.as_posix()
    )
