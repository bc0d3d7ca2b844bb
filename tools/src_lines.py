#!/usr/bin/env python
"""Line counts of ``src/repro`` per package, and the net delta against a revision.

House rule (b) of ROADMAP.md — every PR reports its net ``src/`` line delta —
as a command instead of a hand count:

    python tools/src_lines.py                 # per-package line counts
    python tools/src_lines.py --base HEAD~1   # ... plus the delta against a revision

A *package* is the first directory under ``src/repro`` (``serve``, ``core``,
...); modules directly under ``src/repro`` count as ``.``.  Lines are
physical lines of ``*.py`` files.  The base side is read with ``git
ls-tree`` / ``git show``, so it needs no second checkout; the working-tree
side is read from disk, so uncommitted edits count.  No third-party
dependencies.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = "src/repro"


def package_of(path: str) -> str:
    """The package a ``src/repro/...`` path (POSIX, repo-relative) belongs to."""
    parts = Path(path).relative_to(SOURCE).parts
    return parts[0] if len(parts) > 1 else "."


def tally(files: Iterable[Tuple[str, str]]) -> Dict[str, int]:
    """Lines per package over ``(repo-relative path, text)`` pairs."""
    counts: Dict[str, int] = {}
    for path, text in files:
        package = package_of(path)
        counts[package] = counts.get(package, 0) + len(text.splitlines())
    return counts


def worktree_files() -> Iterable[Tuple[str, str]]:
    """Every ``*.py`` under ``src/repro`` as it is on disk."""
    for file in sorted((REPO_ROOT / SOURCE).rglob("*.py")):
        yield file.relative_to(REPO_ROOT).as_posix(), file.read_text()


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    ).stdout


def revision_files(revision: str) -> Iterable[Tuple[str, str]]:
    """Every ``*.py`` under ``src/repro`` at ``revision`` (from the object store)."""
    for path in git("ls-tree", "-r", "--name-only", revision, "--", SOURCE).splitlines():
        if path.endswith(".py"):
            yield path, git("show", f"{revision}:{path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to diff the working tree against")
    args = parser.parse_args(argv)
    now = tally(worktree_files())
    base = tally(revision_files(args.base)) if args.base else None
    rows = [
        (package, now.get(package, 0), None if base is None else base.get(package, 0))
        for package in sorted(set(now) | set(base or ()))
    ]
    rows.append(("total", sum(now.values()), None if base is None else sum(base.values())))
    for name, lines, before in rows:
        print(f"{name:<14s} {lines:>7d}" + ("" if before is None else f" {lines - before:>+7d}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
