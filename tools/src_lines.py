#!/usr/bin/env python
"""Line counts of ``src/repro`` per package, ``tools/``, ``benchmarks/``, ``tests/``; net delta against a revision.

House rule (b) of ROADMAP.md — every PR reports its net ``src/`` line delta —
as a command instead of a hand count:

    python tools/src_lines.py                 # per-package physical and code line counts
    python tools/src_lines.py --base HEAD~1   # ... plus both deltas against a revision
    python tools/src_lines.py src/repro/serve/scheduler.py   # the same two counts of single files

A *package* is the first directory under ``src/repro`` (``serve``, ``core``,
...); modules directly under ``src/repro`` count as ``.``; the package rows
add up to the ``src/repro`` row.  ``tools/`` and ``benchmarks/`` — the
measurement stack outside ``bench/`` — and ``tests/`` are one row each, and
``total`` is the four together; ``src + tests + tools``, the figure a change
that moves code out of ``src/`` into a tool or a test is judged by, is
``total`` less the ``benchmarks/`` row.  ``lines`` are physical lines of
``*.py`` files; ``code`` are those that are not blank, comment-only or part
of a docstring (read off the AST), so "lines are paid for" cannot be met by
deleting documentation.  The base side is read with ``git ls-tree`` and
one ``git cat-file --batch``, so it needs no second checkout; the working-tree side is read
from disk, so uncommitted edits count.  No third-party dependencies.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = "src/repro"
#: Directories counted whole, one row each, beside the ``src/repro`` packages.
STACKS = ("tools", "benchmarks", "tests")


def package_of(path: str) -> str:
    """The row a path (POSIX, repo-relative) belongs to: its package, or its stack."""
    if not path.startswith(SOURCE + "/"):
        return path.split("/", 1)[0] + "/"
    parts = Path(path).relative_to(SOURCE).parts
    return parts[0] if len(parts) > 1 else "."


def code_lines(text: str) -> int:
    """Physical lines of a module that are not blank, comment-only or docstring."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstring
    )


def tally(files: Iterable[Tuple[str, str]]) -> Dict[str, Tuple[int, int]]:
    """``(physical, code)`` lines per package over ``(repo-relative path, text)`` pairs."""
    counts: Dict[str, Tuple[int, int]] = {}
    for path, text in files:
        package = package_of(path)
        lines, code = counts.get(package, (0, 0))
        counts[package] = lines + len(text.splitlines()), code + code_lines(text)
    return counts


def worktree_files() -> Iterable[Tuple[str, str]]:
    """Every ``*.py`` under ``src/repro`` and the stacks as it is on disk."""
    for directory in (SOURCE, *STACKS):
        for file in sorted((REPO_ROOT / directory).rglob("*.py")):
            yield file.relative_to(REPO_ROOT).as_posix(), file.read_text()


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    ).stdout


def revision_files(revision: str) -> Iterable[Tuple[str, str]]:
    """Every ``*.py`` under ``src/repro`` and the stacks at ``revision``, read by one ``git cat-file --batch``."""
    paths = [
        path
        for path in git("ls-tree", "-r", "--name-only", revision, "--", SOURCE, *STACKS).splitlines()
        if path.endswith(".py")
    ]
    batch = subprocess.run(
        ["git", "cat-file", "--batch"],
        cwd=REPO_ROOT,
        input="".join(f"{revision}:{path}\n" for path in paths).encode(),
        capture_output=True,
        check=True,
    ).stdout
    offset = 0
    for path in paths:  # each object: "<oid> blob <size>\n<contents>\n"
        start = batch.index(b"\n", offset) + 1
        end = start + int(batch[offset:start].split()[2])
        yield path, batch[start:end].decode()
        offset = end + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to diff the working tree against")
    parser.add_argument("files", nargs="*", help="count these files instead, one row each (no delta)")
    args = parser.parse_args(argv)
    if args.files:
        for file in args.files:
            text = Path(file).read_text()
            print(f"{file} {len(text.splitlines())} {code_lines(text)}")
        return 0
    now = tally(worktree_files())
    base = tally(revision_files(args.base)) if args.base else None

    def row(name, keys):
        def total(counts):
            return [sum(counts.get(key, (0, 0))[column] for key in keys) for column in (0, 1)]

        return name, total(now), None if base is None else total(base)

    names = set(now) | set(base or ())
    packages = sorted(name for name in names if not name.endswith("/"))
    stacks = sorted(name for name in names if name.endswith("/"))
    rows = [row(package, [package]) for package in packages]
    rows.append(row(SOURCE, packages))
    rows.extend(row(stack, [stack]) for stack in stacks)
    rows.append(row("total", names))
    print(f"{'':<14s} {'lines':>7s} {'code':>7s}" + ("" if base is None else f" {'+lines':>7s} {'+code':>7s}"))
    for name, (lines, code), before in rows:
        delta = "" if before is None else f" {lines - before[0]:>+7d} {code - before[1]:>+7d}"
        print(f"{name:<14s} {lines:>7d} {code:>7d}{delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
