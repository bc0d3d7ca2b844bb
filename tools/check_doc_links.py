#!/usr/bin/env python
"""Docs link checker: keep docs/*.md and README cross-references from rotting.

Run from the repository root (tier-1 runs it via ``tests/docs``):

    python tools/check_doc_links.py

Checks, in order:

1. every relative markdown link in ``README.md`` and ``docs/*.md`` resolves
   to an existing file or directory (anchors are stripped; ``http(s)://``
   and ``mailto:`` targets are skipped — this repo's docs should not depend
   on the network);
2. ``docs/reproducing.md`` mentions every experiment module
   (``src/repro/experiments/table*.py`` / ``figure*.py``) — a new paper
   artifact cannot land without its row in the reproducing table;
3. ``docs/reproducing.md`` mentions every benchmark entry
   (``benchmarks/bench_*.py``) for the same reason;
4. ``docs/architecture.md`` mentions every serving-layer module
   (``src/repro/serve/*.py``) — a new subsystem (``cluster.py`` being the
   latest) cannot land without its architecture-doc section;
5. ``docs/architecture.md`` mentions every observability module
   (``src/repro/obs/*.py``) — the tracing machinery follows the same
   rule as the serving layers it instruments;
6. every backticked dotted name `` `repro.<pkg>.<Name>` `` in those files and
   in ``bench/README.md`` resolves against the live package
   (``pkgutil.resolve_name``) — a rename cannot leave the docs pointing at a
   symbol that is gone;
7. every ``from repro... import ...`` / ``import repro...`` of
   ``examples/*.py`` and of the fenced python blocks of ``README.md`` and
   ``docs/*.md`` resolves the same way.  They are only parsed (AST), never
   run: nothing in tier-1 imports them, so a rename would otherwise break
   them unseen;
8. every absolute Sphinx role of ``src/repro/**/*.py`` — ``:class:``,
   ``:func:``, ``:meth:``, ``:mod:``, ``:attr:`` naming ``repro.…`` or
   ``~repro.…`` — resolves too (a text scan; relative targets such as
   ``:meth:`_admit``` are skipped): a deleted class cannot linger in
   another module's docstring cross-reference.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import pkgutil
import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:")
#: An opening backtick, then ``repro`` and its dotted path (a line may wrap after a dot).
SYMBOL_PATTERN = re.compile(r"`(repro(?:\.\s*\w+)+)")
#: A Sphinx cross-reference role whose target is an absolute ``repro`` path.
ROLE_PATTERN = re.compile(r":(?:class|func|meth|mod|attr):`~?(repro(?:\.\w+)+)`")
#: A fenced python block of a markdown file; group 1 is its body.
FENCE_PATTERN = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def iter_markdown_files(root: Path):
    yield root / "README.md"
    yield from sorted((root / "docs").glob("*.md"))


def check_links(root: Path) -> list:
    errors = []
    for markdown in iter_markdown_files(root):
        if not markdown.exists():
            errors.append(f"{markdown.relative_to(root)}: file missing")
            continue
        for line_number, line in enumerate(markdown.read_text().splitlines(), 1):
            for target in LINK_PATTERN.findall(line):
                if target.startswith(SKIP_PREFIXES) or target.startswith("#"):
                    continue
                resolved = (markdown.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{markdown.relative_to(root)}:{line_number}: broken link -> {target}"
                    )
    return errors


def check_reproducing_coverage(root: Path) -> list:
    reproducing = root / "docs" / "reproducing.md"
    if not reproducing.exists():
        return ["docs/reproducing.md: file missing"]
    text = reproducing.read_text()
    errors = []
    experiment_modules = sorted(
        path
        for pattern in ("table*.py", "figure*.py")
        for path in (root / "src" / "repro" / "experiments").glob(pattern)
    )
    for module in experiment_modules:
        if module.name not in text:
            errors.append(f"docs/reproducing.md: experiment module {module.name} not mentioned")
    for bench in sorted((root / "benchmarks").glob("bench_*.py")):
        if bench.name not in text:
            errors.append(f"docs/reproducing.md: benchmark {bench.name} not mentioned")
    return errors


def check_architecture_coverage(root: Path) -> list:
    architecture = root / "docs" / "architecture.md"
    if not architecture.exists():
        return ["docs/architecture.md: file missing"]
    text = architecture.read_text()
    errors = []
    for module in sorted((root / "src" / "repro" / "serve").glob("*.py")):
        if module.name != "__init__.py" and module.name not in text:
            errors.append(
                f"docs/architecture.md: serve module {module.name} not mentioned"
            )
    for module in sorted((root / "src" / "repro" / "obs").glob("*.py")):
        if module.name != "__init__.py" and module.name not in text:
            errors.append(
                f"docs/architecture.md: obs module {module.name} not mentioned"
            )
    return errors


def resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.Name`` names something in the package as it is importable now."""
    try:
        pkgutil.resolve_name(dotted)  # imports the longest module prefix, getattr()s the rest
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def unresolved(root: Path, path: Path, pattern: re.Pattern, what: str) -> list:
    """One error per match of ``pattern`` in ``path`` whose dotted name does not resolve."""
    text = path.read_text() if path.exists() else ""
    errors = []
    for match in pattern.finditer(text):
        dotted = re.sub(r"\s+", "", match.group(1))
        if not resolves(dotted):
            line_number = text.count("\n", 0, match.start()) + 1
            errors.append(f"{path.relative_to(root)}:{line_number}: unresolved {what} -> {dotted}")
    return errors


def unresolved_imports(root: Path, path: Path, source: str, first_line: int = 1) -> list:
    """One error per unresolved ``repro`` import of ``source``, the code of ``path`` from ``first_line`` on."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [f"{path.relative_to(root)}:{first_line + (error.lineno or 1) - 1}: python does not parse"]
    errors = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            imported = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        else:
            continue
        for dotted in imported:
            if dotted.split(".")[0] == "repro" and not resolves(dotted):
                line_number = first_line + node.lineno - 1
                errors.append(f"{path.relative_to(root)}:{line_number}: unresolved import -> {dotted}")
    return errors


def check_symbols(root: Path) -> list:
    sys.path.insert(0, str(root / "src"))  # the package beside this tool, ahead of any installed one
    errors = []
    for markdown in (*iter_markdown_files(root), root / "bench" / "README.md"):
        errors += unresolved(root, markdown, SYMBOL_PATTERN, "symbol")
    for source in sorted((root / "src" / "repro").rglob("*.py")):
        errors += unresolved(root, source, ROLE_PATTERN, "role")
    for example in sorted((root / "examples").glob("*.py")):
        errors += unresolved_imports(root, example, example.read_text())
    for markdown in iter_markdown_files(root):
        text = markdown.read_text() if markdown.exists() else ""
        for block in FENCE_PATTERN.finditer(text):
            first_line = text.count("\n", 0, block.start(1)) + 1
            errors += unresolved_imports(root, markdown, block.group(1), first_line)
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors = (
        check_links(root)
        + check_reproducing_coverage(root)
        + check_architecture_coverage(root)
        + check_symbols(root)
    )
    for error in errors:
        print(error)
    if not errors:
        print(f"doc links ok ({sum(1 for _ in iter_markdown_files(root))} files checked)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
