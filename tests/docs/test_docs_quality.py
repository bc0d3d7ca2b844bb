"""Tier-1 documentation gates: link integrity and docstring style.

Both checkers live in ``tools/`` so they can also run standalone (and in any
external CI); these tests make them part of the tier-1 pytest run so
``docs/*.md`` cross-references, the README's file links, the reproducing
table's coverage, and the serving API's docstrings cannot rot silently.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def run_tool(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / name)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestDocsTooling:
    def test_doc_links_resolve_and_reproducing_table_is_complete(self):
        result = run_tool("check_doc_links.py")
        assert result.returncode == 0, f"doc link check failed:\n{result.stdout}{result.stderr}"
        assert "doc links ok" in result.stdout

    def test_serving_api_docstrings_pass_style_check(self):
        result = run_tool("check_docstrings.py")
        assert result.returncode == 0, f"docstring check failed:\n{result.stdout}{result.stderr}"
        assert "docstrings ok" in result.stdout

    def test_required_docs_pages_exist(self):
        assert (REPO_ROOT / "docs" / "architecture.md").is_file()
        assert (REPO_ROOT / "docs" / "reproducing.md").is_file()

    def test_link_checker_catches_breakage(self, tmp_path):
        """The checker actually fails on a broken link, a stale symbol or a stale docstring role (it is not a no-op)."""
        sandbox = tmp_path / "repo"
        (sandbox / "docs").mkdir(parents=True)
        (sandbox / "tools").mkdir()
        tool = (REPO_ROOT / "tools" / "check_doc_links.py").read_text()
        (sandbox / "tools" / "check_doc_links.py").write_text(tool)
        (sandbox / "README.md").write_text(
            "[missing](does/not/exist.py)\n`repro.gpu.ModelShape` replaced `repro.gpu.\nDecodeWorkload`\n"
        )
        (sandbox / "docs" / "reproducing.md").write_text("no modules here\n")
        (sandbox / "src" / "repro" / "experiments").mkdir(parents=True)
        (sandbox / "src" / "repro" / "experiments" / "table1.py").write_text("")
        (sandbox / "benchmarks").mkdir()
        # A live package of one symbol: the docs and an example name it and one that is gone.
        (sandbox / "src" / "repro" / "__init__.py").write_text("")
        (sandbox / "src" / "repro" / "gpu.py").write_text(
            'class ModelShape:\n    """See :class:`~repro.gpu.ModelShape`, not :class:`~repro.gpu.DecodeWorkload` or :meth:`_admit`."""\n'
        )
        (sandbox / "examples").mkdir()
        (sandbox / "examples" / "demo.py").write_text(
            "from repro.gpu import ModelShape, decode_step_latencies\nraise SystemExit('examples are never run')\n"
        )
        result = subprocess.run(
            [sys.executable, str(sandbox / "tools" / "check_doc_links.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "broken link" in result.stdout
        assert "table1.py not mentioned" in result.stdout
        assert "README.md:2: unresolved symbol -> repro.gpu.DecodeWorkload" in result.stdout
        assert "examples/demo.py:1: unresolved import -> repro.gpu.decode_step_latencies" in result.stdout
        assert "src/repro/gpu.py:2: unresolved role -> repro.gpu.DecodeWorkload" in result.stdout
        assert "ModelShape" not in result.stdout and "_admit" not in result.stdout
