"""Smoke test of ``tools/src_lines.py``: it runs, and its columns add up."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def test_package_rows_sum_to_src_and_src_plus_the_stacks_to_the_total_row():
    in_git = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, cwd=REPO_ROOT
    ).returncode == 0
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "src_lines.py")]
        + (["--base", "HEAD"] if in_git else []),  # an exported tree has no history
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = [line.split() for line in result.stdout.splitlines()]
    # Physical lines and code lines side by side, each with its delta against the base.
    assert header == ["lines", "code"] + (["+lines", "+code"] if in_git else [])
    names = [row[0] for row in rows]
    source = names.index("src/repro")
    *packages, source_row = rows[: source + 1]
    *stacks, total = rows[source + 1 :]
    # The measurement stack outside bench/ and the tests are part of the house-rule report.
    assert [row[0] for row in stacks] == ["benchmarks/", "tests/", "tools/"] and total[0] == "total"
    assert "serve" in {row[0] for row in packages}
    for column in range(1, len(total)):
        assert sum(int(row[column]) for row in packages) == int(source_row[column])
        assert sum(int(row[column]) for row in (source_row, *stacks)) == int(total[column])
    assert all(int(row[1]) > int(row[2]) > 0 for row in (source_row, *stacks))


def test_code_lines_leave_out_blank_comment_and_docstring_lines(tmp_path):
    """The second column cannot be lowered by deleting documentation."""
    module = tmp_path / "module.py"
    module.write_text(
        '"""Module docstring.\n\nTwo more lines of it.\n"""\n'
        "\n"
        "# a comment-only line\n"
        "import os  # a trailing comment keeps the line\n"
        "\n"
        "\n"
        "def function(argument):\n"
        '    """One-line docstring."""\n'
        "    # another comment\n"
        '    text = """a string that is\n'
        '    not a docstring"""\n'
        "    return os.sep + text + argument\n"
    )
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "src_lines.py"), str(module)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    # import, def, the two lines of the string, return: 5 of 15.
    assert result.stdout.split() == [str(module), "15", "5"]
