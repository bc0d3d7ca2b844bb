"""Importing the library pulls in no test-only or heavy package.

The serving benchmark bounds ``peak_rss_mb`` at 10 %, and one stray import
is that size: after ``import repro.serve``, ``import hypothesis`` adds about
7.6 MiB of max RSS and ``scipy.stats`` about 64 MiB.  The probe runs in a
fresh interpreter, since this one has already loaded pytest and hypothesis.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

FORBIDDEN = ("hypothesis", "pytest", "_pytest", "scipy")


def test_library_imports_leave_out_test_and_heavy_packages():
    source = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {source!r}); "
        "import repro, repro.core, repro.models, repro.data, repro.obs, repro.serve; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {FORBIDDEN!r}))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
