"""Tier-1 perf gate: the serving hot paths must stay ahead of reference.

``tools/check_perf_smoke.py`` lives in ``tools/`` so it can also run
standalone (and in any external CI); this test makes it part of the tier-1
pytest run so a future PR cannot silently route the decode hot path back
through the slow reference kernels — or break prefix-cache matching, whose
failure mode is a silent throughput regression (zero hits), not an error.
The fast-kernel gate is an exact dispatch count, not a timing: a loaded
machine cannot flake it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestPerfSmoke:
    def test_perf_smoke_gates(self):
        environment = dict(os.environ)
        source_path = str(REPO_ROOT / "src")
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            source_path if not existing else os.pathsep.join([source_path, existing])
        )
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_perf_smoke.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=environment,
        )
        assert result.returncode == 0, f"perf smoke failed:\n{result.stdout}{result.stderr}"
        assert "perf smoke ok (fast decode path" in result.stdout
        assert "perf smoke ok (decode dispatch" in result.stdout
        assert "perf smoke ok (prefix cache served" in result.stdout
        assert "perf smoke ok (speculation accepted" in result.stdout
        assert "perf smoke ok (ragged verify" in result.stdout
        assert "perf smoke ok (fused paged attention" in result.stdout
        assert "perf smoke ok (block contiguity" in result.stdout
        assert "perf smoke ok (preemption token-identical" in result.stdout
        assert "perf smoke ok (observability disabled-path" in result.stdout
        assert "perf smoke ok (serving stress clean" in result.stdout
        assert "perf smoke ok (fault tolerance token-identical" in result.stdout
