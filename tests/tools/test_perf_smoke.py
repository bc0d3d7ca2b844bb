"""Tier-1 perf gate: every count gate and scenario row, in a fresh process.

``tools/check_perf_smoke.py`` lives in ``tools/`` so it can also run
standalone (and in any external CI); this module makes it part of the tier-1
pytest run.  The gate is run once, in a subprocess, and the expectations are
derived from its own table — a row dropped from ``main()`` fails here, as
does a row whose recomputed counters or sha256 digests differ from the
committed ``BENCH_serving.json``.  Nothing in the gate reads a clock, so a
loaded machine cannot flake it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GATE_PATH = REPO_ROOT / "tools" / "check_perf_smoke.py"

_spec = importlib.util.spec_from_file_location("check_perf_smoke", GATE_PATH)
gate = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(gate)

ROW_NAMES = [name for name, _, _ in gate.COUNT_GATES] + [scenario.name for scenario in gate.SCENARIOS]
GATE_CHECKS = [(name, checks, check) for name, _, checks in gate.COUNT_GATES for check in checks]


def passing_fields(checks) -> dict:
    """Synthetic fields that meet every check at its bound (a field-to-field check at 2 == 2)."""
    fields = {}
    for name, _, bound in checks:
        fields[name] = fields.setdefault(bound, 2) if isinstance(bound, str) else bound
    return fields


def just_past(value, comparison):
    """The nearest value to ``value`` on the wrong side of ``comparison``."""
    if value is None:
        return "an invariant broke"
    if isinstance(value, bool):
        return not value
    step = 1 if isinstance(value, int) else 1e-9
    return value - step if comparison == ">=" else value + step


@pytest.fixture(scope="module")
def gate_run():
    environment = dict(os.environ)
    environment.pop("REPRO_WRITE_BENCH", None)  # tier-1 compares the record, never rewrites it
    source_path = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_path if not existing else os.pathsep.join([source_path, existing])
    )
    return subprocess.run(
        [sys.executable, str(GATE_PATH)], capture_output=True, text=True, cwd=REPO_ROOT, env=environment
    )


class TestPerfSmoke:
    def test_gate_exits_clean(self, gate_run):
        assert gate_run.returncode == 0, f"perf smoke failed:\n{gate_run.stdout}{gate_run.stderr}"

    def test_row_names_are_unique(self):
        assert len(set(ROW_NAMES)) == len(ROW_NAMES)

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_row_ran_and_passed(self, gate_run, name):
        assert f"perf smoke ok ({name}:" in gate_run.stdout, gate_run.stdout + gate_run.stderr

    def test_recomputed_record_equals_the_committed_one(self, gate_run):
        assert "perf smoke ok (BENCH_serving.json reproduced byte for byte)" in gate_run.stdout


class TestCountGates:
    @pytest.mark.parametrize("name, checks, pushed", GATE_CHECKS, ids=[f"{n}: {c[0]}" for n, _, c in GATE_CHECKS])
    def test_every_check_fails_just_past_its_bound(self, name, checks, pushed):
        """No row is vacuous: one field on the wrong side of its bound is one failure naming row and field."""
        fields = passing_fields(checks)
        assert gate.check(name, fields, checks) == []
        field, comparison, bound = pushed
        fields[field] = just_past(fields[bound] if isinstance(bound, str) else bound, comparison)
        failures = gate.check(name, fields, checks)
        assert len(failures) == 1 and failures[0].startswith(f"{name}: {field} = "), failures


class TestCommittedRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return json.loads(gate.RECORD_PATH.read_text())

    def test_one_entry_per_row_and_runner(self, record):
        assert {name: sorted(rows) for name, rows in record.items()} == {
            scenario.name: sorted(scenario.runners) for scenario in gate.SCENARIOS
        }

    def test_no_wall_clock_or_numpy_dependent_field(self, record):
        keys = {key for rows in record.values() for fields in rows.values() for key in fields}
        assert not [key for key in keys if "wall" in key or key.endswith(("_s", "per_s"))]
        assert not [key for key in keys if key.split(".")[-1] in gate.BUDGET_ONLY]

    def test_every_tender_row_carries_token_and_logit_digests(self, record):
        tender_rows = [s.name for s in gate.SCENARIOS if set(s.runners) & set(gate.TENDER)]
        assert len(tender_rows) >= 10
        for name in tender_rows:
            for runner in set(record[name]) & set(gate.TENDER):
                fields = record[name][runner]
                assert len(fields["tokens_sha256"]) == len(fields["logits_sha256"]) == 64
        for name, rows in record.items():
            if set(gate.TENDER) <= set(rows):  # the two requantizations quantize differently
                assert rows["tender-implicit"]["logits_sha256"] != rows["tender-explicit"]["logits_sha256"]
