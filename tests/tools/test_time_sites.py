"""Smoke test of ``tools/time_sites.py``: every case of every set builds and runs once, untimed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "time_sites", Path(__file__).resolve().parent.parent.parent / "tools" / "time_sites.py"
)
time_sites = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_sites)


@pytest.mark.parametrize("name", list(time_sites.CASE_SETS))
def test_every_case_runs_once(name):
    cases, finish = time_sites.CASE_SETS[name](np.random.default_rng(0))
    assert cases
    for make in cases.values():
        make()()
    if finish is not None:
        assert finish(np.ones(len(cases))).startswith("fit: ")
