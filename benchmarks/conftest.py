"""Shared benchmark configuration.

Each benchmark file regenerates one table or figure of the paper.  The
experiment functions are deterministic but not cheap (they evaluate several
quantization schemes on trained checkpoints), so every benchmark runs a single
measured round and prints the rendered table so the output can be compared
against the paper (docs/reproducing.md maps each one to its artifact).

Scale profiles (see ``repro.experiments.report``):

* default under ``pytest benchmarks`` — **smoke mode**: the autouse fixture
  below exports ``REPRO_SMOKE=1`` for benchmark tests only, shrinking every
  experiment (one model, two eval windows, reduced sweeps) so each script
  finishes in a few seconds and the whole directory rides along with the
  tier-1 test run;
* ``REPRO_FULL_EVAL=1`` — the full model list used in the paper (overrides
  smoke mode).
"""

from __future__ import annotations

import pytest

from repro.experiments.report import full_evaluation_enabled


@pytest.fixture(autouse=True)
def _smoke_profile(monkeypatch):
    """Run benchmarks in smoke mode unless a full evaluation was requested.

    Applied per benchmark test via monkeypatch so the environment of regular
    tests (which exercise the default quick profile) is never touched.
    """
    if not full_evaluation_enabled():
        monkeypatch.setenv("REPRO_SMOKE", "1")


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def render(capsys):
    """Return a helper that prints a rendered table outside capture."""

    def _render(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _render
