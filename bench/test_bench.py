"""Tests of the benchmark's own machinery.

Run explicitly with ``PYTHONPATH=src python -m pytest bench -q``; tier-1 does
not collect this directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from bench import metrics, probes, report, workloads
from bench.clock import YARDSTICK_REF_US, CalibratedClock

ROOT = Path(__file__).resolve().parent.parent
CORPUS = np.random.default_rng(0).integers(0, 512, size=45000)


# ----------------------------------------------------------------------
# Calibrated clock
# ----------------------------------------------------------------------
def synthetic_clock(slow_from: int, slow_to: int, samples: int = 90) -> CalibratedClock:
    """One yardstick sample at every whole second; samples in the slow window take twice the reference."""
    clock = CalibratedClock(yardstick=lambda: None)
    ref = YARDSTICK_REF_US * 1e-6
    for second in range(samples):
        clock.add_sample(float(second), second + (2 * ref if slow_from <= second < slow_to else ref))
    return clock


def test_slow_window_yields_equal_calibrated_durations():
    clock = synthetic_clock(30, 60)
    # The same job: 0.5 s raw on the fast host, 1.0 s raw where the host runs at half speed.
    fast = clock.elapsed(10.2, 10.7)
    slow = clock.elapsed(45.2, 46.2 + 2 * YARDSTICK_REF_US * 1e-6)  # spans the sample at t = 46
    assert fast == pytest.approx(0.5, rel=1e-6)
    assert slow == pytest.approx(fast, rel=1e-6)
    # The raw twin keeps the wall difference.
    raw = clock.to_calibrated([45.2, 46.2 + 2 * YARDSTICK_REF_US * 1e-6], raw=True)
    assert raw[1] - raw[0] == pytest.approx(1.0, rel=1e-6)


def test_yardstick_time_is_excluded():
    clock = synthetic_clock(0, 0)
    ref = YARDSTICK_REF_US * 1e-6
    # From the start of the sample at t = 20 to its end: the clock stands still.
    assert clock.elapsed(20.0, 20.0 + ref) == pytest.approx(0.0, abs=1e-12)
    # An interval that spans one sample loses exactly that sample.
    assert clock.elapsed(19.5, 20.5) == pytest.approx(1.0 - ref, rel=1e-9)
    assert clock.yardstick_seconds(19.5, 20.5) == pytest.approx(ref)


def test_clock_needs_two_samples():
    clock = CalibratedClock(yardstick=lambda: None)
    clock.add_sample(0.0, 1e-3)
    with pytest.raises(ValueError):
        clock.elapsed(0.0, 1.0)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_repeat_for_a_seed_and_differ_across_seeds(name):
    first = workloads.generate(name, 3, CORPUS)
    again = workloads.generate(name, 3, CORPUS)
    other = workloads.generate(name, 4, CORPUS)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    # Stratified draws: every seed carries the same total work.
    assert sorted(first.max_new) == sorted(other.max_new)
    assert sum(map(len, first.prompts)) == sum(map(len, other.prompts))
    quick = workloads.generate(name, 3, CORPUS, quick=True)
    assert len(first) // 9 <= len(quick) <= len(first) // 7


def test_every_workload_supports_p90():
    for name in workloads.WORKLOADS:
        trace = workloads.generate(name, 0, CORPUS)
        assert len(trace) >= 240
        assert len(trace.oracle_sample()) >= 30


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_and_coverage_on_a_hand_built_tree():
    # step [0, 10] > forward [1, 7] > project [2, 3], project [4, 6]; submit [12, 13] stands alone.
    names = ["scheduler.step", "models.decode_step", "core.project", "core.project", "scheduler.submit"]
    starts, ends, parents = [0.0, 1.0, 2.0, 4.0, 12.0], [10.0, 7.0, 3.0, 6.0, 13.0], [-1, 0, 1, 1, -1]
    assert len(names) == len(starts)
    assert probes.self_times(starts, ends, parents).tolist() == [4.0, 3.0, 1.0, 2.0, 1.0]
    assert probes.coverage(starts, ends, parents, 0.0, 20.0) == pytest.approx(11.0 / 20.0)


def test_probe_wraps_restores_and_tolerates_a_missing_target(capsys):
    class Layer:
        def work(self, x):
            return self.helper(x) + 1

        def helper(self, x):
            return x * 2

    probe = probes.Probe()
    layer = Layer()
    probe.wrap(layer, "work", "layer.work")
    probe.wrap(layer, "helper", "layer.helper", note=lambda args, result: result)
    probe.wrap(layer, "moved_away", "layer.moved")
    assert layer.work(3) == 7
    assert (probe.names, probe.parents, probe.notes) == (["layer.work", "layer.helper"], [-1, 0], {1: 6})
    assert probe.starts[0] <= probe.starts[1] <= probe.ends[1] <= probe.ends[0]
    assert probe.missing == ["layer.moved"]
    assert "moved_away is missing" in capsys.readouterr().err
    probe.detach()
    assert "work" not in vars(layer) and layer.work(3) == 7 and len(probe.names) == 2


# ----------------------------------------------------------------------
# Percentiles, summaries, compare
# ----------------------------------------------------------------------
def test_percentile_refuses_a_thin_tail():
    assert metrics.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 90)  # 9.9 samples beyond p90
    with pytest.raises(ValueError):
        metrics.percentile(list(range(150)), 95)
    assert metrics.percentile([1.0, 2.0, 3.0], 50, min_beyond=1) == 2.0


def entry(values, better="lower", bound=0.10, exact=False):
    return {**metrics.summarize(values), "values": list(values), "better": better, "bound": bound, "exact": exact}


def test_compare_verdicts():
    base = entry([10.0, 10.1, 10.2])
    assert report.verdict(base, entry([10.3, 10.4, 10.5]))[0] == "same"
    assert report.verdict(base, entry([11.5, 11.6, 11.7]))[0] == "worse"
    assert report.verdict(base, entry([8.0, 8.1, 8.2]))[0] == "better"
    # IQR wider than the bound and the runs overlap: not resolved either way.
    assert report.verdict(base, entry([8.0, 11.9, 14.0]))[0] == "unresolved"
    higher = entry([100.0, 101.0, 102.0], better="higher")
    assert report.verdict(higher, entry([80.0, 81.0, 82.0], better="higher"))[0] == "worse"
    exact = entry([1.25, 1.25], exact=True)
    assert report.verdict(exact, entry([1.25, 1.25], exact=True))[0] == "same"
    assert report.verdict(exact, entry([1.26, 1.26], exact=True))[0] == "worse"


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_tables():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    lists = report.benchmark_lists()
    assert benchmark["end_to_end"] == lists["end_to_end"]
    assert benchmark["per_layer"] == lists["per_layer"]
    assert benchmark["workloads"] == [{"name": n, "why": workloads.WHY[n]} for n in workloads.WORKLOADS]
    assert benchmark["run_seconds"] == workloads.DEFAULT_SECONDS
    assert benchmark["paths"] == ["bench"] and benchmark["command"] == ["python3", "bench/run.py"]
    assert all(len(w["why"]) <= 200 for w in benchmark["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert len(benchmark["per_layer"]) <= 128 and len(benchmark["end_to_end"]) <= 16


# ----------------------------------------------------------------------
# Correctness check, end to end on the real program (quick trace)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_session():
    from bench import program, session

    weights, corpus = program.load_model()
    return session.Session("decode_steady", 0, True, 0.0, weights, corpus)


def test_clean_repeat_has_no_failures(quick_session):
    quick_session.repeats.clear()
    quick_session.run_untraced(0.0, repeats=2)
    result = quick_session.result(None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2 * result["requests"]
    assert result["end_to_end"]["failed_share"]["value"] == 0.0
    exact = [name for name, spec in metrics.END_TO_END.items() if spec[3]]
    assert all(result["end_to_end"][name]["iqr"] == 0.0 for name in exact)


def test_poisoned_oracle_raises_failed_share(quick_session):
    quick_session.repeats.clear()
    index = next(iter(quick_session.oracle_tokens))
    clean = quick_session.oracle_tokens[index]
    quick_session.oracle_tokens[index] = np.concatenate([clean[:-1], [(clean[-1] + 1) % 512]])
    try:
        quick_session.run_untraced(0.0, repeats=1)
        result = quick_session.result(None)
    finally:
        quick_session.oracle_tokens[index] = clean
    assert not result["correct"] and result["failed"] == 1
    assert result["end_to_end"]["failed_share"]["value"] == pytest.approx(1 / result["requests"])
    assert "oracle" in result["per_repeat"][0]["failures"][str(index)]


def test_dropped_request_raises_failed_share(quick_session):
    quick_session.repeats.clear()
    recorder, clock, _, _ = quick_session._serve()
    recorder.outputs[5] = None  # the engine never returned it
    quick_session.repeats.append(quick_session._repeat_record(recorder, clock))
    result = quick_session.result(None)
    assert not result["correct"] and result["failed"] == 1
    assert result["per_repeat"][0]["failures"]["5"] == "never finished"
    assert result["end_to_end"]["failed_share"]["value"] > 0.0
