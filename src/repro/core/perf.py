"""Shared perf workload for the kernel benchmark and the tier-1 perf gate.

``benchmarks/bench_executor_kernels.py`` (the perf-trajectory benchmark) and
``tools/check_perf_smoke.py`` (the tier-1 regression gate) must measure the
*same* decode workload, or a change to one silently decouples the gate from
the numbers it is supposed to protect.  Both build their fixture from here,
gate on :func:`count_calls` (exact, no clock) and report :func:`measure`.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.calibration import TenderSiteParams, _ChunkedStatistics
from repro.core.config import TenderConfig

#: The canonical decode-projection workload shape: batched decode rows at
#: positions scattered across several calibrated row chunks — the shape the
#: continuous-batching scheduler feeds ``TenderExecutor.project`` every step.
PROJECTION_CHANNELS = 96
PROJECTION_OUT = 128
PROJECTION_BATCH = 16
CALIBRATED_ROWS = 256


def synthetic_projection_site(config: TenderConfig, seed: int = 11) -> Dict[str, TenderSiteParams]:
    """One calibrated matmul site from synthetic outlier-bearing statistics.

    No model training or checkpoint cache involved: channel 5 carries a 40x
    outlier and channel 17 a 12x outlier, giving the multi-group
    decomposition the fast kernels are built around.
    """
    rng = np.random.default_rng(seed)
    calibration = rng.normal(size=(CALIBRATED_ROWS, PROJECTION_CHANNELS))
    calibration[:, 5] *= 40.0
    calibration[:, 17] *= 12.0
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {"site": statistics.finalize("site", config)}


def decode_projection_operands(seed: int = 29) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, positions, weight)`` for one scattered-position decode batch."""
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(PROJECTION_CHANNELS, PROJECTION_OUT))
    x = rng.normal(size=(PROJECTION_BATCH, PROJECTION_CHANNELS))
    positions = rng.integers(0, CALIBRATED_ROWS, size=PROJECTION_BATCH)
    return x, positions, weight


def count_calls(function: Callable[[], object], matches=lambda code: False) -> Tuple[int, int]:
    """Python-level calls ``function()`` makes: ``(all, those whose code object matches)``.

    ``sys.setprofile`` reports one ``call`` per Python frame entered (NumPy's
    Python wrappers included, C functions not): exact on any machine, loaded
    or not — the unit the tier-1 gates budget dispatch work in.
    """
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
            counts[1] += bool(matches(frame.f_code))

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def measure(function: Callable[[], object], repeats: int) -> Dict[str, float]:
    """Wall time of ``function()`` over ``repeats`` runs: ``{median, iqr, min}`` (seconds).

    One warm-up call runs first so lazy caches (packed tables, permuted
    weights) are excluded from the measurement.  The median is the number to
    report and the inter-quartile range its spread (house rule: no perf
    number without one); ``min`` is the least-disturbed run.
    """
    function()
    samples = np.empty(repeats)
    for index in range(repeats):
        start = time.perf_counter()
        function()
        samples[index] = time.perf_counter() - start
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "min": float(samples.min())}
