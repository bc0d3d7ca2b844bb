"""Calibrated time: a fixed NumPy yardstick and the clock built from its samples.

The host this benchmark runs on drifts in slow waves (the same deterministic
trace takes 2.9-4.3 s depending on when it runs), so raw wall time cannot
resolve a 10 % change.  The yardstick is a fixed piece of NumPy work with the
program's own instruction mix; timing it every few engine steps tells how fast
the host is *right now*, and :class:`CalibratedClock` stretches or shrinks raw
``perf_counter`` intervals by that local rate.  A calibrated second is a
second on a host that runs the yardstick in exactly :data:`YARDSTICK_REF_US`.

This module never imports ``repro``: the yardstick must not change when the
program does.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

#: Reference yardstick time in microseconds: the lower quartile of the samples
#: of one full benchmark run on the VM the benchmark was defined on.  It only
#: fixes the unit of calibrated time and is never changed afterwards —
#: changing it rescales every calibrated metric of every later comparison.
YARDSTICK_REF_US = 425.0

#: Raw seconds between yardstick samples, taken at the next engine-step
#: boundary: ~5 decode steps or 2 pool steps, ~3 % of run time.  Spacing by
#: time, not steps, calibrates a 6 ms pool step as finely as a 2.5 ms decode step.
SAMPLE_EVERY_S = 0.012

#: Samples on each side whose interquartile mean gives the local yardstick
#: time.  One 0.4 ms sample is as noisy as the steps it calibrates; seventeen
#: span ~0.2 s, well inside one wave of the host's drift.  (Measured on 12
#: repeats per workload: this spacing and window leave a repeat-to-repeat cv
#: of 1.6-3.3 % where sampling every 10 steps with a 9-sample median left
#: 2.1-4.7 % and raw wall 4.5-10 %.)
SMOOTH_HALF_WINDOW = 8

_ROUNDS = 8  # yardstick inner repetitions, sized for ≈ 0.4 ms per sample


class Yardstick:
    """Fixed NumPy work mirroring a decode step's instruction mix.

    A 16x64 @ 64x192 matmul, ``np.unique`` over row chunks, a mean/var layer
    norm and a clip/round quantize — small arrays, so the time is Python
    dispatch plus short BLAS calls, exactly what the serving loop spends.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((16, 64))
        self._w = rng.standard_normal((64, 192))
        self._positions = rng.integers(0, 256, size=16)

    def __call__(self) -> float:
        """Run the fixed work once; return its wall time in seconds."""
        x, w, positions = self._x, self._w, self._positions
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            chunks = np.unique(positions // 32)
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            normed = (x - mean) / np.sqrt(var + 1e-5)
            quantized = np.clip(np.round(normed * 31.0), -127, 127)
            out = quantized @ w
            out[: len(chunks)] += 1.0
        return time.perf_counter() - start


class CalibratedClock:
    """Piecewise-linear map from raw ``perf_counter`` stamps to calibrated seconds.

    :meth:`sample` runs the yardstick and records ``(start, end)``; between
    two samples the clock advances at ``ref / local yardstick time`` (the mean
    of the two neighbouring smoothed rates) and it stands still during a
    sample, so yardstick cost never lands in a metric.  Stamps outside the
    sampled range extrapolate at the nearest rate.
    """

    def __init__(self, yardstick=None, ref_us: float = YARDSTICK_REF_US) -> None:
        self._yardstick = yardstick if yardstick is not None else Yardstick()
        self.ref_s = ref_us * 1e-6
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._knots = None

    def sample(self) -> None:
        """Take one yardstick sample now."""
        start = time.perf_counter()
        self._yardstick()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._knots = None

    def sample_edge(self) -> None:
        """Fill the smoothing window: called before the first and after the last timed stamp."""
        for _ in range(SMOOTH_HALF_WINDOW):
            self.sample()

    def add_sample(self, start: float, end: float) -> None:
        """Record a sample taken elsewhere (synthetic stamps in tests)."""
        self.starts.append(float(start))
        self.ends.append(float(end))
        self._knots = None

    # ------------------------------------------------------------------
    def durations(self) -> np.ndarray:
        """Raw yardstick time of every sample, in seconds."""
        return np.asarray(self.ends) - np.asarray(self.starts)

    def smoothed(self) -> np.ndarray:
        """The local yardstick time at every sample: the interquartile mean of its neighbours."""
        raw = self.durations()
        count = len(raw)
        smooth = np.empty(count)
        for i in range(count):
            window = np.sort(raw[max(0, i - SMOOTH_HALF_WINDOW) : i + SMOOTH_HALF_WINDOW + 1])
            trim = len(window) // 4
            smooth[i] = window[trim : len(window) - trim].mean()
        return smooth

    def _build(self):
        if len(self.starts) < 2:
            raise ValueError("a calibrated clock needs at least two yardstick samples")
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        count = len(starts)
        rate = self.ref_s / self.smoothed()
        # Knots alternate start_0, end_0, start_1, end_1, ...; calibrated time
        # is flat across a sample and linear between samples.
        wall = np.empty(2 * count)
        wall[0::2] = starts
        wall[1::2] = ends
        gap_rate = 0.5 * (rate[:-1] + rate[1:])
        gaps = (starts[1:] - ends[:-1]) * gap_rate
        at_end = np.concatenate([[0.0], np.cumsum(gaps)])
        cal = np.empty(2 * count)
        cal[0::2] = at_end
        cal[1::2] = at_end
        # The raw twin: same knots at rate 1, so raw.<metric> excludes the
        # yardstick's own time exactly as the calibrated metric does.
        raw_end = np.concatenate([[0.0], np.cumsum(starts[1:] - ends[:-1])])
        raw_cal = np.empty(2 * count)
        raw_cal[0::2] = raw_end
        raw_cal[1::2] = raw_end
        self._knots = (wall, cal, raw_cal, rate[0], rate[-1])
        return self._knots

    def to_calibrated(self, stamps: Sequence[float], raw: bool = False) -> np.ndarray:
        """Map raw stamps (seconds) to calibrated seconds since the first sample.

        ``raw=True`` maps at rate 1 instead (wall seconds minus yardstick time).
        """
        wall, cal, raw_cal, first_rate, last_rate = self._knots or self._build()
        if raw:
            cal, first_rate, last_rate = raw_cal, 1.0, 1.0
        stamps = np.asarray(stamps, dtype=np.float64)
        mapped = np.interp(stamps, wall, cal)
        mapped = np.where(stamps < wall[0], cal[0] + (stamps - wall[0]) * first_rate, mapped)
        mapped = np.where(stamps > wall[-1], cal[-1] + (stamps - wall[-1]) * last_rate, mapped)
        return mapped

    def elapsed(self, start: float, end: float, raw: bool = False) -> float:
        """Calibrated seconds between two raw stamps (``raw``: wall seconds minus yardstick time)."""
        pair = self.to_calibrated([start, end], raw=raw)
        return float(pair[1] - pair[0])

    def yardstick_seconds(self, start: float, end: float) -> float:
        """Raw seconds spent inside yardstick samples that lie within ``[start, end]``."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        inside = (starts >= start) & (ends <= end)
        return float(np.sum(ends[inside] - starts[inside]))
