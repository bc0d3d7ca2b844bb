#!/usr/bin/env python
"""Warm per-call time of the fused ``TenderExecutor.project`` and of one 2-shard ``all_gather``.

Run from the repository root:

    PYTHONPATH=src python tools/time_projection.py
    PYTHONPATH=<other checkout>/src python tools/time_projection.py   # the same shapes, other code

The geometry is the benchmark model's: ``opt-6.7b-sim`` (64 channels, 4
heads, 2 layers, a 192-wide FFN, a 512-token vocabulary) calibrated as the
benchmark calibrates it (8-bit, 8 groups, 32-row chunks, four 48-token
samples), so two of its row chunks are calibrated and later positions
clip to the last.  Each projection shape is one site's call inside a
forward of ``rows`` rows at scattered positions — the forward's plan
already grouped, as every site after a forward's first finds it: block 0's
stacked Q/K/V, block 0's ``fc1`` and the LM head, at 1, 3, 11 and 64 rows.
The collective is one ``all_gather`` of a 3-row, ``d_model``-wide
activation's two column halves on a group with a fault injector attached
(no fault fires), the sharded runner's meeting after ``out_proj``.

The shapes are timed round-robin and the median per shape is printed.  The
numbers read the clock: compare two checkouts by running both back to back
on an idle machine, never against a number written down elsewhere.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import TenderConfig, TenderQuantizer  # noqa: E402
from repro.core.kernels import ForwardPlan  # noqa: E402
from repro.data import calibration_samples, load_corpus  # noqa: E402
from repro.models import get_language_model  # noqa: E402
from repro.serve import CollectiveFaultInjector, CollectiveGroup  # noqa: E402

MODEL = "opt-6.7b-sim"
ROWS = (1, 3, 11, 64)
GATHER_ROWS = 3
ROUNDS, CALLS = 5, 400


def build_runner():
    """The benchmark's Tender-implicit runner: the committed checkpoint, calibrated the benchmark's way."""
    weights = get_language_model(MODEL)
    corpus, _ = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    calibration = calibration_samples(np.asarray(corpus, dtype=np.int64), seq_len=48, num_samples=4, seed=7)
    quantizer = TenderQuantizer(TenderConfig(bits=8, num_groups=8, row_chunk_size=32), implicit=True)
    return quantizer.quantize(weights, calibration)


def projections(runner, rng: np.random.Generator) -> dict:
    """``{label: call}``: one warm fused ``project`` per site and row count."""
    block, weights = runner.weights.blocks[0], runner.weights
    names, qkv_weight, qkv_bias = runner._qkv_stack(0)
    sites = {
        "qkv": (names, qkv_weight, qkv_bias),
        "fc1": ("block0.ffn.fc1", block.ffn.w1, block.ffn.b1),
        "lm_head": ("lm_head", weights.lm_head, None),
    }
    calls = {}
    for label, (name, weight, bias) in sites.items():
        for rows in ROWS:
            x = rng.normal(size=(rows, weight.shape[0]))
            plan = ForwardPlan(rng.integers(0, runner.config.max_seq_len, size=rows))
            plan.row_chunks(runner.executor.config.row_chunk_size)  # a forward's first site groups the rows
            calls[f"project {label:7s} {rows:2d} rows"] = partial(
                runner.executor.project, name, x, weight, bias, positions=plan
            )
    return calls


def gather(runner, rng: np.random.Generator):
    """One 2-shard ``all_gather`` of a ``d_model``-wide activation's column halves."""
    group = CollectiveGroup(2, fault_injector=CollectiveFaultInjector(seed=0))
    activation = rng.normal(size=(GATHER_ROWS, runner.config.d_model))
    half = activation.shape[1] // 2
    return partial(group.all_gather, [activation[:, :half], activation[:, half:]], axis=-1)


def main() -> None:
    rng = np.random.default_rng(0)
    runner = build_runner()
    cases = projections(runner, rng)
    cases[f"all_gather 2 shards {GATHER_ROWS:2d} rows"] = gather(runner, rng)
    if not runner.executor._site(runner._qkv_stack(0)[0]).fused:
        raise SystemExit("the benchmark model's Q/K/V record is not fused: this times the unfused path")
    samples = {label: [] for label in cases}
    for _ in range(ROUNDS):
        for label, call in cases.items():
            call()
            times = samples[label]
            for _ in range(CALLS):
                started = time.perf_counter()
                call()
                times.append(time.perf_counter() - started)
    for label, times in samples.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75]) * 1e6
        print(f"{label}: {median:6.1f} us (IQR {q3 - q1:4.1f})")


if __name__ == "__main__":
    main()
