#!/usr/bin/env python
"""Warm per-call time of the bookkeeping around one decode forward's math.

Run from the repository root:

    PYTHONPATH=src python tools/time_bookkeeping.py
    PYTHONPATH=<other checkout>/src python tools/time_bookkeeping.py   # the same shapes, other code

The geometry is the ``decode_steady`` benchmark's: ``opt-6.7b-sim`` (2
layers, 4 heads, a 512-position context), 32-row calibration chunks and a
prefix-cached pool of 16-position blocks sized for 16 live requests.  Each
batch of 1, 3, 11 and 16 sequences holds prompts of 20-120 positions
published to the prefix index, with room for 64 generated tokens, and
times one decode forward's worth of:

* ``ForwardPlan(...)`` plus ``row_chunks`` — what every forward builds first;
* ``attention_layout`` — on a plan whose row layout the KV write already
  derived, as the first ``paged_attention`` of a forward finds it;
* the first layer's ``PagedKVCache.write`` on a fresh plan, which validates
  and de-indexes its targets (``_scatter_targets``);
* ``SlotBatchView.commit`` — what the scheduler runs after the forward.

A fresh plan is built outside the timed region before every call, so no
call finds another's cached result.  The cases are timed round-robin and
the median and IQR per case are printed.  The numbers read the clock:
compare two checkouts by running both back to back on an idle machine,
never against a number written down elsewhere.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.kernels import ForwardPlan  # noqa: E402
from repro.models import get_language_model  # noqa: E402
from repro.serve import PagedKVCache  # noqa: E402

MODEL = "opt-6.7b-sim"
SEQUENCES = (1, 3, 11, 16)
BLOCK_SIZE, MAX_ACTIVE, ROW_CHUNK_SIZE, NEW_TOKENS = 16, 16, 32, 64
ROUNDS, CALLS = 5, 400


def decode_view(config, sequences: int, rng: np.random.Generator):
    """A view over ``sequences`` slots of a fresh pool, their prompts published and committed."""
    pool = PagedKVCache.for_model(config, max_active=MAX_ACTIVE, block_size=BLOCK_SIZE)
    slots = []
    for _ in range(sequences):
        prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(20, 121)))
        slot = pool.reserve(prompt.size + NEW_TOKENS)
        pool.set_length(slot, prompt.size)
        pool.publish_prefix(slot, prompt)
        slots.append(slot)
    return pool, pool.view(slots)


def batch_cases(config, sequences: int, rng: np.random.Generator) -> dict:
    """``{label: make}`` for one batch size: ``make()`` prepares one call, untimed, and returns it."""
    pool, view = decode_view(config, sequences, rng)
    positions = view.lengths.copy()
    _, _, runs, block_size = view.attention_operands(0)
    payload = rng.normal(size=(config.num_heads, sequences, config.d_head))

    def plan_and_chunks():
        return partial(ForwardPlan(positions).row_chunks, ROW_CHUNK_SIZE)

    def layout():
        plan = ForwardPlan(positions)
        plan.rows  # the KV write derived the row layout before attention runs
        return partial(plan.attention_layout, runs, block_size)

    def first_write():
        return partial(view.write, 0, payload, payload, ForwardPlan(positions))

    def commit():
        return view.commit

    return {
        f"plan + row_chunks  {sequences:2d} seqs": plan_and_chunks,
        f"attention_layout   {sequences:2d} seqs": layout,
        f"first-layer write  {sequences:2d} seqs": first_write,
        f"view commit        {sequences:2d} seqs": commit,
    }


def main() -> None:
    rng = np.random.default_rng(0)
    config = get_language_model(MODEL).config
    made = {}
    for sequences in SEQUENCES:
        made.update(batch_cases(config, sequences, rng))
    samples = {label: [] for label in made}
    for _ in range(ROUNDS):
        for label, make in made.items():
            make()()
            times = samples[label]
            for _ in range(CALLS):
                call = make()
                started = time.perf_counter()
                call()
                times.append(time.perf_counter() - started)
    for label, times in samples.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75]) * 1e6
        print(f"{label}: {median:6.1f} us (IQR {q3 - q1:4.1f})")


if __name__ == "__main__":
    main()
