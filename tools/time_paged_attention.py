#!/usr/bin/env python
"""Warm per-call time of ``paged_attention``, and a linear cost fit over it.

Run from the repository root:

    PYTHONPATH=src python tools/time_paged_attention.py
    PYTHONPATH=<other checkout>/src python tools/time_paged_attention.py   # the same shapes, other code

Each shape is one decode forward's attention at the benchmark model's
geometry (4 heads of 16, 16-position blocks): ``batch`` sequences of one
query row each, every one at depth ``reach`` with its block table cut into
``runs`` runs of consecutive blocks.  The shapes are timed round-robin, the
median per shape is printed, and a least-squares fit

    us = fixed + per_sequence * batch + per_run * (segments - batch) + per_cell * score cells

over all of them gives the cost sentence of ``paged_attention``'s docstring
(a score cell is one head x row x attended slot).  The numbers read the
clock: compare two checkouts by running both back to back on an idle
machine, never against a number written down elsewhere.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.kernels import ForwardPlan, paged_attention  # noqa: E402
from repro.serve import PagedKVCache  # noqa: E402

HEADS, D_HEAD, BLOCK = 4, 16, 16
SHAPES = [(batch, reach, runs) for batch in (1, 8, 16) for reach in (64, 256) for runs in (1, 2)]
ROUNDS, CALLS = 5, 200


def operands(batch: int, reach: int, runs: int, rng: np.random.Generator) -> tuple:
    """``paged_attention``'s arguments for one shape (free extents capped so each table is ``runs`` runs)."""
    blocks = -(-reach // BLOCK)
    extent = -(-blocks // runs)
    pool = PagedKVCache(
        num_layers=1, num_heads=HEADS, d_head=D_HEAD, block_size=BLOCK, num_blocks=2 * batch * blocks + extent
    )
    if runs > 1:  # pin one spacer block after every ``extent`` free ones
        spacers = [pool.reserve(BLOCK) for _ in range(pool.num_blocks)]
        for index, spacer in enumerate(spacers):
            if index % (extent + 1) != extent:
                pool.free(spacer)
    slots = []
    for _ in range(batch):
        slot = pool.reserve(reach)
        payload = rng.normal(size=(2, 1, HEADS, reach, D_HEAD))
        pool.write(0, [slot], payload[0], payload[1], np.arange(reach)[None, :])
        pool.set_length(slot, reach)
        slots.append(slot)
    plan = ForwardPlan.ragged(np.full(batch, reach - 1), np.ones(batch, dtype=np.int64))
    return (rng.normal(size=(HEADS, batch, D_HEAD)), *pool.view(slots).attention_operands(0), plan)


def main() -> None:
    rng = np.random.default_rng(0)
    cases = [operands(*shape, rng) for shape in SHAPES]
    samples = [[] for _ in SHAPES]
    for _ in range(ROUNDS):
        for case, times in zip(cases, samples):
            paged_attention(*case)
            for _ in range(CALLS):
                started = time.perf_counter()
                paged_attention(*case)
                times.append(time.perf_counter() - started)
    rows, medians = [], []
    for (batch, reach, runs), case, times in zip(SHAPES, cases, samples):
        segments = len(case[-1].attention_layout(case[3], BLOCK)[0])
        medians.append(float(np.median(times)) * 1e6)
        rows.append([1.0, batch, segments - batch, HEADS * batch * reach])
        print(f"batch {batch:2d} reach {reach:3d} runs {runs}: {segments:2d} segments, {medians[-1]:7.1f} us")
    fixed, per_sequence, per_run, per_cell = np.linalg.lstsq(np.array(rows), np.array(medians), rcond=None)[0]
    print(
        f"fit: {fixed:.1f} us + {per_sequence:.2f} us/sequence + {per_run:.2f} us/further run "
        f"+ {per_cell * 1e3:.1f} ns/score cell"
    )


if __name__ == "__main__":
    main()
