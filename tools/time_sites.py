#!/usr/bin/env python
"""Warm per-call time of the sites a forward is made of, one case set at a time.

Run from the repository root:

    PYTHONPATH=src python tools/time_sites.py projection
    PYTHONPATH=src python tools/time_sites.py bookkeeping
    PYTHONPATH=src python tools/time_sites.py attention
    PYTHONPATH=<other checkout>/src python tools/time_sites.py bookkeeping   # the same shapes, other code

The geometry is the benchmark model's, ``opt-6.7b-sim``: 64 channels, 4
heads of 16, 2 layers, a 192-wide FFN, a 512-token vocabulary and context,
16-position KV blocks, 32-row calibration chunks.  The case sets:

``projection``
    One warm fused ``TenderExecutor.project`` per site — block 0's stacked
    Q/K/V, block 0's ``fc1`` and the LM head — at 1, 3, 11 and 64 rows at
    scattered positions, the forward's plan already grouped (as every site
    after a forward's first finds it), on the model calibrated as the
    benchmark calibrates it (8-bit, 8 groups, four 48-token samples).  Plus
    one 2-shard ``all_gather`` of a 3-row activation's column halves on a
    group with a fault injector attached (no fault fires): the sharded
    runner's meeting after ``out_proj``.
``bookkeeping``
    What surrounds one decode forward's math at 1, 3, 11 and 16 sequences of
    a prefix-cached pool sized for 16 (prompts of 20-120 positions,
    published, with room for 64 tokens): ``ForwardPlan`` plus
    ``row_chunks``; ``attention_layout`` on a plan whose row layout the KV
    write already derived; the first layer's ``PagedKVCache.write``, which
    validates and de-indexes its targets; ``SlotBatchView.commit``.
``attention``
    One decode forward's ``paged_attention``: ``batch`` sequences of one
    query row, each at depth ``reach`` with its block table cut into
    ``runs`` runs of consecutive blocks.  A least-squares fit over the
    medians follows,

        us = fixed + per_sequence * batch + per_run * (segments - batch) + per_cell * score cells

    the cost sentence of ``paged_attention``'s docstring (a score cell is
    one head x row x attended slot).

A case is a ``make()`` that prepares one call outside the timed region and
returns it, so a bookkeeping call always finds a fresh plan.  The cases are
timed round-robin, and one median and IQR line per case is printed.  The
numbers read the clock: compare two checkouts by running both back to back,
alternately, on an idle machine, never against a number written down
elsewhere.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # one BLAS thread; must be set before NumPy loads
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import time  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import TenderConfig, TenderQuantizer  # noqa: E402
from repro.core.kernels import ForwardPlan, paged_attention  # noqa: E402
from repro.data import calibration_samples, load_corpus  # noqa: E402
from repro.models import get_language_model  # noqa: E402
from repro.serve import CollectiveFaultInjector, CollectiveGroup, PagedKVCache  # noqa: E402

MODEL = "opt-6.7b-sim"
BLOCK_SIZE, ROW_CHUNK_SIZE = 16, 32
ROUNDS, CALLS = 5, 400


def _ready(function, *args, **kwargs):
    """A ``make()`` that returns the same prepared call every time."""
    return partial(partial, function, *args, **kwargs)


def projection_cases(rng: np.random.Generator):
    """The fused ``project`` per site and row count, and one 2-shard ``all_gather``."""
    weights = get_language_model(MODEL)
    corpus, _ = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    calibration = calibration_samples(np.asarray(corpus, dtype=np.int64), seq_len=48, num_samples=4, seed=7)
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=ROW_CHUNK_SIZE)
    runner = TenderQuantizer(config, implicit=True).quantize(weights, calibration)
    names, qkv_weight, qkv_bias = runner._qkv_stack(0)
    if not runner.executor._site(names).fused:
        raise SystemExit("the benchmark model's Q/K/V record is not fused: this times the unfused path")
    block = weights.blocks[0]
    sites = {
        "qkv": (names, qkv_weight, qkv_bias),
        "fc1": ("block0.ffn.fc1", block.ffn.w1, block.ffn.b1),
        "lm_head": ("lm_head", weights.lm_head, None),
    }
    cases = {}
    for label, (name, weight, bias) in sites.items():
        for rows in (1, 3, 11, 64):
            x = rng.normal(size=(rows, weight.shape[0]))
            plan = ForwardPlan(rng.integers(0, runner.config.max_seq_len, size=rows))
            plan.row_chunks(ROW_CHUNK_SIZE)  # a forward's first site groups the rows
            cases[f"project {label:7s} {rows:2d} rows"] = _ready(
                runner.executor.project, name, x, weight, bias, positions=plan
            )
    group = CollectiveGroup(2, fault_injector=CollectiveFaultInjector(seed=0))
    activation = rng.normal(size=(3, runner.config.d_model))
    halves = np.split(activation, 2, axis=1)
    cases["all_gather 2 shards  3 rows"] = _ready(group.all_gather, halves, axis=-1)
    return cases, None


def _decode_batch(config, sequences: int, rng: np.random.Generator) -> dict:
    """Bookkeeping cases over ``sequences`` slots of a fresh pool, their prompts published and committed."""
    pool = PagedKVCache.for_model(config, max_active=16, block_size=BLOCK_SIZE)
    slots = []
    for _ in range(sequences):
        prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(20, 121)))
        slots.append(pool.reserve(prompt.size + 64))
        pool.set_length(slots[-1], prompt.size)
        pool.publish_prefix(slots[-1], prompt)
    view = pool.view(slots)
    positions = view.lengths.copy()
    _, _, runs, block_size = view.attention_operands(0)
    payload = rng.normal(size=(config.num_heads, sequences, config.d_head))

    def layout():
        plan = ForwardPlan(positions)
        plan.rows  # the KV write derived the row layout before attention runs
        return partial(plan.attention_layout, runs, block_size)

    return {
        f"plan + row_chunks  {sequences:2d} seqs": lambda: partial(
            ForwardPlan(positions).row_chunks, ROW_CHUNK_SIZE
        ),
        f"attention_layout   {sequences:2d} seqs": layout,
        f"first-layer write  {sequences:2d} seqs": lambda: partial(
            view.write, 0, payload, payload, ForwardPlan(positions)
        ),
        f"view commit        {sequences:2d} seqs": lambda: view.commit,
    }


def bookkeeping_cases(rng: np.random.Generator):
    """Plan, layout, first KV write and commit of one decode forward per batch size."""
    config = get_language_model(MODEL).config
    cases = {}
    for sequences in (1, 3, 11, 16):
        cases.update(_decode_batch(config, sequences, rng))
    return cases, None


def _attention_operands(batch: int, reach: int, runs: int, rng: np.random.Generator) -> tuple:
    """``paged_attention``'s arguments for one shape (free extents capped so each table is ``runs`` runs)."""
    heads, d_head, blocks = 4, 16, -(-reach // BLOCK_SIZE)
    extent = -(-blocks // runs)
    pool = PagedKVCache(
        num_layers=1, num_heads=heads, d_head=d_head, block_size=BLOCK_SIZE,
        num_blocks=2 * batch * blocks + extent,
    )  # fmt: skip
    if runs > 1:  # pin one spacer block after every ``extent`` free ones
        spacers = [pool.reserve(BLOCK_SIZE) for _ in range(pool.num_blocks)]
        for index, spacer in enumerate(spacers):
            if index % (extent + 1) != extent:
                pool.free(spacer)
    slots = []
    for _ in range(batch):
        slots.append(pool.reserve(reach))
        payload = rng.normal(size=(2, 1, heads, reach, d_head))
        pool.write(0, [slots[-1]], payload[0], payload[1], np.arange(reach)[None, :])
        pool.set_length(slots[-1], reach)
    plan = ForwardPlan.ragged(np.full(batch, reach - 1), np.ones(batch, dtype=np.int64))
    return (rng.normal(size=(heads, batch, d_head)), *pool.view(slots).attention_operands(0), plan)


def attention_cases(rng: np.random.Generator):
    """``paged_attention`` per (batch, reach, runs) shape, and the fit over their medians."""
    cases, design = {}, []
    for batch, reach, runs in [(b, r, n) for b in (1, 8, 16) for r in (64, 256) for n in (1, 2)]:
        operands = _attention_operands(batch, reach, runs, rng)
        heads, segments = len(operands[0]), len(operands[-1].attention_layout(operands[3], BLOCK_SIZE)[0])
        label = f"paged_attention batch {batch:2d} reach {reach:3d} runs {runs} ({segments:2d} segments)"
        cases[label] = _ready(paged_attention, *operands)
        design.append([1.0, batch, segments - batch, heads * batch * reach])

    def fit(medians) -> str:
        fixed, per_sequence, per_run, per_cell = np.linalg.lstsq(np.array(design), medians, rcond=None)[0]
        return (
            f"fit: {fixed:.1f} us + {per_sequence:.2f} us/sequence + {per_run:.2f} us/further run "
            f"+ {per_cell * 1e3:.1f} ns/score cell"
        )

    return cases, fit


#: ``name -> build(rng)``, which returns ``({label: make}, finish)``; ``finish(medians)``, if
#: not None, returns the set's last line.
CASE_SETS = {"projection": projection_cases, "bookkeeping": bookkeeping_cases, "attention": attention_cases}


def main(argv) -> None:
    if len(argv) != 1 or argv[0] not in CASE_SETS:
        raise SystemExit(f"usage: time_sites.py {{{','.join(CASE_SETS)}}}")
    cases, finish = CASE_SETS[argv[0]](np.random.default_rng(0))
    samples = {label: [] for label in cases}
    for _ in range(ROUNDS):
        for label, make in cases.items():
            make()()
            times = samples[label]
            for _ in range(CALLS):
                call = make()
                started = time.perf_counter()
                call()
                times.append(time.perf_counter() - started)
    medians = []
    for label, times in samples.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75]) * 1e6
        medians.append(median)
        print(f"{label}: {median:7.1f} us (IQR {q3 - q1:5.1f})")
    if finish is not None:
        print(finish(np.array(medians)))


if __name__ == "__main__":
    main(sys.argv[1:])
