"""Benchmark: the Index-Buffer kernels of ``TenderExecutor`` vs the literal equations.

Four comparisons, each gated on bit-identical results and on an exact count
of the work the fast path avoids — never on a clock.  The reference side of
the first three is :class:`~repro.core.reference.ReferenceExecutor` over the
same calibration:

1. **Projection kernel** — ``project`` on a continuous-batching decode shape
   (batched rows at scattered positions spanning several row chunks), the
   fused packed path vs the per-chunk loop: one fused matmul kernel call
   against one per row chunk.
2. **Attention kernels** — the stacked kernels vs the per-head loop on
   decode- and prefill-shaped operands, implicit and explicit: one stacked
   kernel call against one dynamic matmul per (batch, head).
3. **End-to-end decode step** — ``TransformerRunner.prefill`` +
   ``decode_step`` over a KV-cache with ragged per-request positions, fast vs
   reference executor on a zoo model: Python-level calls per step.
4. **Paged attention** — fused block-table attention vs the gather-then-dense
   reference at several contexts: dense KV bytes gathered per step (zero
   against the closed form ``layers * 2 * batch * attended * d_model * 8``).

Wall-clock medians (``repro.core.perf.measure``, with their IQR) are taken
and written to ``BENCH_kernels.json`` — a committed perf-trajectory diary —
only when ``REPRO_WRITE_BENCH=1`` (or a full evaluation) asks for a fresh
record; they gate nothing.  The time these kernels buy end to end is carried
by ``BENCHMARK.json``: ``tokens_per_s`` / ``tpot_ms_p50`` on ``decode_steady``
(projection, decode step, fused attention) with ``bench.py_calls_per_step``
and ``cache.gather_bytes`` as the traced counters.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.core import TenderConfig, TenderExecutor, TenderQuantizer
from repro.core.perf import (
    count_calls,
    decode_projection_operands,
    measure,
    synthetic_projection_site,
)
from repro.core.reference import ReferenceExecutor
from repro.data import calibration_samples, load_corpus
from repro.experiments.report import format_table, full_evaluation_enabled
from repro.models import TransformerRunner, get_language_model
from repro.serve.paged_kv_cache import PagedKVCache

MODEL_NAME = "opt-6.7b-sim"
NUM_GROUPS = 8
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
#: Greedy decode steps behind the decode entry's token-identity check.
IDENTITY_STEPS = 5


def _record_requested() -> bool:
    """Whether this run should time the kernels and (over)write the committed record."""
    return full_evaluation_enabled() or os.environ.get("REPRO_WRITE_BENCH") == "1"


def _is_matmul_kernel(code) -> bool:
    """A matmul kernel of ``repro.core`` / ``repro.quant`` (not the executors' methods routing to one)."""
    return code.co_name.endswith("_matmul") and not code.co_filename.endswith(("executor.py", "reference.py"))


def _kernel_calls(function) -> dict:
    """``function()``'s Python-level calls, and how many of them are matmul kernels."""
    function()  # lazy caches (packed tables, permuted weights) fill outside the count
    calls, kernels = count_calls(function, _is_matmul_kernel)
    return {"py_calls": calls, "matmul_kernel_calls": kernels}


def _timings(reference, fast, repeats: int, unit: float) -> dict:
    """Recorded, never gated: medians and IQRs of both sides when a record is requested."""
    if not _record_requested():
        return {}
    slow, quick = measure(reference, repeats), measure(fast, repeats)
    return {
        "reference": slow["median"] * unit,
        "reference_iqr": slow["iqr"] * unit,
        "fast": quick["median"] * unit,
        "fast_iqr": quick["iqr"] * unit,
        "speedup": slow["median"] / quick["median"],
    }


def run_projection_bench() -> dict:
    """Fast packed projection vs the reference per-chunk loop (decode shape)."""
    config = TenderConfig(bits=8, num_groups=NUM_GROUPS, row_chunk_size=32)
    params = synthetic_projection_site(config)
    x, positions, weight = decode_projection_operands()  # rows scattered over 8 chunks

    def project(executor_type):
        executor = executor_type(params, config)
        return lambda: executor.project("site", x, weight, None, positions=positions)

    fast, reference = project(TenderExecutor), project(ReferenceExecutor)
    return {
        "identical": bool(np.array_equal(fast(), reference())),
        "row_chunks": int(np.unique(positions // config.row_chunk_size).size),
        "fast": _kernel_calls(fast),
        "reference": _kernel_calls(reference),
        "us": _timings(reference, fast, repeats=25, unit=1e6),
    }


def run_attention_bench() -> dict:
    """Stacked fast attention kernels vs the per-head reference loop."""
    rng = np.random.default_rng(23)
    config = TenderConfig(bits=8, num_groups=NUM_GROUPS, quantize_attention=True)
    shapes = {
        "decode": ((16, 8, 1, 48), (16, 8, 48, 16)),
        "prefill": ((4, 8, 64, 64), (4, 8, 64, 16)),
    }
    results: dict = {}
    for shape_name, (a_shape, b_shape) in shapes.items():
        a = rng.normal(size=a_shape)
        a[..., 1] *= 30.0
        b = rng.normal(size=b_shape)
        for implicit in (True, False):

            def attend(executor_type):
                executor = executor_type({}, config, implicit=implicit)
                return lambda: executor.attention_matmul("qk", a, b)

            fast, reference = attend(TenderExecutor), attend(ReferenceExecutor)
            results[f"{shape_name}_{'implicit' if implicit else 'explicit'}"] = {
                "identical": bool(np.array_equal(fast(), reference())),
                "heads": a_shape[0] * a_shape[1],
                "fast": _kernel_calls(fast),
                "reference": _kernel_calls(reference),
                "us": _timings(reference, fast, repeats=8, unit=1e6),
            }
    return results


def _zoo_model():
    """``(weights, training corpus)`` of the zoo model both end-to-end entries decode with."""
    weights = get_language_model(MODEL_NAME)
    corpus_train, _ = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    return weights, corpus_train


def run_decode_step_bench(weights, corpus_train) -> dict:
    """End-to-end decode steps at scattered positions, fast vs reference."""
    batch = 16
    model_config = weights.config
    calibration = calibration_samples(corpus_train, seq_len=96, num_samples=4, seed=7)
    tender_config = TenderConfig(bits=8, num_groups=NUM_GROUPS, row_chunk_size=32)
    fast_runner = TenderQuantizer(tender_config, implicit=True).quantize(weights, calibration)
    reference_runner = TransformerRunner(weights, ReferenceExecutor(fast_runner.executor.site_params, tender_config))

    # Continuous-batching regime: every slot sits at its own position, so
    # each projection call sees rows spanning several row chunks.
    rng = np.random.default_rng(3)
    lengths = rng.integers(4, 120, size=batch)
    max_len = int(lengths.max())
    tokens = np.zeros((batch, max_len), dtype=np.int64)
    for row, length in enumerate(lengths):
        tokens[row, :length] = corpus_train[row * 7 : row * 7 + length]

    def primed(runner):
        pool = PagedKVCache.for_model(model_config, max_active=batch)
        cache = pool.view([pool.reserve(max_len + IDENTITY_STEPS + 1) for _ in range(batch)])
        return cache, runner.prefill(tokens, lengths, cache).argmax(axis=-1)

    def one_step(runner):
        """The first decode step after the prefill, repeatable: lengths rewound each call."""
        cache, next_tokens = primed(runner)
        prefilled = cache.lengths.copy()

        def step(next_tokens=next_tokens, rewind=True):
            if rewind:
                cache.lengths[:] = prefilled
            return runner.decode_step(next_tokens, cache)

        return step

    def decoded_tokens(step):
        """Greedy tokens after ``IDENTITY_STEPS`` steps on from the prefill."""
        next_tokens = step().argmax(axis=-1)
        for _ in range(IDENTITY_STEPS - 1):
            next_tokens = step(next_tokens, rewind=False).argmax(axis=-1)
        return next_tokens

    fast, reference = one_step(fast_runner), one_step(reference_runner)
    return {
        "identical": bool(np.array_equal(decoded_tokens(fast), decoded_tokens(reference))),
        "batch": batch,
        "fast": _kernel_calls(fast),
        "reference": _kernel_calls(reference),
        "ms_per_step": _timings(reference, fast, repeats=20, unit=1e3),
    }


def run_paged_attention_bench(weights, corpus_train) -> dict:
    """Long-context decode over the paged pool: fused block-table attention
    vs the gather-then-dense reference, at several attended context lengths.

    Both paths run the identical ``decode_step`` GEMMs; the reference
    additionally fancy-indexes every slot's KV blocks into dense per-view
    copies each layer each step (tallied by ``PagedKVCache.gather_bytes``),
    so the gap widens with context.  Tokens must match exactly, the fused
    path must move zero dense KV bytes and the reference exactly the closed
    form; the analytic counterpart is ``repro.gpu.paged_attention_gather``.
    """
    steps, batch, contexts = 6, 16, (64, 240)
    model_config = weights.config
    runner = TransformerRunner(weights)

    def decode_run(context, fused):
        pool = PagedKVCache.for_model(model_config, max_active=batch, block_size=16)
        view = pool.view([pool.reserve(context + steps) for _ in range(batch)])
        tokens = np.stack([corpus_train[row * 3 : row * 3 + context] for row in range(batch)])
        runner.fused_paged_attention = fused
        try:
            next_tokens = runner.prefill(tokens, np.full(batch, context), view).argmax(axis=-1)
            view.commit()
            gather_bytes = pool.gather_bytes
            generated = []
            for _ in range(steps):
                next_tokens = runner.decode_step(next_tokens, view).argmax(axis=-1)
                generated.append(next_tokens.copy())
        finally:
            runner.fused_paged_attention = True
        return np.array(generated), pool.gather_bytes - gather_bytes

    results: dict = {"batch": batch, "steps": steps}
    for context in contexts:
        fused_tokens, fused_bytes = decode_run(context, fused=True)
        reference_tokens, reference_bytes = decode_run(context, fused=False)
        # Step s attends context + s + 1 positions: K and V, float64, every layer.
        attended = sum(context + step + 1 for step in range(steps))
        results[f"context_{context}"] = {
            "identical": bool(np.array_equal(fused_tokens, reference_tokens)),
            "fused_gather_bytes": fused_bytes,
            "reference_gather_bytes": reference_bytes,
            "closed_form_gather_bytes": (
                model_config.num_layers * 2 * batch * attended * model_config.d_model * 8
            ),
            "run_s": _timings(
                lambda: decode_run(context, fused=False), lambda: decode_run(context, fused=True),
                repeats=3, unit=1.0,
            ),  # fmt: skip
        }
    return results


def run_bench() -> dict:
    zoo = _zoo_model()
    results = {
        "num_groups": NUM_GROUPS,
        "projection": run_projection_bench(),
        "attention": run_attention_bench(),
        "decode_step": run_decode_step_bench(*zoo),
        "paged_attention": run_paged_attention_bench(*zoo),
    }
    if _record_requested():
        RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return results


def test_executor_kernels(benchmark, render):
    results = run_once(benchmark, run_bench)
    projection = results["projection"]
    attention = results["attention"]
    decode = results["decode_step"]
    paged = {key: row for key, row in results["paged_attention"].items() if key.startswith("context_")}
    counted = {"project (decode rows)": projection, "decode_step": decode}
    counted.update({f"attention {key}": row for key, row in attention.items()})
    render(
        format_table(
            ["Path", "Reference calls", "Fast calls", "Reference kernels", "Fast kernels"],
            [
                [
                    name,
                    row["reference"]["py_calls"],
                    row["fast"]["py_calls"],
                    row["reference"]["matmul_kernel_calls"],
                    row["fast"]["matmul_kernel_calls"],
                ]
                for name, row in counted.items()
            ]
            + [
                [f"paged decode @{key.split('_')[1]} (gathered bytes)", row["reference_gather_bytes"],
                 row["fused_gather_bytes"], "-", "-"]
                for key, row in paged.items()
            ],  # fmt: skip
            title=f"Index-Buffer fast kernels vs reference, exact dispatch counts (num_groups={NUM_GROUPS})",
        )
    )
    # Bit-identity is non-negotiable on every measured path.
    assert all(row["identical"] for row in (*counted.values(), *paged.values()))
    # Projection (retired floor: >= 3x): one fused matmul kernel call for the
    # whole batch, where the reference dispatches one requantized matmul (and
    # its per-group integer matmuls) per row chunk the batch touches.
    assert projection["fast"]["matmul_kernel_calls"] == 1
    assert projection["reference"]["matmul_kernel_calls"] >= projection["row_chunks"]
    assert projection["fast"]["py_calls"] * 3 <= projection["reference"]["py_calls"]
    # Attention (retired floors: prefill >= 2x): one stacked kernel call for
    # every head at once, where the reference loop runs one dynamic Tender
    # matmul per (batch, head).
    for row in attention.values():
        assert row["fast"]["matmul_kernel_calls"] == 1
        assert row["reference"]["matmul_kernel_calls"] >= row["heads"]
        assert row["fast"]["py_calls"] * 4 <= row["reference"]["py_calls"]
    # Decode step (retired floor: >= 3x): the whole forward makes at most a
    # third of the reference's Python-level calls (the tiny-model count is
    # budgeted in tools/check_perf_smoke.py's `decode forward` row: 131 <= 147).
    assert decode["fast"]["py_calls"] * 3 <= decode["reference"]["py_calls"]
    # Gather-free decode (retired floor: >= 1.3x at the longest context): zero
    # dense KV copies, where the reference copies exactly the closed form.
    assert all(row["fused_gather_bytes"] == 0 for row in paged.values())
    assert all(row["reference_gather_bytes"] == row["closed_form_gather_bytes"] for row in paged.values())
    # The committed perf-trajectory record exists (rewritten only when
    # REPRO_WRITE_BENCH=1 / full evaluation asks for fresh numbers).
    assert RESULT_PATH.is_file()
