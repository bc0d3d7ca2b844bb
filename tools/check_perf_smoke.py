#!/usr/bin/env python
"""Perf smoke gate: the serving hot paths must not regress below reference.

Run from the repository root (tier-1 runs it via ``tests/tools``):

    PYTHONPATH=src python tools/check_perf_smoke.py

Ten checks run back to back:

1. **Fast kernels and decode dispatch** — builds the shared synthetic decode
   workload from ``repro.core.perf`` (no model training, no checkpoint cache
   — the same fixture ``benchmarks/bench_executor_kernels.py`` measures) and
   verifies that the fast Index-Buffer projection path is bit-identical to
   the reference per-chunk loop.  It then counts, exactly and without reading
   a clock, what one batched ``decode_step`` of the Tender-quantized tiny
   model dispatches: Python-level calls (``sys.setprofile``) against
   ``DECODE_CALL_BUDGET`` and ``np.unique`` calls against
   ``MAX_UNIQUE_PER_DECODE`` — a future PR that re-derives position metadata
   per projection site or per layer (or routes the hot path back through
   NumPy's Python wrappers) fails tier-1 on any machine, loaded or not.  The
   measured projection speed-up over the reference (see
   ``BENCH_kernels.json``) is printed for information and gates nothing.
2. **Prefix-cached scheduler** — serves a shared-template trace through
   ``repro.serve.Scheduler`` (random-weight model, no training) with the
   prefix cache on and off, and gates on the *deterministic* accounting:
   generated tokens must be identical, the cache must serve well over half
   of the prompt tokens (a broken radix match silently degrades to zero
   hits — exactly the regression this catches), and chunked prefill must
   keep active decodes advancing every iteration.

3. **Speculative decoding** — serves a repetition-heavy trace (random
   weights again, but with *periodic position embeddings* so greedy
   generation provably enters a short cycle — no training needed) with
   ``speculation=SpecConfig(PromptLookupDraft())`` and gates on the
   deterministic accounting: generated tokens must be bit-identical to the
   non-speculative run (with and without the prefix cache), the drafter's
   accept rate must clear a floor, and the decode forward count must
   actually drop — a broken verify/rollback path fails parity, a broken
   drafter silently degrades to zero accepts, and both fail here instead
   of shipping.  A second, mixed trace (one warm request among cold ones,
   staggered budgets) pins the *shape* of the forward with exact counts:
   verify rows equal the drafts proposed plus one pending token per
   participating request (no padding rows) and no engine step runs more
   than one decode-side forward.

4. **Fused paged attention** — serves the same random-weight model with
   the fused block-table attention on and off and gates on the
   deterministic accounting: generated tokens must be identical, the
   fused run must move **zero** dense KV bytes
   (``PagedKVCache.gather_bytes``), and the reference run must tally at
   least the analytic floor — a fused path that silently falls back to
   gathering fails the zero check, and a broken counter fails the floor.

5. **Priority preemption** — serves a tiny two-class trace (background
   stream plus an urgent burst) with FIFO and with preemptive scheduling
   and gates on the deterministic accounting: every request's tokens must
   be bit-identical across the two policies (the free-then-replay resume
   path must not perturb a single logit), at least one preemption must
   actually fire, the urgent class's tick-based p99 TTFT must improve by
   ``REQUIRED_TTFT_SPEEDUP``, and aggregate generated tokens per forwarded
   row must stay within ``REQUIRED_WORK_RATIO`` of FIFO — a resume path
   that stops publishing victims' blocks fails the work gate, and a
   replay that re-samples fails parity.

6. **Observability** — serves the preemption gate's two-class trace with
   tracing disabled (``tracer=None``) and enabled (``repro.obs.Tracer``)
   and gates on three claims: generated tokens must be bit-identical
   (instrumentation is observation-only), the disabled path's measured
   residue — one ``is not None`` branch per emit site the enabled run
   proves hot — must stay under ``MAX_DISABLED_TRACE_OVERHEAD`` of the
   serve, and the exported Chrome trace JSON must load back with every
   required lifecycle event type, balanced spans, and named tracks — an
   emit site doing work outside its guard fails the overhead gate, and
   one that went dark fails the taxonomy check.

7. **Serving stress** — replays short ``ServingStressHarness`` schedules
   (mixed admit/fork/decode/truncate/preempt/evict/replica_kill/
   replica_stall against a tiny paged pool) and fails on any
   ``InvariantViolation`` — the same invariant web tier-1 exercises, kept
   in the standalone gate so external CI without pytest still audits the
   pool.

8. **Fault tolerance** — serves the same trace through a 3-replica
   ``repro.serve.cluster.ReplicaPool`` fault-free and under scripted
   mid-trace replica kills, and gates on the deterministic accounting:
   every surviving request's tokens must be bit-identical to the
   fault-free pool (checkpoint/replay recovery must not perturb a token),
   at least one recovery must actually fire, and chaos goodput (generated
   tokens per forwarded row) must stay within ``REQUIRED_FT_GOODPUT`` of
   fault-free — a recovery path that recomputes whole contexts instead of
   riding prefix hits fails the goodput floor, and one that re-samples
   fails parity.

9. **Tensor parallel** — serves a Tender-quantized random-weight model
   solo and as a 2-shard ``repro.serve.ShardedRunner`` whose collective
   transport runs under scripted corruption/delay/duplication, then under
   a scripted shard kill through a ``ReplicaPool`` of shard groups, and
   gates on the deterministic accounting: sharded tokens must be
   bit-identical to solo (column-parallel sharding never splits the
   channel axis Tender's calibration tables index), at least one
   corrupted collective must be *caught by its checksum and retried*, at
   least one shard-kill recovery must fire through the checkpoint/replay
   path, and chaos goodput must stay within ``REQUIRED_FT_GOODPUT`` of
   fault-free — a transport that silently reduces a corrupted payload
   fails parity, and a recovery that recomputes whole contexts fails the
   goodput floor.

10. **Block contiguity** — replays a seeded churn trace of mixed-size
   requests through the scheduler twice, once on ``PagedKVCache`` and once
   on ``repro.serve.stress.LruReferencePool`` (the retired one-list
   allocation policy), first with the prefix cache off, then with it on in
   a pool small enough that cached blocks are reclaimed.  Gates on exact
   counts: mean consecutive-block runs per live table (sampled after every
   step) must stay at or under ``MAX_RUNS_PER_TABLE`` with the cache off —
   every run is one more matmul pair per attention call — and never above
   the reference's; prefix-hit tokens must equal the reference's with the
   cache on (the allocator chooses *where* a table lands, never *which*
   cached block dies); tokens must be identical and the fused path must
   gather nothing.  An allocator that goes back to popping blocks one at a
   time fails the first gate, and one that evicts differently fails the
   second.

Exit status 0 when clean; 1 with a one-line diagnosis otherwise.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core import TenderConfig, TenderExecutor
from repro.core.perf import decode_projection_operands, measure, synthetic_projection_site

#: Python-level calls one batched ``decode_step`` of the Tender-quantized tiny
#: model (2 layers) may make: the measured count + 10 %.  The count is exact
#: for a given NumPy (it includes NumPy's own Python-level wrappers); the
#: headroom is for NumPy versions, not for new per-site work.  Measured 203
#: (405 before the forward plan, NumPy 2.4).
DECODE_CALL_BUDGET = 221
#: ``np.unique`` calls per decode forward: the plan's row-chunk grouping and
#: the first layer's ``PagedKVCache.write`` (13 projections + 2 writes = 15
#: before the forward plan).
MAX_UNIQUE_PER_DECODE = 2
#: Repeats behind the (informational) projection speed-up.
REPEATS = 25
#: Serve attempts of the observability gate's tracing-on/off comparison.
ATTEMPTS = 4
#: The prefix cache must serve at least this fraction of the shared trace's
#: prompt tokens (the trace is built with ~78% overlap).
REQUIRED_HIT_RATE = 0.5
#: The prompt-lookup drafter must land at least this fraction of its draft
#: tokens on the periodic trace (measured ~0.9; the generation is a strict
#: cycle, so a healthy drafter cannot miss).
REQUIRED_ACCEPT_RATE = 0.5
#: Preemption must improve the urgent class's deterministic (tick-based)
#: p99 TTFT by at least this factor on the two-class trace (measured ~8.7x;
#: the floor matches the headline gate in ``bench_generate_decode.py``).
REQUIRED_TTFT_SPEEDUP = 1.5
#: Preemptive scheduling must keep aggregate generated tokens per forwarded
#: row within 5% of FIFO (measured ~0.99 — prefix-published victim blocks
#: make replay nearly free; a resume path that recomputes from scratch
#: lands well below this).
REQUIRED_WORK_RATIO = 0.95
#: Stress seeds and ops per seed for the standalone invariant sweep (tier-1
#: runs the deeper parametrized suite in ``tests/serve``).
STRESS_SEEDS = 2
STRESS_OPS = 120
#: A chaos run with scripted replica kills must keep at least this fraction
#: of the fault-free pool's goodput (generated tokens per forwarded row) —
#: measured well above 0.9 because recovery replays ride prefix-cache hits;
#: a recovery path that recomputes whole contexts from scratch lands below.
REQUIRED_FT_GOODPUT = 0.8
#: The disabled tracing path (``tracer=None``) may cost at most this
#: fraction of the serve: the measured per-``is not None`` guard cost times
#: the emit sites an enabled run proves are on the hot path (measured
#: ~0.01% — a future emit site that builds attribute dicts outside its
#: guard blows well past this).
MAX_DISABLED_TRACE_OVERHEAD = 0.01
#: Mean consecutive-block runs per live block table the churn trace may
#: reach with the prefix cache off (measured 1.00; the one-list LRU
#: reference policy reads 2.94 on the same trace).
MAX_RUNS_PER_TABLE = 1.2


def _tiny_serving_runner():
    """A random-weight TransformerRunner (no training, no checkpoint cache)."""
    from repro.models.inference import TransformerRunner
    from repro.models.weights import (
        AttentionWeights,
        BlockWeights,
        FeedForwardWeights,
        LayerNormWeights,
        ModelWeights,
    )
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=64, d_model=32, num_heads=2, num_layers=2, d_ff=64, max_seq_len=128, seed=0
    )
    rng = np.random.default_rng(7)

    def dense(shape):
        return rng.normal(scale=0.25, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(config.d_model), bias=np.zeros(config.d_model))

    blocks = [
        BlockWeights(
            ln_attn=norm(),
            attn=AttentionWeights(
                wq=dense((config.d_model, config.d_model)), bq=np.zeros(config.d_model),
                wk=dense((config.d_model, config.d_model)), bk=np.zeros(config.d_model),
                wv=dense((config.d_model, config.d_model)), bv=np.zeros(config.d_model),
                wo=dense((config.d_model, config.d_model)), bo=np.zeros(config.d_model),
            ),
            ln_ffn=norm(),
            ffn=FeedForwardWeights(
                w1=dense((config.d_model, config.d_ff)), b1=np.zeros(config.d_ff),
                w2=dense((config.d_ff, config.d_model)), b2=np.zeros(config.d_model),
            ),
        )
        for _ in range(config.num_layers)
    ]
    weights = ModelWeights(
        config=config,
        token_embedding=dense((config.vocab_size, config.d_model)),
        position_embedding=dense((config.max_seq_len, config.d_model)),
        blocks=blocks,
        ln_final=norm(),
        lm_head=dense((config.d_model, config.vocab_size)),
    )
    return TransformerRunner(weights)


def _serve(runner, prompts, prefix_cache, prefill_chunk=None, speculation=None, max_new_tokens=3):
    """One scheduler run over ``prompts``; returns (outputs by id, stats)."""
    from repro.serve import GenerationConfig, Scheduler

    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=max_new_tokens),
        max_batch_size=3,
        block_size=8,
        prefix_cache=prefix_cache,
        prefill_chunk=prefill_chunk,
        speculation=speculation,
        record_logits=False,
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    outputs = {output.request_id: output for output in scheduler.run()}
    return outputs, scheduler.stats


def _periodic_spec_runner(period: int = 7):
    """A random-weight runner whose greedy generation provably cycles.

    The position embedding repeats every ``period`` positions and dominates
    the (deliberately small) token embeddings and attention weights, so the
    residual stream — and therefore the greedy next token — is essentially
    a function of ``position mod period``: generation enters a strict
    ``period``-cycle immediately.  That gives the speculative gate a
    repetition-heavy workload that needs no training and cannot drift.
    """
    from repro.models.inference import TransformerRunner
    from repro.models.weights import (
        AttentionWeights,
        BlockWeights,
        FeedForwardWeights,
        LayerNormWeights,
        ModelWeights,
    )
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=64, d_model=32, num_heads=2, num_layers=2, d_ff=64, max_seq_len=128, seed=0
    )
    rng = np.random.default_rng(7)

    def dense(shape, scale=0.05):
        return rng.normal(scale=scale, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(config.d_model), bias=np.zeros(config.d_model))

    pattern = rng.normal(scale=1.0, size=(period, config.d_model))
    position = np.tile(pattern, (config.max_seq_len // period + 1, 1))[: config.max_seq_len]
    blocks = [
        BlockWeights(
            ln_attn=norm(),
            attn=AttentionWeights(
                wq=dense((config.d_model, config.d_model)), bq=np.zeros(config.d_model),
                wk=dense((config.d_model, config.d_model)), bk=np.zeros(config.d_model),
                wv=dense((config.d_model, config.d_model)), bv=np.zeros(config.d_model),
                wo=dense((config.d_model, config.d_model)), bo=np.zeros(config.d_model),
            ),
            ln_ffn=norm(),
            ffn=FeedForwardWeights(
                w1=dense((config.d_model, config.d_ff)), b1=np.zeros(config.d_ff),
                w2=dense((config.d_ff, config.d_model)), b2=np.zeros(config.d_model),
            ),
        )
        for _ in range(config.num_layers)
    ]
    weights = ModelWeights(
        config=config,
        token_embedding=dense((config.vocab_size, config.d_model)),
        position_embedding=position,
        blocks=blocks,
        ln_final=norm(),
        lm_head=rng.normal(scale=0.5, size=(config.d_model, config.vocab_size)),
    )
    return TransformerRunner(weights)


def check_speculative_smoke() -> int:
    """Deterministic speculative-decoding parity and accept-rate gate."""
    from repro.serve import GenerationConfig, GenerationEngine, PromptLookupDraft, SpecConfig

    runner = _periodic_spec_runner()
    rng = np.random.default_rng(11)
    seeds = [rng.integers(0, 64, size=8) for _ in range(6)]
    # Two-pass extractive trace: embed each request's own continuation in
    # its prompt so the drafter can read the cycle from the first step.
    warm = GenerationEngine(runner).generate(seeds, GenerationConfig(max_new_tokens=16))
    prompts = [np.concatenate([seed, body]) for seed, body in zip(seeds, warm.generated)]

    def speculation():
        return SpecConfig(drafter=PromptLookupDraft(), draft_tokens=4, max_draft=8)

    outputs_off, stats_off = _serve(runner, prompts, prefix_cache=False, max_new_tokens=16)
    outputs_on, stats_on = _serve(
        runner, prompts, prefix_cache=False, speculation=speculation(), max_new_tokens=16
    )
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_on[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under speculative decoding"
            )
            return 1
    accept_rate = stats_on.spec_accept_rate()
    if accept_rate < REQUIRED_ACCEPT_RATE:
        print(
            f"perf smoke FAILED: drafter accept rate {accept_rate:.0%} on the periodic "
            f"trace (required >= {REQUIRED_ACCEPT_RATE:.0%}) — drafting or verification regressed"
        )
        return 1
    if stats_on.decode_iterations >= stats_off.decode_iterations:
        print(
            "perf smoke FAILED: speculation did not reduce decode forwards "
            f"({stats_on.decode_iterations} vs {stats_off.decode_iterations})"
        )
        return 1
    outputs_combo, _ = _serve(
        runner,
        prompts,
        prefix_cache=True,
        prefill_chunk=8,
        speculation=speculation(),
        max_new_tokens=16,
    )
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_combo[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"with speculation + prefix cache + chunked prefill combined"
            )
            return 1
    print(
        f"perf smoke ok (speculation accepted {accept_rate:.0%} of drafts, "
        f"{stats_off.decode_iterations} -> {stats_on.decode_iterations} decode forwards)"
    )
    return _check_ragged_verify(runner, [prompts[0]] + seeds[1:], speculation())


def _check_ragged_verify(runner, prompts, speculation) -> int:
    """Exact gates on the shape of the speculative forward (no clock read).

    ``prompts`` is one warm request (its prompt embeds its own continuation,
    so it drafts deep from the first step) among cold ones (bare seeds: they
    propose nothing until their own output starts to cycle), with budgets
    staggered so requests also reach their last token at different steps.
    Every engine step may run at most one decode-side forward, and the
    verify forwards must have computed exactly the drafts proposed plus one
    pending token per participating request: a pad row, a filler guess or a
    separate final-token forward all fail here, on any machine.
    """
    from repro.serve import GenerationConfig, Scheduler

    budgets = [16, 5, 9, 12, 7, 3]

    def serve(speculation):
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=16),
            max_batch_size=4,
            block_size=8,
            speculation=speculation,
            record_logits=False,
        )
        for prompt, budget in zip(prompts, budgets):
            scheduler.submit(prompt, max_new_tokens=budget)
        outputs, worst = {}, 0
        while scheduler.has_pending:
            before = len(forwards)
            for output in scheduler.step():
                outputs[output.request_id] = output.generated
            worst = max(worst, len(forwards) - before)
        return outputs, scheduler.stats, worst

    forwards = []  # rows of every decode-side forward: (rows, participating requests)
    decode_step, verify = runner.decode_step, runner.verify
    runner.decode_step = lambda tokens, cache: (
        forwards.append((len(tokens), len(tokens))),
        decode_step(tokens, cache),
    )[1]
    runner.verify = lambda tokens, cache, starts, lengths: (
        forwards.append((int(np.size(tokens)), len(lengths))),
        verify(tokens, cache, starts, lengths=lengths),
    )[1]
    try:
        outputs_off, _, _ = serve(None)
        del forwards[:]
        outputs_on, stats, worst = serve(speculation)
    finally:
        del runner.decode_step, runner.verify
    if any(not np.array_equal(outputs_off[i], outputs_on[i]) for i in outputs_off):
        print("perf smoke FAILED: ragged verify changed generated tokens on the mixed warm/cold trace")
        return 1
    if worst > 1:
        print(
            f"perf smoke FAILED: a speculative iteration ran {worst} decode-side forwards "
            "(required: one — no separate final-token or per-length forward)"
        )
        return 1
    verified = [(rows, batch) for rows, batch in forwards if rows > batch]
    rows = sum(rows for rows, _ in verified)
    expected = stats.spec_proposed_tokens + sum(batch for _, batch in verified)
    if not verified or rows != expected or rows != stats.spec_verify_rows:
        print(
            f"perf smoke FAILED: verify forwards computed {rows} rows for "
            f"{stats.spec_proposed_tokens} proposed drafts (expected sum(proposed + 1) = "
            f"{expected}, stats say {stats.spec_verify_rows}) — padding rows are back"
        )
        return 1
    print(
        f"perf smoke ok (ragged verify {rows} rows == sum(proposed + 1) over "
        f"{len(verified)} forwards, <= 1 forward per iteration, tokens identical)"
    )
    return 0


def check_serving_smoke() -> int:
    """Deterministic prefix-cache and chunked-prefill regression gate."""
    runner = _tiny_serving_runner()
    rng = np.random.default_rng(3)
    template = rng.integers(0, 64, size=36)
    prompts = [
        np.concatenate([template, rng.integers(0, 64, size=10)]) for _ in range(8)
    ]
    outputs_off, stats_off = _serve(runner, prompts, prefix_cache=False)
    outputs_on, stats_on = _serve(runner, prompts, prefix_cache=True)
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_on[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"with the prefix cache enabled"
            )
            return 1
    hit_rate = stats_on.prefix_hit_rate()
    if hit_rate < REQUIRED_HIT_RATE:
        print(
            f"perf smoke FAILED: prefix cache served only {hit_rate:.0%} of prompt "
            f"tokens (required >= {REQUIRED_HIT_RATE:.0%}) — prefix matching regressed"
        )
        return 1
    if stats_on.prefill_tokens >= stats_off.prefill_tokens:
        print(
            "perf smoke FAILED: the prefix cache did not reduce prefilled prompt "
            f"tokens ({stats_on.prefill_tokens} vs {stats_off.prefill_tokens})"
        )
        return 1
    outputs_chunked, _ = _serve(runner, prompts, prefix_cache=True, prefill_chunk=8)
    for request_id, output in outputs_off.items():
        if not np.array_equal(output.generated, outputs_chunked[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under chunked prefill"
            )
            return 1
    print(
        f"perf smoke ok (prefix cache served {hit_rate:.0%} of prompt tokens, "
        f"{stats_off.prefill_tokens} -> {stats_on.prefill_tokens} prefilled)"
    )
    return 0


def _decode_dispatch_counts() -> "tuple[int, int]":
    """``(Python-level calls, np.unique calls)`` of one batched ``decode_step``.

    The tiny serving model, Tender-quantized, decoding four ragged slots of a
    paged pool — the scheduler's steady-state forward.  ``sys.setprofile``
    sees one ``call`` event per Python frame entered (NumPy's own Python
    wrappers included, C functions not), so the count is exact and repeats:
    no clock is read.
    """
    from repro.core import TenderQuantizer
    from repro.serve import PagedKVCache

    weights = _tiny_serving_runner().weights
    rng = np.random.default_rng(5)
    calibration = [rng.integers(0, weights.config.vocab_size, size=40) for _ in range(6)]
    runner = TenderQuantizer(
        TenderConfig(bits=8, num_groups=8, row_chunk_size=8), implicit=True
    ).quantize(weights, calibration)

    lengths = np.array([5, 9, 17, 30])
    pool = PagedKVCache.for_model(weights.config, max_active=len(lengths), block_size=8)
    view = pool.view([pool.reserve(int(length) + 4) for length in lengths])
    tokens = rng.integers(0, weights.config.vocab_size, size=(len(lengths), int(lengths.max())))
    next_tokens = runner.prefill(tokens, lengths, view).argmax(axis=-1)
    next_tokens = runner.decode_step(next_tokens, view).argmax(axis=-1)  # fills the lazy caches

    unique_code = np.unique.__wrapped__.__code__
    counts = [0, 0]

    def count_calls(frame, event, arg):
        if event == "call":
            counts[0] += 1
            counts[1] += frame.f_code is unique_code

    sys.setprofile(count_calls)
    try:
        runner.decode_step(next_tokens, view)
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def check_fast_kernels() -> int:
    """Fast Index-Buffer projection vs the reference per-chunk loop.

    Gated on bit-identity and on the exact dispatch counts of a decode
    forward; the wall-clock speed-up is printed for information only.
    """
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=32)
    params = synthetic_projection_site(config)
    fast = TenderExecutor(params, config, implicit=True, fast_kernels=True)
    reference = TenderExecutor(params, config, implicit=True, fast_kernels=False)
    x, positions, weight = decode_projection_operands()

    fast_out = fast.project("site", x, weight, None, positions=positions)
    reference_out = reference.project("site", x, weight, None, positions=positions)
    if not np.array_equal(fast_out, reference_out):
        print("perf smoke FAILED: fast projection is not bit-identical to the reference")
        return 1

    calls, uniques = _decode_dispatch_counts()
    if calls > DECODE_CALL_BUDGET or uniques > MAX_UNIQUE_PER_DECODE:
        print(
            f"perf smoke FAILED: one decode_step made {calls} Python-level calls "
            f"(budget {DECODE_CALL_BUDGET}) and {uniques} np.unique calls (budget "
            f"{MAX_UNIQUE_PER_DECODE}) — per-site or per-layer work crept back into the forward"
        )
        return 1

    reference_s = measure(
        lambda: reference.project("site", x, weight, None, positions=positions), REPEATS
    )["median"]
    fast_s = measure(
        lambda: fast.project("site", x, weight, None, positions=positions), REPEATS
    )["median"]
    print(f"perf smoke ok (fast decode path {reference_s / fast_s:.1f}x over reference, not gated)")
    print(
        f"perf smoke ok (decode dispatch {calls} Python-level calls <= {DECODE_CALL_BUDGET}, "
        f"{uniques} np.unique <= {MAX_UNIQUE_PER_DECODE} per forward)"
    )
    return 0


def check_fused_attention() -> int:
    """Deterministic fused paged-attention parity and KV-traffic gate."""
    from repro.serve import GenerationConfig, Scheduler

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(5)
    # Lengths straddle the block size (8): exactly at, one past, and mid-block.
    prompts = [rng.integers(0, 64, size=size) for size in (16, 17, 24, 9)]

    def serve(fused):
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=4),
            max_batch_size=3,
            block_size=8,
            record_logits=False,
        )
        before = runner.fused_paged_attention
        runner.fused_paged_attention = fused
        try:
            for prompt in prompts:
                scheduler.submit(prompt)
            outputs = {output.request_id: output for output in scheduler.run()}
        finally:
            runner.fused_paged_attention = before
        return outputs, scheduler.cache.gather_bytes

    outputs_fused, fused_bytes = serve(True)
    outputs_reference, reference_bytes = serve(False)
    for request_id, output in outputs_reference.items():
        if not np.array_equal(output.generated, outputs_fused[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under fused paged attention"
            )
            return 1
    if fused_bytes != 0:
        print(
            f"perf smoke FAILED: fused paged attention gathered {fused_bytes} dense "
            f"KV bytes (required exactly 0) — the fused path fell back to gathering"
        )
        return 1
    # The reference path re-gathers every request's whole K/V history on every
    # decode step.  A loose analytic floor — one decode step's dense K+V for
    # the shortest prompt alone, per layer — catches a broken counter without
    # depending on scheduler batching details.
    config = runner.weights.config
    d_head = config.d_model // config.num_heads
    floor = (
        config.num_layers * 2 * min(len(p) for p in prompts) * config.num_heads * d_head * 8
    )
    if reference_bytes < floor:
        print(
            f"perf smoke FAILED: reference path gathered only {reference_bytes} dense "
            f"KV bytes (floor {floor}) — the gather-bytes counter regressed"
        )
        return 1
    print(
        f"perf smoke ok (fused paged attention token-identical, 0 vs "
        f"{reference_bytes} gathered KV bytes)"
    )
    return 0


def check_block_contiguity() -> int:
    """Deterministic table-fragmentation and eviction-equivalence gate."""
    from repro.serve import GenerationConfig, PagedKVCache, Scheduler
    from repro.serve.stress import LruReferencePool

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(23)
    # Mixed sizes, staggered arrivals, per-request budgets: requests of 1-9
    # blocks start and finish out of phase, so the free space churns.
    sizes = rng.integers(3, 60, size=48)
    budgets = rng.integers(2, 20, size=48)
    unshared = [rng.integers(0, 64, size=size) for size in sizes]
    templates = [rng.integers(0, 64, size=size) for size in (40, 28, 52)]
    templated = [
        np.concatenate([templates[i % 3][: 8 * int(rng.integers(1, 7))], rng.integers(0, 64, size=int(rng.integers(1, 12)))])
        for i in range(48)
    ]

    def serve(pool_class, prompts, **pool):
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=20), max_batch_size=4, block_size=8,
            record_logits=False, **pool,
        )  # fmt: skip
        if pool_class is not PagedKVCache:
            cache = scheduler.cache
            heads, _, _, d_head = cache.key_blocks[0].shape
            scheduler.cache = pool_class(cache.num_layers, heads, d_head, cache.block_size, cache.num_blocks)
        for index, prompt in enumerate(prompts):
            scheduler.submit(prompt, max_new_tokens=int(budgets[index]), arrival_time=1.5 * index)
        outputs, runs, tables, evictions, cached = {}, 0, 0, 0, 0
        while scheduler.has_pending:
            for output in scheduler.step():
                outputs[output.request_id] = output.generated
            cache = scheduler.cache
            for slot in cache.active_slots:
                table = cache.block_table(slot)
                runs += 1 + sum(1 for block, following in zip(table, table[1:]) if following != block + 1)
                tables += 1
            evictions += cache.cached_block_count < cached
            cached = cache.cached_block_count
        return outputs, runs / tables, scheduler.stats.prefix_hit_tokens, evictions, scheduler.cache.gather_bytes

    results = {}
    for phase, prompts, pool in (
        ("cache off", unshared, dict(prefix_cache=False)),
        ("cache on", templated, dict(prefix_cache=True, num_blocks=28)),
    ):
        outputs, mean_runs, hits, evictions, gathered = serve(PagedKVCache, prompts, **pool)
        reference_outputs, reference_runs, reference_hits, _, _ = serve(LruReferencePool, prompts, **pool)
        if outputs.keys() != reference_outputs.keys() or any(
            not np.array_equal(outputs[i], reference_outputs[i]) for i in outputs
        ):
            print(f"perf smoke FAILED: block placement changed generated tokens ({phase})")
            return 1
        if gathered != 0:
            print(f"perf smoke FAILED: the churn trace gathered {gathered} dense KV bytes ({phase})")
            return 1
        if mean_runs > reference_runs:
            print(
                f"perf smoke FAILED: {mean_runs:.2f} runs per live table ({phase}) exceeds the "
                f"one-list reference policy's {reference_runs:.2f} — extent picking regressed"
            )
            return 1
        results[phase] = (mean_runs, reference_runs, hits, reference_hits, evictions)
    mean_runs, reference_runs, _, _, _ = results["cache off"]
    if mean_runs > MAX_RUNS_PER_TABLE:
        print(
            f"perf smoke FAILED: {mean_runs:.2f} consecutive-block runs per live table with the "
            f"prefix cache off (allowed {MAX_RUNS_PER_TABLE}) — reservations are being fragmented"
        )
        return 1
    cached_runs, cached_reference_runs, hits, reference_hits, evictions = results["cache on"]
    if not evictions:
        print("perf smoke FAILED: the cache-on churn trace never reclaimed a cached block")
        return 1
    if hits != reference_hits:
        print(
            f"perf smoke FAILED: {hits} prefix-hit tokens under eviction vs {reference_hits} with the "
            f"one-list reference policy — the allocator changed which cached blocks die"
        )
        return 1
    print(
        f"perf smoke ok (block contiguity {mean_runs:.2f} runs per live table cache off (reference "
        f"{reference_runs:.2f}), {cached_runs:.2f} cache on (reference {cached_reference_runs:.2f}); "
        f"{hits} hit tokens identical to the reference under {evictions} evicting steps, 0 gathered bytes)"
    )
    return 0


def check_preemption_smoke() -> int:
    """Deterministic preemption-parity, TTFT, and recompute-cost gate."""
    from repro.serve import GenerationConfig, Scheduler

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(13)
    # Background stream from t=0 saturates the batch-2 scheduler with long
    # generations; the urgent burst lands at t=8 with short prompts and
    # 3-token budgets — the traffic whose TTFT preemption protects.
    low = [(rng.integers(0, 64, size=6 + i % 3), 5, 24, 0.8 * i) for i in range(4)]
    high = [(rng.integers(0, 64, size=4 + i % 2), 0, 3, 8.0 + 0.5 * i) for i in range(4)]

    def serve(preemption):
        # Block size 4 keeps the unpublished tail a resumed victim must
        # re-prefill short, so replay rides the prefix cache.
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=24),
            max_batch_size=2,
            block_size=4,
            prefix_cache=True,
            preemption=preemption,
            record_logits=False,
        )
        urgent_ids = []
        for group in (low, high):
            for prompt, priority, budget, arrival in group:
                request_id = scheduler.submit(
                    prompt,
                    max_new_tokens=budget,
                    arrival_time=arrival,
                    priority=priority if preemption else 0,
                )
                if group is high:
                    urgent_ids.append(request_id)
        outputs = {output.request_id: output for output in scheduler.run()}
        return outputs, scheduler.stats, urgent_ids

    outputs_fifo, stats_fifo, urgent_fifo = serve(False)
    outputs_preempt, stats_preempt, urgent_preempt = serve(True)
    for request_id, output in outputs_fifo.items():
        if not np.array_equal(output.generated, outputs_preempt[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"under preemptive scheduling — the free-then-replay resume is not "
                f"bit-exact"
            )
            return 1
    if stats_preempt.preemptions < 1:
        print(
            "perf smoke FAILED: the two-class trace triggered no preemption — "
            "the priority policy never fired, so the gate proves nothing"
        )
        return 1

    def p99_ttft(outputs, request_ids):
        waits = [
            outputs[rid].first_token_at - outputs[rid].arrival_time for rid in request_ids
        ]
        return float(np.percentile(waits, 99))

    ttft_fifo = p99_ttft(outputs_fifo, urgent_fifo)
    ttft_preempt = p99_ttft(outputs_preempt, urgent_preempt)
    speedup = ttft_fifo / ttft_preempt
    if speedup < REQUIRED_TTFT_SPEEDUP:
        print(
            f"perf smoke FAILED: preemption improved urgent p99 TTFT only "
            f"{speedup:.2f}x ({ttft_fifo:.1f} -> {ttft_preempt:.1f} ticks, required "
            f">= {REQUIRED_TTFT_SPEEDUP:.1f}x) — the priority policy regressed"
        )
        return 1
    tokens = sum(len(output.generated) for output in outputs_fifo.values())
    work_fifo = tokens / (stats_fifo.prefill_tokens + tokens)
    work_preempt = tokens / (stats_preempt.prefill_tokens + tokens)
    work_ratio = work_preempt / work_fifo
    if work_ratio < REQUIRED_WORK_RATIO:
        print(
            f"perf smoke FAILED: preemption cut tokens-per-forwarded-row to "
            f"{work_ratio:.0%} of FIFO (required >= {REQUIRED_WORK_RATIO:.0%}) — "
            f"victim replay is recomputing instead of riding the prefix cache"
        )
        return 1
    print(
        f"perf smoke ok (preemption token-identical, urgent p99 TTFT "
        f"{speedup:.1f}x, work ratio {work_ratio:.0%})"
    )
    return 0


def check_observability() -> int:
    """Zero-cost-disabled tracing gate, span-taxonomy check, export validation."""
    import json
    import os
    import tempfile
    import time

    from repro.obs import CountingClock, Tracer
    from repro.serve import GenerationConfig, Scheduler

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(13)
    # The same two-class preemption trace check_preemption_smoke gates on —
    # it exercises the whole span taxonomy (queue/admit/prefill/decode/
    # preempt/finish plus cache events) in a fraction of a second.
    low = [(rng.integers(0, 64, size=6 + i % 3), 5, 24, 0.8 * i) for i in range(4)]
    high = [(rng.integers(0, 64, size=4 + i % 2), 0, 3, 8.0 + 0.5 * i) for i in range(4)]

    def serve(tracer):
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=24),
            max_batch_size=2,
            block_size=4,
            prefix_cache=True,
            preemption=True,
            record_logits=False,
            tracer=tracer,
        )
        for group in (low, high):
            for prompt, priority, budget, arrival in group:
                scheduler.submit(
                    prompt, max_new_tokens=budget, arrival_time=arrival, priority=priority
                )
        start = time.perf_counter()
        outputs = {output.request_id: output for output in scheduler.run()}
        elapsed = time.perf_counter() - start
        return outputs, elapsed

    disabled_times = []
    enabled_times = []
    tracer = None
    for _ in range(ATTEMPTS):
        outputs_off, elapsed_off = serve(None)
        tracer = Tracer(clock=CountingClock())
        outputs_on, elapsed_on = serve(tracer)
        disabled_times.append(elapsed_off)
        enabled_times.append(elapsed_on)
        for request_id, output in outputs_off.items():
            if not np.array_equal(output.generated, outputs_on[request_id].generated):
                print(
                    f"perf smoke FAILED: request {request_id} generated different "
                    f"tokens with tracing enabled — instrumentation must be "
                    f"observation-only"
                )
                return 1

    # Span taxonomy: the trace must carry every lifecycle stage the
    # two-class run provably hits.
    required = (
        "request.queued",
        "request.admitted",
        "request.first_token",
        "request.preempted",
        "request.finished",
        "prefill_chunk",
        "decode_step",
        "cache.block_alloc",
    )
    for name in required:
        if not tracer.events_named(name):
            print(
                f"perf smoke FAILED: enabled tracing produced no {name!r} events "
                f"on the two-class preemption trace — an emit site went dark"
            )
            return 1

    # Disabled-path cost: the only residue of `tracer=None` is one
    # `is not None` branch per emit site.  Measure that branch, multiply by
    # the sites the enabled run proves are on the hot path, and compare to
    # the measured serve time.
    sink = None
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        if sink is not None:  # pragma: no cover - never taken
            raise AssertionError
    guard_seconds = (time.perf_counter() - start) / reps
    guard_total = len(tracer.events) * guard_seconds
    disabled_overhead = guard_total / min(disabled_times)
    if disabled_overhead > MAX_DISABLED_TRACE_OVERHEAD:
        print(
            f"perf smoke FAILED: disabled tracing costs "
            f"{disabled_overhead:.2%} of the serve "
            f"({len(tracer.events)} guards x {guard_seconds * 1e9:.0f} ns, "
            f"required <= {MAX_DISABLED_TRACE_OVERHEAD:.0%}) — an emit site is "
            f"doing work outside its `tracer is not None` guard"
        )
        return 1

    # Export validation: the Chrome trace JSON must load back with balanced
    # spans and one process_name row per track.
    handle, path = tempfile.mkstemp(suffix=".json")
    os.close(handle)
    try:
        tracer.export_chrome_trace(path)
        with open(path) as trace_file:
            payload = json.load(trace_file)
    finally:
        os.unlink(path)
    rows = payload.get("traceEvents")
    if payload.get("displayTimeUnit") != "ms" or not isinstance(rows, list):
        print("perf smoke FAILED: exported trace is not Chrome trace-event JSON")
        return 1
    open_spans = {}
    metadata_pids = set()
    for row in rows:
        if not all(key in row for key in ("name", "ph", "pid", "tid")):
            print(f"perf smoke FAILED: exported trace row missing keys: {row}")
            return 1
        if row["ph"] == "M":
            metadata_pids.add(row["pid"])
        elif row["ph"] == "B":
            open_spans[row["pid"]] = open_spans.get(row["pid"], 0) + 1
        elif row["ph"] == "E":
            open_spans[row["pid"]] = open_spans.get(row["pid"], 0) - 1
            if open_spans[row["pid"]] < 0:
                print("perf smoke FAILED: exported trace closes a span it never opened")
                return 1
    if any(count != 0 for count in open_spans.values()):
        print("perf smoke FAILED: exported trace leaves spans open")
        return 1
    if {row["pid"] for row in rows} - metadata_pids:
        print("perf smoke FAILED: exported trace has events on unnamed tracks")
        return 1

    enabled_overhead = min(enabled_times) / min(disabled_times) - 1.0
    print(
        f"perf smoke ok (observability disabled-path {disabled_overhead:.3%}, "
        f"enabled {max(0.0, enabled_overhead):.1%} on {len(tracer.events)} events, "
        f"export valid)"
    )
    return 0


def check_serving_stress() -> int:
    """Randomized invariant sweep over the paged pool's op vocabulary."""
    from repro.serve import InvariantViolation, ServingStressHarness

    for seed in range(STRESS_SEEDS):
        try:
            ServingStressHarness(seed=seed).run(STRESS_OPS)
        except InvariantViolation as error:
            print(
                f"perf smoke FAILED: serving stress violated a pool invariant "
                f"(seed {seed}): {error}"
            )
            return 1
    print(
        f"perf smoke ok (serving stress clean over {STRESS_SEEDS} seeds x "
        f"{STRESS_OPS} ops)"
    )
    return 0


def check_fault_tolerance() -> int:
    """Deterministic chaos gate: kill replicas mid-trace, require parity."""
    from repro.serve import FaultInjector, GenerationConfig, ReplicaPool

    runner = _tiny_serving_runner()
    rng = np.random.default_rng(17)
    # Template-heavy prompts so recovered requests replay over prefix hits
    # on their failover replica (sticky routing keeps templates together).
    templates = [rng.integers(0, 64, size=10) for _ in range(2)]
    prompts = [
        np.concatenate([templates[i % 2], rng.integers(0, 64, size=2 + i % 3)])
        for i in range(8)
    ]

    def serve(injector):
        pool = ReplicaPool(
            runner,
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=16),
            fault_injector=injector,
            max_batch_size=2,
            block_size=4,
            record_logits=False,
        )
        for prompt in prompts:
            pool.submit(prompt)
        outputs = {output.request_id: output for output in pool.run()}
        stats = pool.stats
        goodput = stats["generated_tokens"] / (
            stats["prefill_tokens"] + stats["generated_tokens"]
        )
        return outputs, pool, goodput

    outputs_clean, _, goodput_clean = serve(None)
    injector = FaultInjector(seed=0, kill_at={2: 0, 4: 1})
    outputs_chaos, chaos_pool, goodput_chaos = serve(injector)
    for request_id, output in outputs_clean.items():
        if not np.array_equal(output.generated, outputs_chaos[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"after replica-kill recovery — checkpoint/replay is not bit-exact"
            )
            return 1
    recoveries = chaos_pool.cluster_stats.recoveries
    if recoveries < 1:
        print(
            "perf smoke FAILED: the scripted kills triggered no recovery — "
            "the chaos schedule never exercised the replay path"
        )
        return 1
    ratio = goodput_chaos / goodput_clean
    if ratio < REQUIRED_FT_GOODPUT:
        print(
            f"perf smoke FAILED: chaos goodput fell to {ratio:.0%} of fault-free "
            f"(required >= {REQUIRED_FT_GOODPUT:.0%}) — recovery is recomputing "
            f"whole contexts instead of riding prefix hits"
        )
        return 1
    print(
        f"perf smoke ok (fault tolerance token-identical across {recoveries} "
        f"recoveries, goodput {ratio:.0%} of fault-free)"
    )
    return 0


def _tiny_tender_shard_runner():
    """A Tender-quantized 4-head random-weight runner (shardable at N=2/4)."""
    from repro.core import TenderConfig, TenderQuantizer
    from repro.models.weights import (
        AttentionWeights,
        BlockWeights,
        FeedForwardWeights,
        LayerNormWeights,
        ModelWeights,
    )
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=64, d_model=32, num_heads=4, num_layers=2, d_ff=64, max_seq_len=128, seed=0
    )
    rng = np.random.default_rng(7)

    def dense(shape):
        return rng.normal(scale=0.25, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(config.d_model), bias=np.zeros(config.d_model))

    blocks = [
        BlockWeights(
            ln_attn=norm(),
            attn=AttentionWeights(
                wq=dense((config.d_model, config.d_model)), bq=np.zeros(config.d_model),
                wk=dense((config.d_model, config.d_model)), bk=np.zeros(config.d_model),
                wv=dense((config.d_model, config.d_model)), bv=np.zeros(config.d_model),
                wo=dense((config.d_model, config.d_model)), bo=np.zeros(config.d_model),
            ),
            ln_ffn=norm(),
            ffn=FeedForwardWeights(
                w1=dense((config.d_model, config.d_ff)), b1=np.zeros(config.d_ff),
                w2=dense((config.d_ff, config.d_model)), b2=np.zeros(config.d_model),
            ),
        )
        for _ in range(config.num_layers)
    ]
    weights = ModelWeights(
        config=config,
        token_embedding=dense((config.vocab_size, config.d_model)),
        position_embedding=dense((config.max_seq_len, config.d_model)),
        blocks=blocks,
        ln_final=norm(),
        lm_head=dense((config.d_model, config.vocab_size)),
    )
    calibration = [rng.integers(0, 64, size=40) for _ in range(6)]
    return TenderQuantizer(
        TenderConfig(bits=8, num_groups=8, row_chunk_size=8), implicit=True
    ).quantize(weights, calibration)


def check_tensor_parallel() -> int:
    """Deterministic sharded-parity and collective-chaos gate."""
    from repro.serve import (
        CollectiveFaultInjector,
        CollectiveGroup,
        GenerationConfig,
        ReplicaPool,
        ShardedRunner,
    )

    solo = _tiny_tender_shard_runner()
    rng = np.random.default_rng(23)
    templates = [rng.integers(0, 64, size=10) for _ in range(2)]
    prompts = [
        np.concatenate([templates[i % 2], rng.integers(0, 64, size=2 + i % 3)])
        for i in range(8)
    ]

    # --- Parity under scripted transport faults (solo scheduler path) ---
    expected, _ = _serve(solo, prompts, prefix_cache=True, max_new_tokens=8)
    injector = CollectiveFaultInjector(
        corrupt_at={3: 1, 11: 0}, drop_at={5: 0}, delay_at={7: 1}, duplicate_at={9: 0}
    )
    group = CollectiveGroup(2, fault_injector=injector)
    sharded = ShardedRunner(solo, 2, group=group)
    actual, _ = _serve(sharded, prompts, prefix_cache=True, max_new_tokens=8)
    for request_id, output in expected.items():
        if not np.array_equal(output.generated, actual[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"on the 2-shard runner — column-parallel sharding is not bit-exact"
            )
            return 1
    if group.stats.corruption_caught < 1 or group.stats.retries < 1:
        print(
            "perf smoke FAILED: the scripted corrupted collective was never "
            "caught-and-retried — the checksum path is not being exercised"
        )
        return 1

    # --- Shard-kill recovery and goodput through a pool of shard groups ---
    def serve_pool(kill_injector):
        def factory(replica_id):
            group = CollectiveGroup(2, fault_injector=kill_injector)
            return ShardedRunner(solo, 2, group=group)

        pool = ReplicaPool(
            solo,
            num_replicas=2,
            runner_factory=factory,
            config=GenerationConfig(max_new_tokens=8),
            max_batch_size=2,
            block_size=4,
            record_logits=False,
        )
        for prompt in prompts:
            pool.submit(prompt)
        outputs = {output.request_id: output for output in pool.run()}
        stats = pool.stats
        goodput = stats["generated_tokens"] / (
            stats["prefill_tokens"] + stats["generated_tokens"]
        )
        return outputs, pool, goodput

    outputs_clean, _, goodput_clean = serve_pool(None)
    kill_injector = CollectiveFaultInjector(seed=0, kill_at={40: 1}, max_kills=1)
    outputs_chaos, chaos_pool, goodput_chaos = serve_pool(kill_injector)
    for request_id, output in outputs_clean.items():
        if not np.array_equal(output.generated, outputs_chaos[request_id].generated):
            print(
                f"perf smoke FAILED: request {request_id} generated different tokens "
                f"after shard-kill recovery — group replay is not bit-exact"
            )
            return 1
    recoveries = chaos_pool.cluster_stats.recoveries
    if recoveries < 1 or chaos_pool.cluster_stats.failures < 1:
        print(
            "perf smoke FAILED: the scripted shard kill triggered no group "
            "recovery — the shard-group fault unit never tripped"
        )
        return 1
    ratio = goodput_chaos / goodput_clean
    if ratio < REQUIRED_FT_GOODPUT:
        print(
            f"perf smoke FAILED: shard-kill goodput fell to {ratio:.0%} of "
            f"fault-free (required >= {REQUIRED_FT_GOODPUT:.0%})"
        )
        return 1
    print(
        f"perf smoke ok (tensor parallel bit-identical at 2 shards, "
        f"{group.stats.corruption_caught} corruptions caught, {recoveries} "
        f"shard-kill recoveries, goodput {ratio:.0%} of fault-free)"
    )
    return 0


def main() -> int:
    """Run every smoke gate; first failure wins."""
    return (
        check_fast_kernels()
        or check_serving_smoke()
        or check_speculative_smoke()
        or check_fused_attention()
        or check_block_contiguity()
        or check_preemption_smoke()
        or check_observability()
        or check_serving_stress()
        or check_fault_tolerance()
        or check_tensor_parallel()
    )


if __name__ == "__main__":
    sys.exit(main())
