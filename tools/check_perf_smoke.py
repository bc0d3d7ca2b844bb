#!/usr/bin/env python
"""Perf smoke gate: one table of exact-count serving scenarios.

Run from the repository root (tier-1 runs it via ``tests/tools``):

    PYTHONPATH=src python tools/check_perf_smoke.py
    REPRO_WRITE_BENCH=1 PYTHONPATH=src python tools/check_perf_smoke.py   # re-record

Every serving gate is one row of ``SCENARIOS``: a runner fixture and a trace
builder from ``repro.serve.workloads``, engine options common to both sides,
the baseline's and the variant's own options, and assertions over exact
counters.  The driver serves both sides, requires token-identical outputs
(and bit-identical committed logits where the row records them — the Tender
rows), derives the row's fields and checks them.  The fields are counts,
ratios of counts, scheduler ticks and sha256 digests: no clock is read, so a
loaded machine cannot flake the gate, and the whole record is reproducible
byte for byte.  That record is ``BENCH_serving.json``; a run fails when the
committed file differs from what it just computed (a changed token, logit or
counter is a diff to review and re-record, never noise).  Python-level call
counts depend on the NumPy build, so they are budgets only (``BUDGET_ONLY``).

Every gate that serves no trace is one row of ``COUNT_GATES``: a name, a
``measure()`` returning a dict of fields, and checks over them in the scenario
rows' own ``(field, comparison, bound or other field)`` form, read by the one
rule :func:`check`.  They measure the fast projection against the reference
per-chunk loop (bit-identity), the exact dispatch count of one Tender decode
step (solo, and as a 2- and a 4-shard group on a fault-injected transport; one
``paged_attention`` call per layer at every shard count, and for Tender "all"
one ``dense_cached_attention`` call per layer) and of one solo whole prefill,
intermediate prefill chunk and ragged verify, the exact frame count of one
``SlotBatchView.commit``, the exact ``zlib.crc32`` count of one 2-shard decode
step with no fault and with one scripted corruption, the allocation peak of
one ``paged_attention`` call, and the randomized pool-invariant sweep.

Exit status 0 when clean; 1 with a one-line diagnosis per failure otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import sys
import tempfile
import tracemalloc
import zlib
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import gpu
from repro.core import TenderConfig, TenderExecutor
from repro.core.kernels import ForwardPlan, paged_attention
from repro.core.perf import count_calls, decode_projection_operands, synthetic_projection_site
from repro.core.reference import ReferenceExecutor
from repro.models.inference import TransformerRunner, dense_cached_attention
from repro.models.zoo import get_zoo_entry
from repro.obs import CountingClock, Tracer
from repro.serve import (
    CollectiveFaultInjector,
    CollectiveGroup,
    FaultInjector,
    GenerationConfig,
    InvariantViolation,
    ModelDraft,
    PagedKVCache,
    PromptLookupDraft,
    ReplicaPool,
    Scheduler,
    ShardedRunner,
    SpecConfig,
    workloads,
)
from repro.serve.stress import LruReferencePool

import stress_machine

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
STRESS_SEEDS = 2
#: The default pool relocates nothing on these seeds; this one does on every seed.
TIGHT_POOL = dict(num_blocks=10, max_slots=4)
#: Fields checked against budgets but kept out of the record (NumPy-build dependent).
BUDGET_ONLY = ("py_calls", "traced_calls_per_step")
#: What a profiled serve counts beside all Python-level calls, by ``profile=`` name.
PROFILED = {
    "obs": lambda code: "/repro/obs/" in code.co_filename,
    # One per activation the executors quantize: the activation side of a projection.
    "quantize": lambda code: code is TenderExecutor._quantize_rows.__code__,
}
#: What every ``analytic_*`` sibling is priced at: OPT-6.7B's dimensions on one device.
PRICED_AT = dict(shape=get_zoo_entry("opt-6.7b-sim").paper_shape, device_name="rtx3090")

RUNNERS: Dict[str, Callable] = {
    "fp": partial(workloads.tiny_runner, "fp"),
    "periodic": partial(workloads.tiny_runner, "fp", periodic=True),
    "tender-implicit": partial(workloads.tiny_runner, "tender-implicit", 4),
    "tender-explicit": partial(workloads.tiny_runner, "tender-explicit", 4),
}
TENDER = ("tender-implicit", "tender-explicit")
DRAFTERS = {
    "lookup": lambda runner: PromptLookupDraft(),
    "model": lambda runner: ModelDraft.truncated(runner, 1),
}
#: Options the driver and :func:`serve` consume; everything else goes to the engine.
HARNESS = dict(
    max_new_tokens=3, fifo=False, fused=True, pool=None, speculation=None, shards=0,
    transport=None, replicas=0, kill_at=None, tracer=False, profile=None,
    reference=False, quantize_attention=False,
)  # fmt: skip
REQUIRED_EVENTS = (
    "request.queued", "request.admitted", "request.first_token", "request.preempted",
    "request.finished", "prefill_chunk", "decode_step", "cache.block_alloc",
)  # fmt: skip


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One gate: serve ``trace`` on ``runners`` under baseline and variant options."""

    name: str
    runners: Tuple[str, ...]
    trace: Callable
    engine: dict
    baseline: Optional[dict]  # None: the variant is compared with a closed form instead
    variant: dict
    checks: Tuple[tuple, ...]  # (field, comparison, bound or other field)
    derive: Optional[Callable] = None  # adds the row's own fields


def _runs(table) -> int:
    return 1 + sum(1 for block, following in zip(table, table[1:]) if following != block + 1)


def _sha256(arrays, dtype) -> str:
    return hashlib.sha256(b"".join(np.asarray(a, dtype=dtype).tobytes() for a in arrays)).hexdigest()


def serve(runner, trace, h: SimpleNamespace, options: dict) -> SimpleNamespace:
    """Serve ``trace`` once; return its outputs, exact counters and tracer.

    ``h`` holds the ``HARNESS`` options, ``options`` the engine's own.
    """
    options = dict(options)
    if h.profile:  # a first serve fills every lazy cache, so the call counts below repeat
        serve(runner, trace, SimpleNamespace(**{**vars(h), "profile": None}), options)
    tracer = Tracer(clock=CountingClock()) if h.tracer else None
    injector = CollectiveFaultInjector(seed=0, **h.transport) if h.transport else None
    groups = []

    def sharded(replica_id=0):
        groups.append(CollectiveGroup(h.shards, fault_injector=injector))
        return ShardedRunner(runner, h.shards, group=groups[-1])

    if h.speculation:
        options["speculation"] = SpecConfig(DRAFTERS[h.speculation](runner), draft_tokens=4, max_draft=8)
    config = GenerationConfig(max_new_tokens=h.max_new_tokens)
    if h.replicas:
        engine = ReplicaPool(
            runner, h.replicas, config, runner_factory=sharded if h.shards else None,
            fault_injector=FaultInjector(seed=0, kill_at=h.kill_at) if h.kill_at else None,
            tracer=tracer, **options,
        )  # fmt: skip
    else:
        engine = Scheduler(sharded() if h.shards else runner, config, tracer=tracer, **options)
        if h.pool is not None:
            cache = engine.cache
            heads, _, _, d_head = cache.key_blocks[0].shape
            engine.cache = h.pool(cache.num_layers, heads, d_head, cache.block_size, cache.num_blocks)
    for request in trace:
        engine.submit(dataclasses.replace(request, priority=0) if h.fifo else request)

    # A scheduler's forwards are counted at the runner — prefills as (rows,
    # wants logits), decode-side ones as (rows, sequences sampled from, owed
    # rows, resumes carrying a tail, chunks riding) — so its stats are checked
    # against what really ran; its block tables are sampled after every step,
    # and the blocks its pool's allocations de-index (reclaimed, and the radix
    # descendants they anchored) are counted as they go.
    model = None if h.replicas else engine.runner
    outputs, forwards, prefills = {}, [], []
    seen = SimpleNamespace(worst=0, runs=0, tables=0, evicting=0, reclaimed=0)

    def drain():
        for _ in range(100_000):
            if not engine.has_pending:
                return
            before, reclaimed = len(forwards), seen.reclaimed
            for output in engine.step():
                outputs[output.request_id] = output
            if model is not None:
                cache = engine.cache
                seen.worst = max(seen.worst, len(forwards) - before)
                seen.runs += sum(_runs(cache.block_table(slot)) for slot in cache.active_slots)
                seen.tables += len(cache.active_slots)
                seen.evicting += seen.reclaimed > reclaimed
        raise RuntimeError("the engine stopped making progress")

    if model is not None:
        pool, take = engine.cache, engine.cache._take

        def counted_take(count, *args, **kwargs):
            indexed = pool.cached_block_count  # an allocation publishes nothing
            try:
                return take(count, *args, **kwargs)
            finally:
                seen.reclaimed += indexed - pool.cached_block_count

        pool._take = counted_take
        prefill, decode_step, verify = model.prefill, model.decode_step, model.verify

        def counted_prefill(tokens, lengths, *args, **kwargs):
            prefills.append((int(np.sum(lengths)), kwargs.get("return_logits", True)))
            return prefill(tokens, lengths, *args, **kwargs)

        def counted_decode_step(tokens, *args, **kwargs):
            forwards.append((len(tokens), len(tokens), 0, 0, 0))
            return decode_step(tokens, *args, **kwargs)

        def counted_verify(tokens, *args, **kwargs):
            lengths = np.asarray(kwargs["lengths"])
            heads = np.asarray(kwargs.get("logit_rows", lengths))
            owed, read = lengths - heads, heads > 0
            forwards.append(
                (int(np.size(tokens)), int(read.sum()), int(owed.sum()), int((read & (owed > 0)).sum()), int((~read).sum()))
            )
            return verify(tokens, *args, **kwargs)

        model.prefill, model.decode_step, model.verify = counted_prefill, counted_decode_step, counted_verify
        model.fused_paged_attention = h.fused
    quantize, quantized = TenderExecutor._quantize_rows, [0]  # activation rows, under profile="quantize"

    def counted_quantize(executor, packed, x, *args):
        quantized[0] += len(x)
        return quantize(executor, packed, x, *args)

    try:
        if h.profile:
            if h.profile == "quantize":
                TenderExecutor._quantize_rows = counted_quantize
            calls = count_calls(drain, PROFILED[h.profile])
        else:
            drain()
    finally:
        TenderExecutor._quantize_rows = quantize
        if model is not None:
            del model.prefill, model.decode_step, model.verify
            model.fused_paged_attention = True

    stats = engine.stats
    fields = {
        key: int(getattr(stats, key))
        for key in ("generated_tokens", "prefill_tokens", "prefix_hit_tokens", "prefill_iterations",
                    "decode_iterations", "preemptions")
    }  # fmt: skip
    tokens = fields["generated_tokens"]
    # What ran: counted at the runner where it is watched, else the scheduler's own tally.
    fields["forwards"] = len(prefills) + len(forwards) if model is not None else stats.total_iterations
    fields["tokens_per_row"] = tokens / (fields["prefill_tokens"] + tokens)
    fields["prefix_hit_rate"] = fields["prefix_hit_tokens"] / (
        fields["prefill_tokens"] + fields["prefix_hit_tokens"]
    )
    ordered = [outputs[request_id] for request_id in sorted(outputs)]
    fields["tokens_sha256"] = _sha256((output.generated for output in ordered), np.int64)
    if options["record_logits"]:  # the Tender rows
        fields["logits_sha256"] = _sha256((output.step_logits for output in ordered), np.float64)
    urgent = min(request.priority for request in trace)
    if any(request.priority != urgent for request in trace):
        waits = [
            outputs[i].first_token_at - outputs[i].arrival_time
            for i, request in enumerate(trace)
            if request.priority == urgent
        ]
        fields["urgent_ttft_p99_ticks"] = float(np.percentile(waits, 99))
    if model is not None:
        fields.update(
            peak_active=stats.peak_active,
            decode_rows=sum(rows for rows, *_ in forwards),
            max_decode_forwards_per_step=seen.worst,
            gather_bytes=int(engine.cache.gather_bytes),
            relocated_blocks=engine.cache.relocated_blocks,
            table_versions=engine.cache.table_version,
            runs_per_table=seen.runs / seen.tables,
            evicting_steps=seen.evicting,
        )
        # Every row once, as the runner saw it: owed rows ride decode-side forwards.
        fields["rows_per_token"] = (sum(rows for rows, _ in prefills) + fields["decode_rows"]) / tokens
        if h.speculation:
            verified = [(rows - owed, batch) for rows, batch, owed, *_ in forwards if rows - owed > batch]
            fields.update(
                spec_proposed_tokens=stats.spec_proposed_tokens,
                spec_accepted_tokens=stats.spec_accepted_tokens,
                spec_accept_rate=stats.spec_accept_rate(),
                spec_verify_rows=stats.spec_verify_rows,
                verify_forwards=len(verified),
                verify_rows_observed=sum(rows for rows, _ in verified),
                verify_rows_expected=stats.spec_proposed_tokens + sum(batch for _, batch in verified),
            )
    else:
        cluster = engine.cluster_stats
        fields.update(
            pool_iterations=cluster.iterations, failures=cluster.failures,
            recoveries=cluster.recoveries, degraded_requests=cluster.degraded_requests,
        )  # fmt: skip
    for key in ("collectives", "retries", "corruption_caught", "bytes_moved") if groups else ():
        fields["collective_" + key] = int(sum(getattr(group.stats, key) for group in groups))
    if tracer is not None:
        fields.update(events=len(tracer.events), events_per_step=len(tracer.events) / fields["forwards"])
    if h.profile:
        fields.update({"py_calls": calls[0], h.profile + "_calls": calls[1]})
    return SimpleNamespace(
        outputs=outputs, fields=fields, tracer=tracer, stats=stats, forwards=forwards, prefills=prefills,
        quantized_rows=quantized[0],
    )  # fmt: skip


# ----------------------------------------------------------------------
# Row-specific fields: closed forms, trace checks and the repro.gpu siblings
# ----------------------------------------------------------------------
def _static_batching(fields, run):
    """Forwards of idealized static (gang) batching on the same trace.

    Gangs of ``max_batch_size`` in arrival order; each costs one *batched*
    prefill plus ``max(budget) - 1`` decode passes and ignores arrival
    waits, so the measured ratio is a lower bound.
    """
    batch = run.options["max_batch_size"]
    budgets = [request.max_new_tokens for request in sorted(run.trace, key=lambda r: r.arrival_time)]
    fields["budgeted_tokens"] = sum(budgets)
    fields["static_forwards"] = sum(max(budgets[i : i + batch]) for i in range(0, len(budgets), batch))
    fields["forwards_vs_static"] = fields["static_forwards"] / fields["forwards"]
    fields["analytic_saturated_speedup"] = gpu.batching_occupancy(max_batch=batch)["speedup"]


def _prefix_analytic(fields, run):
    prompt = len(run.trace[0].prompt)
    fields["analytic_speedup_tender_sw"] = gpu.prefix_caching(
        prompt_tokens=prompt, mean_new_tokens=run.options["max_new_tokens"],
        hit_rate=fields["prefix_hit_rate"], batch=run.options["max_batch_size"], **PRICED_AT,
    )["Tender SW"]["speedup"]  # fmt: skip


def _speculative_analytic(fields, run):
    fields["analytic_speedup_tender_sw"] = gpu.speculation(
        draft_tokens=8, accept_rate=fields["spec_accept_rate"],
        context=len(run.trace[0].prompt) + run.options["max_new_tokens"],
        batch=run.options["max_batch_size"], **PRICED_AT,
    )["Tender SW"]["speedup"]  # fmt: skip


def _gather_floor(fields, run):
    """One decode step's dense K+V of the shortest prompt, per layer: a loose
    floor under what the gather reference must have copied."""
    config = run.runner.config
    shortest = min(len(request.prompt) for request in run.trace)
    fields["gather_bytes_floor"] = config.num_layers * 2 * shortest * config.d_model * 8


def _goodput(fields, run):
    fields["goodput_ratio"] = fields["tokens_per_row"] / fields["base.tokens_per_row"]


def _resume_rides(fields, run):
    """What the runner saw of resumed requests, against what the scheduler booked.

    A resume whose replay leaves less than one block to compute rides the
    step's decode forward; every other admission — a first token to sample,
    or a block or more to recompute — is one prefill forward (the row serves
    unchunked).  All read off the runner's arguments and the counters.
    """
    block, stats = run.options["block_size"], run.var.stats
    fields["tail_only_forwards"] = sum(1 for rows, logits in run.var.prefills if rows < block and not logits)
    fields["prefill_forwards"] = len(run.var.prefills)
    fields["resume_rides"] = sum(resumes for *_, resumes, _ in run.var.forwards)
    fields["prefill_admissions"] = len(run.trace) + fields["preemptions"] - fields["resume_rides"]
    fields["resume_tail_rows"] = stats.resume_tail_rows
    fields["decode_rows_booked"] = (
        stats.decode_slot_steps + stats.spec_proposed_tokens + stats.resume_tail_rows
    )


def _preemption(fields, run):
    _goodput(fields, run)
    _resume_rides(fields, run)
    fields["urgent_ttft_speedup"] = fields["base.urgent_ttft_p99_ticks"] / fields["urgent_ttft_p99_ticks"]
    fields["resume_prefix_hit_tokens"] = fields["prefix_hit_tokens"] - fields["base.prefix_hit_tokens"]
    victims = [output for output in run.var.outputs.values() if output.preemptions]
    fields["analytic_ttft_speedup_tender_sw"] = gpu.preemption(
        victim_context=10 + 24, high_prompt_tokens=6, expected_wait_steps=24,
        resume_hit_rate=min(1.0, float(np.mean(
            [o.prefix_hit_tokens / (len(o.prompt) + len(o.generated)) for o in victims]
        ))),
        batch=run.options["max_batch_size"], **PRICED_AT,
    )["Tender SW"]["ttft_speedup"]  # fmt: skip


def _observability(fields, run):
    """Span taxonomy, export round trip, and the cost of tracing in calls."""
    tracer, steps = run.var.tracer, fields["forwards"]
    fields["missing_events"] = sum(1 for name in REQUIRED_EVENTS if not tracer.events_named(name))
    fields["traced_calls_per_step"] = (fields["py_calls"] - fields["base.py_calls"]) / steps
    with tempfile.TemporaryDirectory() as directory:  # the export must load back as Chrome trace JSON
        tracer.export_chrome_trace(Path(directory) / "trace.json")
        payload = json.loads((Path(directory) / "trace.json").read_text())
    rows = payload["traceEvents"]
    depth, balanced = {}, payload["displayTimeUnit"] == "ms"
    for row in rows:
        balanced &= all(key in row for key in ("name", "ph", "pid", "tid"))
        depth[row["pid"]] = depth.get(row["pid"], 0) + {"B": 1, "E": -1}.get(row["ph"], 0)
        balanced &= depth[row["pid"]] >= 0
    named = {row["pid"] for row in rows if row["ph"] == "M"}
    fields["export_valid"] = bool(
        balanced and not any(depth.values()) and {row["pid"] for row in rows} <= named
    )
    fields["analytic_enabled_overhead_tender_sw"] = gpu.tracing_overhead(
        events_per_step=fields["events_per_step"], guard_sites_per_step=fields["events_per_step"],
        batch=run.options["max_batch_size"], context=24 + 10, **PRICED_AT,
    )["Tender SW"]["enabled_overhead_ratio"]  # fmt: skip


def _fault_tolerance(fields, run):
    _goodput(fields, run)
    saved = fields["prefix_hit_tokens"] - fields["base.prefix_hit_tokens"]
    cost = fields["prefill_tokens"] - fields["base.prefill_tokens"]
    fields["resume_hit_rate"] = saved / (saved + cost)
    contexts = [len(o.prompt) + len(o.generated) for o in run.var.outputs.values()]
    fields["analytic_goodput_ratio_tender_sw"] = gpu.sharded_serving(
        batch=run.options["max_batch_size"], context=int(round(np.mean(contexts))),
        failure_rate=fields["failures"] / (fields["pool_iterations"] * run.options["replicas"]),
        resume_hit_rate=fields["resume_hit_rate"], **PRICED_AT,
    )["Tender SW"]["goodput_ratio"]  # fmt: skip


def _tensor_parallel(fields, run):
    _goodput(fields, run)
    contexts = [len(o.prompt) + len(o.generated) for o in run.var.outputs.values()]
    with_head = dict(PRICED_AT, shape=dataclasses.replace(PRICED_AT["shape"], vocab=workloads.VOCAB))
    fields["analytic_curve_tender_sw"] = []
    for shards in (1, 2, 4, 8):
        point = gpu.sharded_serving(
            num_shards=shards, batch=run.options["max_batch_size"], context=int(round(np.mean(contexts))),
            failure_rate=0.002, resume_hit_rate=0.6, retry_backoff_steps=1.0, **with_head,
        )["Tender SW"]  # fmt: skip
        fields["analytic_curve_tender_sw"].append(
            {"num_shards": shards, **{key: point[key] for key in ("comm_ms", "speedup", "goodput_ratio")}}
        )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
SMALL = dict(max_batch_size=3, block_size=8)
SPEC = dict(max_batch_size=3, block_size=8, max_new_tokens=16)
TWO_CLASS = dict(max_batch_size=2, block_size=4, prefix_cache=True, max_new_tokens=24)
CHURN = dict(max_batch_size=4, block_size=8, max_new_tokens=20)
POOL = dict(max_batch_size=2, block_size=4)
DIGEST = dict(max_batch_size=3, block_size=8, max_new_tokens=8)
TRANSPORT_FAULTS = dict(corrupt_at={3: 1, 11: 0}, drop_at={5: 0}, delay_at={7: 1}, duplicate_at={9: 0})


def _final_tick(fields, run):
    """The tick the last request finished at, both sides; the variant's budget beside the context it spans."""
    for prefix, side in (("", run.var), ("base.", run.base)):
        fields[prefix + "final_tick"] = max(output.finished_at for output in side.outputs.values())
    fields.update(prefill_chunk=run.options["prefill_chunk"], max_seq_len=run.runner.config.max_seq_len)


def _unread_rows(fields, run):
    """Forwards carrying chunks nobody samples from, the rows nobody reads, and what is not quantized for them.

    Past the last block's KV write an unread row skips three activations
    (out_proj, fc1, fc2); the LM head runs over read rows on both sides.
    """
    prefills, forwards = run.var.prefills, run.var.forwards
    fields["unread_prefills"] = sum(1 for _, logits in prefills if not logits) + sum(1 for *_, rides in forwards if rides)
    unread = sum(rows - logits for rows, logits in prefills) + sum(owed for _, _, owed, *_ in forwards)
    fields["unread_activation_rows"] = 3 * unread
    fields["quantize_calls_saved"] = fields["base.quantize_calls"] - fields["quantize_calls"]
    fields["quantize_rows_saved"] = run.base.quantized_rows - run.var.quantized_rows


def _ridden(fields, run):
    """The chunks that shared a decode forward, and the forwards the scheduler booked."""
    fields["ridden_chunks"] = run.var.stats.ridden_chunks
    fields["forwards_booked"] = fields["prefill_iterations"] - fields["ridden_chunks"] + fields["decode_iterations"]


def _extractive(runner):
    return workloads.extractive_trace(runner)


def _mixed_extractive(runner):
    return workloads.extractive_trace(runner, budgets=(16, 5, 9, 12, 7, 3))


def _templated(runner):
    return workloads.templated_trace(23)


def _two_class(runner):
    return workloads.two_class_trace()


def _scan(runner):
    """A template and a request matching it, four never-matched prompts, then the template again."""
    template = workloads.shared_prefix_trace(3)
    return template[:2] + workloads.unshared_trace((46,) * 4) + template[2:]


def _scan_blocks(fields, run):
    """The full blocks the never-matched prompts publish, beside the pool they must overrun."""
    fields["scan_blocks"] = sum(len(request.prompt) // run.options["block_size"] for request in run.trace[2:-1])
    fields["num_blocks"] = run.options["num_blocks"]


SCENARIOS = (
    Scenario(
        "prefix cache", ("fp",), lambda runner: workloads.shared_prefix_trace(), SMALL,
        dict(prefix_cache=False), dict(prefix_cache=True),
        # A broken radix match silently degrades to zero hits, not to an error.
        (("prefix_hit_rate", ">=", 0.6), ("prefill_tokens", "<", "base.prefill_tokens")),
        _prefix_analytic,
    ),
    Scenario(
        "prefix cache disjoint", ("fp",), lambda runner: workloads.unshared_trace(), SMALL,
        dict(prefix_cache=False), dict(prefix_cache=True),
        (("prefix_hit_tokens", "==", 0), ("prefill_tokens", "==", "base.prefill_tokens"),
         ("forwards", "==", "base.forwards"), ("decode_rows", "==", "base.decode_rows")),
    ),  # fmt: skip
    Scenario(
        "chunked prefill under eviction", TENDER, lambda runner: workloads.churn_trace(True, 24), CHURN,
        dict(prefix_cache=False), dict(prefix_cache=True, prefill_chunk=8, num_blocks=28),
        # Under eviction the free space is a mosaic: cached blocks are relocated so
        # reservations stay whole (the split-around-them allocator reads 2.62).
        (("prefix_hit_tokens", ">", 0), ("evicting_steps", ">=", 1), ("gather_bytes", "==", 0),
         ("relocated_blocks", ">=", 1), ("runs_per_table", "<=", 2.0)),
    ),  # fmt: skip
    Scenario(
        "unchunked is a chunk of infinity", TENDER, lambda runner: workloads.shared_prefix_trace(),
        dict(SMALL, prefix_cache=True), dict(prefill_chunk=None), dict(prefill_chunk=128),
        # One prefill budget, spent in one loop: a budget no prompt can exhaust is
        # no budget.  A second admission policy for the chunked case matches before
        # its predecessor published and reads fewer hits.
        (("prefill_chunk", "==", "max_seq_len"), ("prefix_hit_tokens", "==", "base.prefix_hit_tokens"),
         ("prefill_iterations", "==", "base.prefill_iterations"),
         ("prefill_tokens", "==", "base.prefill_tokens"),
         ("decode_iterations", "==", "base.decode_iterations"), ("final_tick", "==", "base.final_tick")),
        _final_tick,
    ),  # fmt: skip
    Scenario(
        "continuous batching", ("fp",), lambda runner: workloads.poisson_trace(),
        dict(max_batch_size=4, max_new_tokens=40), None, {},
        (("forwards_vs_static", ">=", 1.5), ("peak_active", "<=", 4),
         ("generated_tokens", "==", "budgeted_tokens")),
        _static_batching,
    ),
    Scenario(
        "speculation", ("periodic",), _extractive, SPEC, {}, dict(speculation="lookup"),
        # The generation is a strict cycle, so a healthy drafter cannot miss.
        (("spec_accept_rate", ">=", 0.8), ("decode_iterations", "<", "base.decode_iterations"),
         ("rows_per_token", "<=", "base.rows_per_token")),
        _speculative_analytic,
    ),  # fmt: skip
    Scenario(
        "speculation with prefix cache and chunked prefill", ("periodic",), _extractive, SPEC,
        {}, dict(speculation="lookup", prefix_cache=True, prefill_chunk=8),
        (("spec_accept_rate", ">=", 0.8),),
    ),
    Scenario(
        "speculation control", ("fp",), lambda runner: workloads.unshared_trace((24,) * 8),
        dict(SPEC, max_batch_size=4), {}, dict(speculation="lookup"),
        # Nothing repeats: the drafter must go quiet instead of paying for
        # hopeless verifies (the retired floor was 0.7x decode tokens/s).
        (("decode_iterations", "<=", "base.decode_iterations"), ("decode_rows_vs_plain", "<=", 1.25)),
        lambda fields, run: fields.update(
            decode_rows_vs_plain=fields["decode_rows"] / fields["base.decode_rows"]
        ),
    ),
    Scenario(
        "ragged verify", ("periodic",), _mixed_extractive, dict(SPEC, max_batch_size=4),
        {}, dict(speculation="lookup"),
        # One warm request among cold ones, staggered budgets: a pad row, a
        # filler guess or a separate final-token forward all fail here.
        (("verify_forwards", ">=", 1), ("verify_rows_observed", "==", "verify_rows_expected"),
         ("verify_rows_observed", "==", "spec_verify_rows"), ("max_decode_forwards_per_step", "<=", 1)),
    ),  # fmt: skip
    Scenario(
        "prompt-lookup speculation", TENDER, _extractive, SPEC,
        {}, dict(speculation="lookup"),
        (("spec_proposed_tokens", ">", 0), ("max_decode_forwards_per_step", "<=", 1)),
    ),
    Scenario(
        "model-draft speculation", TENDER, _extractive, SPEC,
        {}, dict(speculation="model"),
        (("spec_proposed_tokens", ">", 0), ("verify_rows_observed", "==", "verify_rows_expected")),
    ),
    Scenario(
        # Prompt lengths exactly at, one past and mid-way through a block of 8.
        "fused paged attention", ("fp",) + TENDER,
        lambda runner: workloads.unshared_trace((16, 17, 24, 9), seed=5),
        dict(SMALL, max_new_tokens=4), dict(fused=False), {},
        # A fused path that falls back to gathering fails the zero, a broken counter the floor.
        (("gather_bytes", "==", 0), ("base.gather_bytes", ">=", "gather_bytes_floor")),
        _gather_floor,
    ),
    Scenario(
        "a prefill row stops where nobody reads it", TENDER, lambda runner: workloads.shared_prefix_trace(),
        dict(SMALL, prefill_chunk=16, profile="quantize"), dict(fused=False), {},
        # Same rows in the same forwards; past the last block's KV write only the rows
        # sampled from go on.  The gather reference carries every row to the end, so it
        # quantizes three activations (out_proj, fc1, fc2) more in each of the 8 of the
        # 22 chunks nobody samples from that ride alone (14 ride beside decode rows, which
        # go on), and three more rows for every row nobody reads — a ride's, a final
        # chunk's but its last.
        (("tokens_sha256", "==", "base.tokens_sha256"), ("logits_sha256", "==", "base.logits_sha256"),
         ("prefill_tokens", "==", "base.prefill_tokens"),
         ("prefill_iterations", "==", "base.prefill_iterations"),
         ("quantize_calls", "<", "base.quantize_calls"), ("quantize_calls_saved", "==", 24),
         ("quantize_rows_saved", "==", "unread_activation_rows"),
         ("unread_prefills", "==", 22), ("gather_bytes", "==", 0)),
        _unread_rows,
    ),  # fmt: skip
    Scenario(
        "a chunk nobody samples rides the decode forward", TENDER, lambda runner: workloads.shared_prefix_trace(),
        SMALL, dict(prefill_chunk=None), dict(prefill_chunk=16),
        # A chunk that leaves its prompt unfinished is rows in the step's one
        # decode-side forward, not a forward of its own; a chunk that samples
        # is still its own prefill.
        (("tokens_sha256", "==", "base.tokens_sha256"), ("logits_sha256", "==", "base.logits_sha256"),
         ("ridden_chunks", ">=", 1), ("forwards", "==", "forwards_booked"),
         ("max_decode_forwards_per_step", "<=", 1)),
        _ridden,
    ),  # fmt: skip
    Scenario(
        "block contiguity cache off", ("fp",), lambda runner: workloads.churn_trace(False), CHURN,
        dict(pool=LruReferencePool, prefix_cache=False), dict(prefix_cache=False),
        # Every run is one more matmul pair per attention call (the one-list policy reads 2.94).
        (("runs_per_table", "<=", 1.2), ("runs_per_table", "<=", "base.runs_per_table"),
         ("gather_bytes", "==", 0), ("relocated_blocks", "==", 0)),
    ),  # fmt: skip
    Scenario(
        "block contiguity cache on", ("fp",), lambda runner: workloads.churn_trace(True), CHURN,
        dict(pool=LruReferencePool, prefix_cache=True, num_blocks=28),
        dict(prefix_cache=True, num_blocks=28),
        # The allocator chooses where a block lives, never which cached block dies
        # (3.11 runs per table before cached blocks could be relocated).
        (("prefix_hit_tokens", "==", "base.prefix_hit_tokens"), ("evicting_steps", ">=", 1),
         ("runs_per_table", "<=", 2.7), ("relocated_blocks", ">=", 1), ("gather_bytes", "==", 0)),
    ),  # fmt: skip
    Scenario(
        "a matched prefix outlives a scan", TENDER, _scan,
        dict(max_batch_size=1, block_size=8, prefix_cache=True, num_blocks=12), dict(num_blocks=64), {},
        # The prompts nobody shares overrun the 12 blocks, and their blocks, released after the
        # template's, go first: the last request hits the template as on a pool that never
        # evicts.  A single LRU reclaims the template first (it hits 32 tokens of 64).
        (("prefix_hit_tokens", "==", "base.prefix_hit_tokens"), ("tokens_sha256", "==", "base.tokens_sha256"),
         ("logits_sha256", "==", "base.logits_sha256"), ("scan_blocks", ">", "num_blocks"),
         ("evicting_steps", ">=", 1)),
        _scan_blocks,
    ),  # fmt: skip
    Scenario(
        "a prefix matches inside a block", TENDER, lambda runner: workloads.partial_prefix_trace(),
        dict(max_batch_size=1, block_size=8), dict(prefix_cache=False), dict(prefix_cache=True),
        # Copied heads are the bytes a recompute writes.  Whole-block matching reaches 24
        # hit tokens here (16 + 8); the heads inside the next block add 4 + 5 + 5 + 2.
        (("prefix_hit_tokens", "==", 40), ("tokens_sha256", "==", "base.tokens_sha256"),
         ("logits_sha256", "==", "base.logits_sha256")),
    ),  # fmt: skip
    Scenario(
        "preemption", ("fp",) + TENDER, _two_class,
        TWO_CLASS, dict(fifo=True), dict(preemption=True),
        # Replay rides the victims' published blocks; recomputing from scratch lands below 0.95.
        # A sub-block resume tail rides the decode forward: no forward of its own (the parent ran
        # 62 forwards here, 2 of them such tails), and every row still counted exactly once.
        (("preemptions", ">=", 1), ("urgent_ttft_speedup", ">=", 1.5), ("goodput_ratio", ">=", 0.95),
         ("resume_rides", ">=", 1), ("tail_only_forwards", "==", 0),
         ("prefill_forwards", "==", "prefill_admissions"), ("prefill_iterations", "==", "prefill_forwards"),
         ("max_decode_forwards_per_step", "<=", 1), ("decode_rows", "==", "decode_rows_booked"),
         ("rows_per_token", "==", 1.3611111111111112), ("forwards", "<", 62)),
        _preemption,
    ),
    Scenario(
        "observability", ("fp",), _two_class,
        dict(TWO_CLASS, preemption=True, profile="obs"), {}, dict(tracer=True),
        # Disabled, tracing is one `is not None` branch per site and enters no
        # repro.obs frame; enabled, it stays inside exact per-step budgets
        # (measured 2.71 events and 10.4 calls: a site that formats strings
        # or walks a table per event lands well above).
        (("base.obs_calls", "==", 0), ("missing_events", "==", 0), ("export_valid", "==", True),
         ("events_per_step", "<=", 3.0), ("traced_calls_per_step", "<=", 11.5)),
        _observability,
    ),  # fmt: skip
    Scenario(
        "fault tolerance", ("fp",), lambda runner: workloads.templated_trace(),
        dict(POOL, replicas=3, max_new_tokens=16), {}, dict(kill_at={2: 0, 4: 1}),
        # Recovery that recomputes whole contexts instead of riding prefix hits lands below 0.8.
        (("recoveries", ">=", 1), ("degraded_requests", "==", 0), ("goodput_ratio", ">=", 0.8)),
        _fault_tolerance,
    ),
    Scenario(
        "tensor parallel 2 shards", TENDER, _templated,
        dict(DIGEST, prefix_cache=True, profile="quantize"), {}, dict(shards=2, transport=TRANSPORT_FAULTS),
        # A transport that silently reduces a corrupted payload fails parity; a
        # group that quantizes an activation once per shard fails the equality.
        (("collective_corruption_caught", ">=", 1), ("collective_retries", ">=", 1),
         ("quantize_calls", "==", "base.quantize_calls")),
    ),  # fmt: skip
    Scenario(
        "tensor parallel 4 shards", TENDER, _templated,
        dict(DIGEST, prefix_cache=True, profile="quantize"), {}, dict(shards=4),
        (("collective_collectives", ">", 0), ("collective_retries", "==", 0),
         ("quantize_calls", "==", "base.quantize_calls")),
    ),  # fmt: skip
    Scenario(
        "shard kill", ("tender-implicit",), _templated,
        dict(POOL, replicas=2, shards=2, max_new_tokens=8), {},
        dict(transport=dict(kill_at={40: 1}, max_kills=1)),
        (("failures", ">=", 1), ("recoveries", ">=", 1), ("degraded_requests", "==", 0),
         ("goodput_ratio", ">=", 0.8)),
        _tensor_parallel,
    ),  # fmt: skip
    Scenario(
        "reference kernels", TENDER, _templated,
        DIGEST, dict(reference=True), {}, (("gather_bytes", "==", 0),),
    ),
    Scenario(
        "tender all", TENDER, _templated,
        dict(DIGEST, quantize_attention=True), dict(reference=True), {},
        # Dynamic attention statistics need the dense operands: the gather path, by design.
        (("gather_bytes", ">", 0),),
    ),
)

COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt}


def check(label: str, fields: dict, checks) -> list:
    """One failure line, led by ``label``, per ``(field, comparison, bound or other field)`` that ``fields`` break."""
    failures = []
    for name, comparison, bound in checks:
        limit = fields[bound] if isinstance(bound, str) else bound
        if not COMPARE[comparison](fields[name], limit):
            failures.append(
                f"{label}: {name} = {fields[name]} is not {comparison} {bound}"
                + (f" = {limit}" if isinstance(bound, str) else "")
            )
    return failures


def oracle(runner: TransformerRunner) -> TransformerRunner:
    """``runner``'s weights and calibration behind the literal equations (:class:`ReferenceExecutor`)."""
    executor = runner.executor
    return TransformerRunner(runner.weights, ReferenceExecutor(executor.site_params, executor.config, executor.implicit))


def run_scenario(scenario: Scenario, cache: dict) -> Tuple[dict, list]:
    """Serve one row on each of its runners; return ``(record, failures)``.

    ``cache`` memoizes runners and serves across rows, so the plain-decode
    baseline several rows share is served once.
    """

    def memo(key, build):
        if key not in cache:
            cache[key] = build()
        return cache[key]

    record, failures = {}, []
    for runner_key in scenario.runners:
        tender = runner_key in TENDER
        trace = memo(
            (runner_key, scenario.trace), lambda: scenario.trace(memo(runner_key, RUNNERS[runner_key]))
        )

        def side(own):
            options = {**HARNESS, **scenario.engine, **own, "record_logits": tender}
            h = SimpleNamespace(**{key: options.pop(key) for key in HARNESS})
            runner = memo(
                (runner_key, h.quantize_attention), lambda: RUNNERS[runner_key](quantize_attention=h.quantize_attention)
            )
            if h.reference:
                runner = memo((runner_key, h.quantize_attention, "reference"), partial(oracle, runner))
            merged = {**vars(h), **options}
            key = (runner_key, scenario.trace, repr(sorted(merged.items())))
            return runner, merged, memo(key, lambda: serve(runner, trace, h, options))

        base = None if scenario.baseline is None else side(scenario.baseline)[2]
        runner, options, var = side(scenario.variant)
        fields = dict(var.fields)
        if base is not None:
            fields.update({"base." + key: value for key, value in base.fields.items()})
            same = base.outputs.keys() == var.outputs.keys() and all(
                np.array_equal(base.outputs[i].generated, var.outputs[i].generated)
                and np.array_equal(base.outputs[i].step_logits, var.outputs[i].step_logits)
                for i in base.outputs
            )
            if not same:
                failures.append(
                    f"{scenario.name} [{runner_key}]: variant tokens"
                    + (" or committed logits" if tender else "")
                    + " differ from the baseline's"
                )
        if scenario.derive is not None:
            run = SimpleNamespace(trace=trace, options=options, runner=runner, base=base, var=var)
            scenario.derive(fields, run)
        failures += check(f"{scenario.name} [{runner_key}]", fields, scenario.checks)
        # Baseline fields are recorded where they differ from the variant's: the row's story.
        record[runner_key] = {
            key: value
            for key, value in fields.items()
            if key.split(".")[-1] not in BUDGET_ONLY
            and not (key.startswith("base.") and fields.get(key[5:]) == value)
        }
    return record, failures


# ----------------------------------------------------------------------
# Count gates: rows that serve no trace
# ----------------------------------------------------------------------
def fast_projection() -> dict:
    """The fast Index-Buffer projection against the reference per-chunk loop."""
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=32)
    params = synthetic_projection_site(config)
    x, positions, weight = decode_projection_operands()
    fast, reference = (
        executor(params, config).project("site", x, weight, None, positions=positions)
        for executor in (TenderExecutor, ReferenceExecutor)
    )
    return {"bit_identical": np.array_equal(fast, reference)}


def _warm_forward(shards: int = 0, quantize_attention: bool = False, entry: str = "decode"):
    """``(runner, forward)``: one forward through ``entry``, ready to call once every lazy cache is full.

    The tiny model, Tender-quantized, over four ragged slots of a paged pool.
    ``"decode"`` is one batched ``decode_step`` — the scheduler's
    steady-state forward; with ``shards``, as a shard group meeting on a
    transport with a fault injector attached (no fault fires unless one is
    scripted into ``runner.group``); with ``quantize_attention``, as Tender
    "all".  The other entry points run solo: ``"prefill"`` a whole ragged
    prefill into fresh slots, ``"chunk"`` an intermediate prefill chunk (no
    logits), ``"verify"`` a ragged verify.
    """
    runner = workloads.tiny_runner(
        "tender-implicit", num_heads=4 if shards else 2, quantize_attention=quantize_attention
    )
    if shards:
        group = CollectiveGroup(shards, fault_injector=CollectiveFaultInjector(seed=0))
        runner = ShardedRunner(runner, shards, group=group)
    config = runner.config
    rng = np.random.default_rng(5)
    lengths = np.array([5, 9, 17, 30])
    pool = PagedKVCache.for_model(config, max_active=2 * len(lengths), block_size=8)

    def slots():
        return pool.view([pool.reserve(int(length) + 8) for length in lengths])

    view = slots()
    tokens = rng.integers(0, config.vocab_size, size=(len(lengths), int(lengths.max())))
    next_tokens = runner.prefill(tokens, lengths, view).argmax(axis=-1)
    next_tokens = runner.decode_step(next_tokens, view).argmax(axis=-1)  # fills the lazy caches
    draft_rows = np.array([1, 3, 2, 4])
    forward = {
        "decode": lambda: partial(runner.decode_step, next_tokens, view),
        "prefill": lambda: partial(runner.prefill, tokens, lengths, slots()),
        "chunk": lambda: partial(
            runner.prefill, tokens[:, :3], np.full(len(lengths), 3), view,
            start_positions=view.lengths.copy(), return_logits=False,
        ),
        "verify": lambda: partial(
            runner.verify, tokens[:, :4].reshape(-1)[: draft_rows.sum()], view, view.lengths.copy(),
            lengths=draft_rows,
        ),
    }[entry]()  # fmt: skip
    return runner, forward


def decode_dispatch_counts(shards: int = 0, quantize_attention: bool = False, entry: str = "decode") -> dict:
    """Python-level, ``np.unique`` and attention calls of one forward through ``entry``; the layers that attend.

    The forward is :func:`_warm_forward`'s; under Tender "all"
    (``quantize_attention``) the attention calls are
    ``dense_cached_attention``'s instead of ``paged_attention``'s.
    ``sys.setprofile`` sees one ``call`` event per Python frame entered
    (NumPy's own Python wrappers included, C functions not), so the count is
    exact and repeats.
    """
    runner, forward = _warm_forward(shards, quantize_attention, entry)
    entered = Counter()  # by code object; ``update`` returns None, so nothing "matches"
    calls, _ = count_calls(forward, lambda code: entered.update((code,)))
    attention = dense_cached_attention if quantize_attention else paged_attention
    return dict(
        py_calls=calls,
        np_unique=entered[np.unique.__wrapped__.__code__],
        attention_calls=entered[attention.__code__],
        # An intermediate chunk's last block stops after its KV write: nobody attends there.
        layers_attended=runner.config.num_layers - (entry == "chunk"),
    )


def commit_call_count() -> dict:
    """Python frames of one ``SlotBatchView.commit`` over 16 two-block slots, each advanced."""
    slots = 16
    pool = PagedKVCache(num_layers=1, num_heads=1, d_head=4, block_size=4, num_blocks=2 * slots)
    view = pool.view([pool.reserve(8) for _ in range(slots)])
    view.lengths += np.arange(slots) % 9
    calls, _ = count_calls(view.commit)
    return {"py_calls": calls}


def collective_checksums(corrupt: bool) -> dict:
    """``zlib.crc32`` calls and corruptions caught in one 2-shard decode forward.

    The group is :func:`_warm_forward`'s fault-injected one; with
    ``corrupt``, its injector is swapped for one scripting a corruption of
    shard 0's message in the forward's first collective.  ``sys.setprofile``
    reports every C call as a ``c_call`` event, so the count is exact.
    """
    runner, forward = _warm_forward(2)
    group = runner.group
    if corrupt:  # completed collectives == the next sequence number, on a group that never failed
        group.fault_injector = CollectiveFaultInjector(seed=0, corrupt_at={group.stats.collectives: 0})
    caught = group.stats.corruption_caught
    checksums = 0

    def profile(frame, event, arg):
        nonlocal checksums
        checksums += event == "c_call" and arg is zlib.crc32

    sys.setprofile(profile)
    try:
        forward()
    finally:
        sys.setprofile(None)
    return {"crc32_calls": checksums, "corruption_caught": group.stats.corruption_caught - caught}


def attention_peak_ratio() -> dict:
    """``tracemalloc`` peak across one ``paged_attention`` call, over (score buffer + context) bytes.

    The fixed chunk shape: 4 heads, 64 rows at positions 128..191 of one
    single-run sequence — a 393 KB score buffer, above the allocator's
    large-block threshold.  NumPy reports every array it allocates to
    ``tracemalloc``, so the ratio counts score-sized temporaries exactly
    and reads no clock.
    """
    heads, d_head, block, depth, rows = 4, 16, 16, 128, 64
    pool = PagedKVCache(
        num_layers=1, num_heads=heads, d_head=d_head, block_size=block, num_blocks=(depth + rows) // block
    )
    operands = pool.view([pool.reserve(depth + rows)]).attention_operands(0)
    queries = np.random.default_rng(5).normal(size=(heads, rows, d_head))
    plan = ForwardPlan.ragged([depth], [rows])
    tracemalloc.start()
    try:
        context = paged_attention(queries, *operands, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"peak_ratio": peak / (heads * rows * (depth + rows) * 8 + context.nbytes)}


def serving_stress() -> dict:
    """The pool-invariant state machine, seeded, on the roomy pool and the tight one: first violation, steps run."""
    steps = 0
    for seed in range(STRESS_SEEDS):
        for geometry in ({}, TIGHT_POOL):
            where = f"seed {seed}, {geometry or 'default pool'}"
            try:
                tally = stress_machine.run(seed=seed, **geometry)
            except InvariantViolation as error:
                return {"violation": f"a pool invariant broke ({where}): {error}", "steps": steps}
            steps += sum(tally[op] for op in stress_machine.OPS)
            if geometry and not tally["relocated_blocks"]:
                return {"violation": f"the tight pool relocated nothing ({where}): no relocation was audited", "steps": steps}
    return {"violation": None, "steps": steps}


def _forward(budget: int) -> tuple:
    """A forward row's checks: its call budget, no ``np.unique``, one attention call per attending layer."""
    return (("py_calls", "<=", budget), ("np_unique", "==", 0), ("attention_calls", "==", "layers_attended"))


#: ``(name, measure, checks)``: ``measure()`` returns the fields ``checks`` read.  A forward's
#: budget is its measured count + 16 / 38 / 52 at 0 / 2 / 4 shards for NumPy versions, never for
#: new per-site or per-shard work.
COUNT_GATES = (
    ("fast projection", fast_projection, (("bit_identical", "==", True),)),
    ("decode forward", decode_dispatch_counts, _forward(147)),
    ("decode forward 2 shards", partial(decode_dispatch_counts, 2), _forward(267)),
    ("decode forward 4 shards", partial(decode_dispatch_counts, 4), _forward(307)),
    ("tender all decode forward", partial(decode_dispatch_counts, 0, True), _forward(362)),
    ("tender all decode forward 2 shards", partial(decode_dispatch_counts, 2, True), _forward(482)),
    ("tender all decode forward 4 shards", partial(decode_dispatch_counts, 4, True), _forward(522)),
    ("prefill forward", partial(decode_dispatch_counts, entry="prefill"), _forward(167)),
    ("prefill chunk forward", partial(decode_dispatch_counts, entry="chunk"), _forward(120)),
    ("verify forward", partial(decode_dispatch_counts, entry="verify"), _forward(152)),
    # Below the 16 slots: no frame may be per slot.
    ("view commit", commit_call_count, (("py_calls", "<=", 4),)),
    # A message no fault hit is never checksummed; a corrupted one is, pristine and tampered.
    ("collective checksums clean", partial(collective_checksums, False),
     (("crc32_calls", "==", 0), ("corruption_caught", "==", 0))),
    ("collective checksums corrupt", partial(collective_checksums, True),
     (("crc32_calls", "==", 2), ("corruption_caught", "==", 1))),
    ("attention memory", attention_peak_ratio, (("peak_ratio", "<=", 1.25),)),
    # No fewer steps than the 2 seeds x 120 ops x 2 pools of the hand-rolled harness it replaced.
    ("serving stress", serving_stress, (("violation", "==", None), ("steps", ">=", 480))),
)  # fmt: skip


def _report(name: str, failures: list, summary: str) -> bool:
    for failure in failures:
        print(f"perf smoke FAILED ({failure})")
    if not failures:
        print(f"perf smoke ok ({name}: {summary})")
    return bool(failures)


def main() -> int:
    """Run every count gate and every scenario row; compare (or re-record) ``BENCH_serving.json``."""
    status, record, cache = 0, {}, {}
    for name, measure, checks in COUNT_GATES:
        fields = measure()
        summary = ", ".join(f"{key} = {value}" for key, value in fields.items())
        status |= _report(name, check(name, fields, checks), summary)
    for scenario in SCENARIOS:
        record[scenario.name], failures = run_scenario(scenario, cache)
        summary = f"{len(scenario.checks)} checks on {', '.join(scenario.runners)}"
        status |= _report(scenario.name, failures, summary)
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_WRITE_BENCH") == "1":
        if not status:  # a failing run is never recorded
            RECORD_PATH.write_text(text)
            print(f"perf smoke: recorded {RECORD_PATH.name}")
    elif not RECORD_PATH.is_file() or RECORD_PATH.read_text() != text:
        committed = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.is_file() else {}
        changed = [
            f"{name} [{runner}] {key}"
            for name, rows in record.items()
            for runner, fields in rows.items()
            for key, value in fields.items()
            if committed.get(name, {}).get(runner, {}).get(key) != value
        ]
        print(
            f"perf smoke FAILED ({RECORD_PATH.name} differs from this run in {changed or 'layout'}; "
            "review, then re-record with REPRO_WRITE_BENCH=1)"
        )
        status = 1
    else:
        print(f"perf smoke ok ({RECORD_PATH.name} reproduced byte for byte)")
    return status


if __name__ == "__main__":
    sys.exit(main())
