"""Analytical GPU latency model: Figure 12, one priced forward, serving closed forms.

Three layers share one roofline:

* the GEMM prices — :func:`fp16_latency_ms`, :func:`int8_latency_ms`,
  :func:`per_channel_latency_ms`, :func:`tender_software_latency_ms` — and
  :func:`figure12_latencies`, the paper's Figure 12 (one prefill-shaped
  query-projection GEMM per scheme);
* :func:`forward_ms` — every GEMM of one forward of a
  :class:`~repro.models.ModelShape` over ``rows`` token rows attending
  ``context`` positions.  A decode step, a prefill chunk, a speculative
  verify forward and a recovery replay are the same forward at different
  ``(rows, context)``, so it is priced here and nowhere else;
* the serving scenarios — one closed form over priced forwards each, all
  returning ``{scheme: {field: value}}``: :func:`continuous_batching`
  (``H(B)`` occupancy, also alone as :func:`batching_occupancy`),
  :func:`prefix_caching` (cold vs suffix-only request),
  :func:`speculation` (expected committed run vs the wider verify),
  :func:`paged_attention_gather` (the dense KV copy the fused kernel
  avoids), :func:`preemption` (wait vs recompute), :func:`sharded_serving`
  (compute divided, collectives added back, goodput under failures — a
  replica pool is its one-shard case) and :func:`tracing_overhead`.

Figure 12 measures, for one query-projection GEMM, the latency of:

* FP16 (cuBLAS-style half-precision GEMM),
* INT8 per-tensor and per-row quantization (a single CUTLASS INT8 GEMM plus a
  cheap epilogue),
* INT8 per-channel quantization (impracticable on tensor cores: realised as a
  floating-point GEMM after elementwise dequantization),
* Tender SW (the Tender algorithm without hardware support: one INT8 GEMM per
  channel group, each padded to a multiple of 16 columns for the tensor-core
  alignment requirement, with explicit FP dequantize/accumulate between
  groups).

The model is a roofline with a per-kernel launch overhead and an
underutilization penalty for small GEMMs, which reproduces the paper's
qualitative findings: per-tensor/per-row INT8 is the fastest, Tender SW sits
slightly below FP16, per-channel costs the most, and on the A100 the gains of
INT8 over FP16 shrink because the small-model GEMM does not saturate the
device.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from numbers import Integral
from typing import Dict

from repro.errors import ConfigurationError, require_count
from repro.gpu.devices import GPUSpec, get_gpu
from repro.models.zoo import ModelShape

#: Tensor-core INT8 kernels require operand tiles aligned to 16 elements
#: (128-bit vectors), so each channel-group submatrix is padded up to this.
TENSOR_CORE_ALIGNMENT = 16
#: Per-row INT8 pays a slightly costlier epilogue than per-tensor (the rescale
#: reads a scale vector instead of a scalar).
PER_ROW_EPILOGUE_FACTOR = 1.02
#: One trace emit — clock read, attribute dict, ring/list append — microseconds.
TRACE_EVENT_COST_US = 1.0
#: One evaluated ``tracer is not None`` guard on the disabled path, nanoseconds.
TRACE_GUARD_COST_NS = 30.0

#: ``{scheme: value}`` and ``{scheme: {field: value}}``, keyed like Figure 12.
SchemeValues = Dict[str, float]
SchemeTable = Dict[str, Dict[str, float]]


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ConfigurationError(message)


def _check_gemm(m: int, k: int, n: int) -> None:
    # not _require: every roofline call passes here, the message is built on failure only
    if not all(isinstance(dim, Integral) and dim >= 1 for dim in (m, k, n)):
        raise ConfigurationError(f"GEMM dimensions must be integers >= 1, got m={m}, k={k}, n={n}")


@dataclass
class GemmLatency:
    """Latency of one scheme on one GEMM."""

    scheme: str
    milliseconds: float
    normalized_to_fp16: float = 0.0


def _roofline_ms(
    m: int,
    k: int,
    n: int,
    device: GPUSpec,
    precision: str,
    num_kernels: int = 1,
    extra_bytes: int = 0,
) -> float:
    """Roofline latency (ms) of a GEMM at the given precision."""
    _check_gemm(m, k, n)
    macs = m * k * n
    flops = 2.0 * macs
    if precision == "fp16":
        peak = device.fp16_tflops * 1e12
        bytes_per_element = 2
    elif precision == "int8":
        peak = device.int8_tops * 1e12
        bytes_per_element = 1
    elif precision == "fp32":
        peak = device.fp16_tflops * 1e12 / 2.0
        bytes_per_element = 4
    else:
        raise ConfigurationError(f"unknown precision {precision!r}")
    # Underutilization: small GEMMs reach roughly half of peak throughput.
    utilization = min(1.0, 0.5 + 0.5 * (flops / 1e9) / device.saturation_gflop)
    compute_s = flops / (peak * utilization)
    data_bytes = (m * k + k * n + m * n) * bytes_per_element + extra_bytes
    memory_s = data_bytes / (device.memory_bandwidth_gbps * 1e9)
    launch_s = num_kernels * device.kernel_launch_us * 1e-6
    return (max(compute_s, memory_s) + launch_s) * 1e3


def fp16_latency_ms(m: int, k: int, n: int, device: GPUSpec) -> float:
    """Baseline FP16 GEMM latency."""
    return _roofline_ms(m, k, n, device, "fp16")


def int8_latency_ms(m: int, k: int, n: int, device: GPUSpec) -> float:
    """Per-tensor / per-row INT8 GEMM latency (single kernel + epilogue)."""
    epilogue_bytes = m * n * 4  # INT32 accumulators rescaled in the epilogue
    return _roofline_ms(m, k, n, device, "int8", extra_bytes=epilogue_bytes)


def per_channel_latency_ms(m: int, k: int, n: int, device: GPUSpec) -> float:
    """Per-channel INT8 activation quantization.

    Each element needs its own scale during the reduction, which tensor cores
    cannot do; the practical realisation dequantizes the activation to FP16
    and runs the FP16 GEMM, paying an extra elementwise pass over the operand.
    """
    dequant_bytes = m * k * 3  # read int8, write fp16
    return _roofline_ms(m, k, n, device, "fp16", num_kernels=2, extra_bytes=dequant_bytes)


def tender_software_latency_ms(m: int, k: int, n: int, device: GPUSpec, num_groups: int = 8) -> float:
    """Tender implemented in software on a GPU (no hardware rescaler).

    The activation is split into ``num_groups`` column groups; each group runs
    its own INT8 GEMM (padded to the tensor-core alignment), and the partial
    results are dequantized and accumulated in FP32 — the explicit
    requantization path of Figure 5(a).
    """
    num_groups = require_count("num_groups", num_groups, 1)
    _check_gemm(m, k, n)  # here as well: the per-group padding below would price k = 0 as 16
    remaining, total_ms = 1.0, 0.0
    for group in range(num_groups):
        # Channel groups are heavily skewed: each outlier group is a tiny share
        # of what is left and the final (normal-value) group holds the rest.
        fraction = remaining * 0.15 if group < num_groups - 1 else remaining
        remaining -= fraction
        group_k = max(int(round(k * fraction)), 1)
        padded_k = ceil(group_k / TENSOR_CORE_ALIGNMENT) * TENSOR_CORE_ALIGNMENT
        accumulate_bytes = m * n * 8  # read + write the FP32 accumulator
        total_ms += _roofline_ms(m, padded_k, n, device, "int8", extra_bytes=accumulate_bytes)
    return total_ms


def _scheme_latencies_ms(m: int, k: int, n: int, device: GPUSpec, num_groups: int) -> SchemeValues:
    """Latency of every Figure 12 scheme on one GEMM (the shared scheme table)."""
    int8 = int8_latency_ms(m, k, n, device)
    return {
        "FP16": fp16_latency_ms(m, k, n, device),
        "INT8 (per-tensor)": int8,
        "INT8 (per-row)": int8 * PER_ROW_EPILOGUE_FACTOR,
        "INT8 (per-channel)": per_channel_latency_ms(m, k, n, device),
        "Tender SW": tender_software_latency_ms(m, k, n, device, num_groups),
    }


def figure12_latencies(
    m: int, k: int, n: int, device_name: str, num_groups: int = 8
) -> Dict[str, GemmLatency]:
    """All Figure 12 schemes on one GEMM, normalized to FP16."""
    totals = _scheme_latencies_ms(m, k, n, get_gpu(device_name), num_groups)
    fp16 = totals["FP16"]
    return {
        scheme: GemmLatency(scheme=scheme, milliseconds=value, normalized_to_fp16=value / fp16)
        for scheme, value in totals.items()
    }


# ----------------------------------------------------------------------
# One priced forward
# ----------------------------------------------------------------------
def forward_ms(
    shape: ModelShape, rows: int, context: int, device_name: str, num_groups: int = 8
) -> SchemeValues:
    """Per-scheme latency (ms) of one forward: ``rows`` token rows attending ``context``.

    The one place a forward is priced.  A decode step is ``rows = batch``; a
    prefill chunk ``rows = tokens`` against the prompt so far; a speculative
    verify ``rows = batch x (k + 1)``; a recovery replay ``rows = batch x
    recomputed tokens`` — every scenario below is a closed form over calls
    to this function.  Serving GEMMs are skinny — a decode step's row
    dimension is the *batch size* — which is where per-kernel overheads
    dominate, and why Tender's software fallback (one GEMM per channel
    group) is disproportionately expensive during serving.
    """
    device = get_gpu(device_name)
    layer, head = [], []  # (m, k, n) per kernel launch
    for site, m, k, n, count in shape.gemms(rows, context):
        if site.startswith("attention"):
            m, count = m * count, 1  # every head in one batched kernel; Q, K and V stay three
        (head if site == "lm_head" else layer).extend([(m, k, n)] * count)
    gemms = layer * shape.num_layers + head
    priced = {gemm: _scheme_latencies_ms(*gemm, device, num_groups) for gemm in set(gemms)}
    # Summed GEMM by GEMM in execution order.  Float addition does not
    # associate: multiplying a layer's sum by ``num_layers``, or adding the LM
    # head first, changes the last bits BENCH_serving.json commits.
    totals = dict.fromkeys(priced[gemms[0]], 0.0)
    for gemm in gemms:
        for scheme, milliseconds in priced[gemm].items():
            totals[scheme] += milliseconds
    return totals


def _uncached_tokens(tokens: int, hit_rate: float) -> int:
    """Tokens of a replayed context the prefix cache cannot serve (at least the final one)."""
    return max(1, int(round(tokens * (1.0 - hit_rate))))


# ----------------------------------------------------------------------
# Serving scenarios: closed forms over priced forwards
# ----------------------------------------------------------------------
def batching_occupancy(*, max_batch: int, offered_load: float = 1.0) -> Dict[str, float]:
    """Useful slots per decode step under continuous and static (gang) batching.

    Requests arrive as a Poisson process, each generating a geometrically
    distributed (memoryless) number of tokens, into a batch of ``max_batch``
    slots.  **Continuous**: a finished request's slot is backfilled
    immediately, so under saturation every step carries ``max_batch`` useful
    tokens.  **Static**: the gang is admitted together and drains together,
    so its step count is the *maximum* of its members' lengths.  The expected
    maximum of ``B`` memoryless draws of mean ``L`` is ``L * H(B)`` (the
    ``B``-th harmonic number) while the useful work is ``B * L`` token-slots:
    an expected occupancy of only ``B / H(B)`` slots per step.  The speedup
    of continuous over static under saturation is therefore exactly
    ``H(max_batch)`` — independent of the mean length, of the model, the
    scheme and the device, because both disciplines run the same per-step
    GEMMs — and under light load both serve the offered tokens and it
    collapses toward 1.

    Parameters
    ----------
    max_batch : int
        Slot count of the serving batch.
    offered_load : float
        Offered token demand as a fraction of the full-batch decode capacity;
        ``>= 1`` means saturation (the default).

    Returns
    -------
    dict
        ``{"continuous", "static", "speedup"}``.
    """
    _require(max_batch >= 1, f"max_batch must be >= 1, got {max_batch}")
    _require(offered_load > 0.0, f"offered_load must be > 0, got {offered_load}")
    harmonic = sum(1.0 / i for i in range(1, max_batch + 1))
    continuous = max_batch * min(1.0, offered_load)
    static = min(max_batch / harmonic, max_batch * offered_load)
    return {"continuous": continuous, "static": static, "speedup": continuous / static}


def continuous_batching(
    *, shape: ModelShape, device_name: str, max_batch: int, context: int, offered_load: float = 1.0,
    num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Serving throughput per scheme under continuous vs static batching.

    Both disciplines pay the same full-batch decode step at a representative
    attended ``context`` (a gang step still runs ``max_batch`` GEMM rows —
    the finished lanes are dead weight, which is exactly the inefficiency
    continuous batching removes), so only :func:`batching_occupancy` differs.

    Returns
    -------
    dict
        ``{scheme: {"continuous_tokens_per_s", "static_tokens_per_s",
        "speedup"}}`` — the speedup is scheme-independent by construction.
    """
    slots = batching_occupancy(max_batch=max_batch, offered_load=offered_load)
    step = forward_ms(shape, max_batch, context, device_name, num_groups)
    return {
        scheme: {
            "continuous_tokens_per_s": slots["continuous"] / (step_ms * 1e-3),
            "static_tokens_per_s": slots["static"] / (step_ms * 1e-3),
            "speedup": slots["speedup"],
        }
        for scheme, step_ms in step.items()
    }


def prefix_caching(
    *, shape: ModelShape, device_name: str, prompt_tokens: int, mean_new_tokens: float, hit_rate: float,
    batch: int = 1, num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Request throughput per scheme with and without prefix caching.

    Models ``repro.serve.Scheduler`` with ``prefix_cache=True``: a fraction
    ``hit_rate`` of each request's ``prompt_tokens`` is served straight from
    previously published KV blocks, so only the remaining suffix (at least
    the final token) pays prefill GEMMs.  One request costs the prefill of
    its uncached suffix plus its ``1 / batch`` share of ``mean_new_tokens``
    batched decode steps.  Decode work is unchanged — every generated token
    still runs its skinny per-step GEMMs — which is why the speedup
    saturates at ``(prefill + decode) / decode`` as the hit rate approaches
    1, and why prefix caching compounds with (rather than replaces)
    continuous batching.  ``hit_rate = 0.8`` is the benchmark's
    shared-template trace.

    Returns
    -------
    dict
        ``{scheme: {"cold_tokens_per_s", "cached_tokens_per_s",
        "speedup"}}`` — generated tokens per second per request stream.
    """
    _require(prompt_tokens >= 2, f"prompt_tokens must be >= 2 (the last always runs), got {prompt_tokens}")
    _require(mean_new_tokens >= 1.0, f"mean_new_tokens must be >= 1, got {mean_new_tokens}")
    _require(0.0 <= hit_rate <= 1.0, f"hit_rate must lie in [0, 1], got {hit_rate}")
    _require(batch >= 1, f"batch must be >= 1, got {batch}")
    decode = forward_ms(shape, batch, prompt_tokens + int(mean_new_tokens), device_name, num_groups)

    def request_ms(rate: float) -> SchemeValues:
        suffix = _uncached_tokens(prompt_tokens, rate)
        prefill = forward_ms(shape, suffix, prompt_tokens, device_name, num_groups)
        return {scheme: prefill[scheme] + mean_new_tokens * decode[scheme] / batch for scheme in decode}

    cold, warm = request_ms(0.0), request_ms(hit_rate)
    return {
        scheme: {
            "cold_tokens_per_s": mean_new_tokens / (cold[scheme] * 1e-3),
            "cached_tokens_per_s": mean_new_tokens / (warm[scheme] * 1e-3),
            "speedup": cold[scheme] / warm[scheme],
        }
        for scheme in cold
    }


def speculation(
    *, shape: ModelShape, device_name: str, draft_tokens: int, accept_rate: float, context: int,
    batch: int = 1, draft_cost_ratio: float = 0.0, num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Decode throughput per scheme with and without draft-and-verify speculation.

    Models ``repro.serve.Scheduler`` with ``speculation=SpecConfig(...)``:
    each iteration verifies ``draft_tokens`` speculated continuations per
    sequence in one multi-token forward instead of one forward per token.
    With a per-position acceptance probability ``accept_rate`` (i.i.d.) the
    expected committed tokens per verify are

    ``E[m] = (1 - p^(k+1)) / (1 - p)``  (``k + 1`` at ``p = 1``),

    the accepted run plus the bonus token.  The verify forward prices the
    same per-layer GEMMs as a decode step with ``batch x (k + 1)`` rows —
    exactly how :meth:`repro.models.inference.TransformerRunner.verify`
    executes — so the speedup is ``E[m]`` discounted by how much wider the
    verify GEMMs are and by the drafting itself: ``draft_cost_ratio`` of one
    baseline decode step per proposed token (``0`` = free drafting, which
    matches ``PromptLookupDraft``; ``0.25`` a quarter-depth ``ModelDraft``).

    Returns
    -------
    dict
        ``{scheme: {"baseline_tokens_per_s", "speculative_tokens_per_s",
        "speedup", "expected_tokens_per_step"}}`` — speedup above 1 when the
        expected run outweighs the wider verify forward plus drafting.
    """
    _require(draft_tokens >= 1, f"draft_tokens must be >= 1, got {draft_tokens}")
    _require(0.0 <= accept_rate <= 1.0, f"accept_rate must lie in [0, 1], got {accept_rate}")
    _require(draft_cost_ratio >= 0.0, f"draft_cost_ratio must be >= 0, got {draft_cost_ratio}")
    if accept_rate >= 1.0:
        expected = float(draft_tokens + 1)
    else:
        expected = (1.0 - accept_rate ** (draft_tokens + 1)) / (1.0 - accept_rate)
    decode = forward_ms(shape, batch, context, device_name, num_groups)
    verify = forward_ms(shape, batch * (draft_tokens + 1), context + draft_tokens, device_name, num_groups)
    table: SchemeTable = {}
    for scheme, decode_ms in decode.items():
        # Everything in milliseconds, converted once per throughput: the same
        # ratio taken over seconds differs in the last bit on half of all inputs.
        step_ms = verify[scheme] + draft_tokens * draft_cost_ratio * decode_ms
        table[scheme] = {
            "baseline_tokens_per_s": batch / (decode_ms * 1e-3),
            "speculative_tokens_per_s": batch * expected / (step_ms * 1e-3),
            "speedup": expected * decode_ms / step_ms,
            "expected_tokens_per_step": expected,
        }
    return table


def paged_attention_gather(
    *, shape: ModelShape, device_name: str, batch: int, context: int, kv_bytes_per_element: int = 2,
    num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Decode throughput per scheme with gathered vs in-place paged KV.

    Models the two serving realisations in ``repro.serve``: the *gather*
    reference fancy-indexes every slot's KV blocks into a dense per-view
    copy before the attention matmuls, while the *fused* path
    (:func:`repro.core.kernels.paged_attention`) multiplies strided views of
    consecutive-block runs straight out of the pool and moves no KV bytes at
    all.  Each layer's copy is one read of the blocks plus one write of the
    copy, for K and for V, each ``batch x heads x context x d_head``
    elements of ``kv_bytes_per_element`` (2 for FP16 serving) — exactly the
    traffic ``PagedKVCache.gather_bytes`` tallies, doubled for the read.
    The attention GEMMs themselves are identical, so the speedup is pure
    memory traffic, paid *per generated token*: like the KV-cache read
    itself it grows linearly with context while the projections stay fixed.

    Returns
    -------
    dict
        ``{scheme: {"gather_tokens_per_s", "fused_tokens_per_s",
        "speedup", "gather_bytes_per_step"}}``.
    """
    _require(kv_bytes_per_element >= 1, f"kv_bytes_per_element must be >= 1, got {kv_bytes_per_element}")
    step = forward_ms(shape, batch, context, device_name, num_groups)
    dense = batch * shape.num_heads * context * shape.d_head * kv_bytes_per_element
    gather_bytes = shape.num_layers * 2 * 2 * dense  # K and V, read + write
    gather_ms = gather_bytes / (get_gpu(device_name).memory_bandwidth_gbps * 1e9) * 1e3
    table: SchemeTable = {}
    for scheme, fused_ms in step.items():
        fused_s, gather_s = fused_ms * 1e-3, (fused_ms + gather_ms) * 1e-3
        table[scheme] = {
            "gather_tokens_per_s": batch / gather_s,
            "fused_tokens_per_s": batch / fused_s,
            "speedup": gather_s / fused_s,
            "gather_bytes_per_step": float(gather_bytes),
        }
    return table


def preemption(
    *, shape: ModelShape, device_name: str, victim_context: int, resume_hit_rate: float,
    high_prompt_tokens: int, expected_wait_steps: float, batch: int = 1, num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Price both sides of a priority-preemption decision, per scheme.

    Models the choice ``repro.serve.Scheduler`` (``preemption=True``) faces
    when an urgent request of ``high_prompt_tokens`` arrives into a full
    batch of ``batch`` rows.  Either it **waits** for a slot to drain (its
    TTFT absorbs ``expected_wait_steps`` batched decode steps — for a
    drain-limited batch, roughly the victims' mean remaining tokens — before
    its own prefill), or the scheduler **preempts** a low-priority victim:
    the urgent TTFT collapses to its own prefill, at the cost of
    re-prefilling the victim's uncached context when it resumes.  Because
    preemption frees blocks to the LRU free-list where published prefixes
    stay matchable, the resume usually re-maps most of the victim's
    ``victim_context`` committed tokens (``resume_hit_rate``; ``0`` is the
    no-prefix-cache case) instead of recomputing them — which is what makes
    preemption cheap enough to win.

    Returns
    -------
    dict
        ``{scheme: {"wait_ttft_ms", "preempt_ttft_ms", "ttft_speedup",
        "recompute_ms", "recompute_overhead_ratio", "worthwhile"}}`` —
        ``recompute_overhead_ratio`` divides the victim's resume recompute
        by the urgent wait it saved; ``worthwhile`` (1.0 / 0.0) is that
        ratio falling below one, i.e. the preemption bought more urgent
        latency than it spent in aggregate throughput.
    """
    _require(victim_context >= 1, f"victim_context must be >= 1, got {victim_context}")
    _require(0.0 <= resume_hit_rate <= 1.0, f"resume_hit_rate must lie in [0, 1], got {resume_hit_rate}")
    _require(high_prompt_tokens >= 1, f"high_prompt_tokens must be >= 1, got {high_prompt_tokens}")
    _require(expected_wait_steps >= 0.0, f"expected_wait_steps must be >= 0, got {expected_wait_steps}")
    _require(batch >= 1, f"batch must be >= 1, got {batch}")
    step = forward_ms(shape, batch, victim_context, device_name, num_groups)
    prefill = forward_ms(shape, high_prompt_tokens, high_prompt_tokens, device_name, num_groups)
    recompute = forward_ms(
        shape, _uncached_tokens(victim_context, resume_hit_rate), victim_context, device_name, num_groups
    )
    table: SchemeTable = {}
    for scheme, preempt_ms in prefill.items():
        wait_ms = expected_wait_steps * step[scheme] + preempt_ms
        saved = wait_ms - preempt_ms
        ratio = recompute[scheme] / saved if saved > 0.0 else float("inf")
        table[scheme] = {
            "wait_ttft_ms": wait_ms,
            "preempt_ttft_ms": preempt_ms,
            "ttft_speedup": wait_ms / preempt_ms,
            "recompute_ms": recompute[scheme],
            "recompute_overhead_ratio": ratio,
            "worthwhile": 1.0 if ratio < 1.0 else 0.0,
        }
    return table


def sharded_serving(
    *, shape: ModelShape, device_name: str, batch: int, context: int, num_shards: int = 1,
    num_replicas: int = 1, link_latency_us: float = 5.0, link_bandwidth_gb_s: float = 100.0,
    failure_rate: float = 0.0, resume_hit_rate: float = 0.0, retry_backoff_steps: float = 0.0,
    num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Sharding speedup and goodput under failures of a pool of shard groups.

    Models ``repro.serve.shard.ShardedRunner`` inside
    ``repro.serve.cluster.ReplicaPool``.  **Sharding.**  Every projection's
    output columns (and the attention heads) split across ``num_shards``
    workers, so per-step compute divides by the shard count, but the shards
    meet at explicit all-gathers — six per layer (K, V, attention context,
    attention output, FC1 hidden, FC2 output: the simulated runner's meet
    points exactly, each ``rows x width`` FP16 activations on the wire) plus
    the LM-head logits gather, each a ring collective over the inter-shard
    link: ``sharded_step = solo_step / S + comm``.  **Failures.**  A replica
    — a whole shard group: any shard's death fails it — dies with
    probability ``1 - (1 - failure_rate)^S`` per decode step; every
    in-flight request is checkpointed and re-admitted, re-prefilling the
    fraction of its ``context`` the prefix cache cannot re-serve (``1 -
    resume_hit_rate``; sticky-template routing pushes the hit rate up) on a
    rebuilt group, itself sharded and paying collectives on the replay rows,
    and sitting out ``retry_backoff_steps`` steps of backoff.  Recovery is
    amortized into the step: ``effective = step + group_rate * (recovery +
    backoff_steps * step)``, and goodput is the healthy step over the
    effective one.  A replica pool of solo runners is the ``num_shards = 1``
    case (no collectives, ``failure_rate`` per replica); tensor parallelism
    alone is ``num_replicas = 1``.  The questions it answers: at what model
    size, batch and link quality sharding pays, at what failure rate
    recovery recompute starts to dominate, and how much of it prefix-hit
    recovery buys back.

    Parameters
    ----------
    batch, context : int
        Active decode rows per replica, and mean committed tokens per row
        (KV length, and the upper bound on per-request recompute).
    num_shards, num_replicas : int
        Tensor-parallel width of one replica, and replicas in the pool
        (``tokens_per_s`` is fleet-wide; nothing else reads the pool size).
    link_latency_us, link_bandwidth_gb_s : float
        Per-hop launch latency of one collective message and the link
        bandwidth (NVLink-ish defaults).
    failure_rate : float
        Per-decode-step probability that a given shard dies.
    resume_hit_rate, retry_backoff_steps : float
        Fraction of a replay served from prefix-cache hits, and mean decode
        steps a recovered request waits out before re-admission.

    Returns
    -------
    dict
        ``{scheme: {"solo_step_ms", "sharded_step_ms", "comm_ms", "speedup",
        "recovery_ms", "effective_step_ms", "goodput_ratio",
        "fault_free_tokens_per_s", "tokens_per_s"}}`` — ``goodput_ratio`` is
        the fraction of fault-free throughput kept (1.0 at ``failure_rate =
        0``).
    """
    _require(num_shards >= 1, f"num_shards must be >= 1, got {num_shards}")
    heads = shape.num_heads
    _require(num_shards <= heads, f"num_shards must not exceed num_heads, got {num_shards} > {heads}")
    _require(num_replicas >= 1, f"num_replicas must be >= 1, got {num_replicas}")
    _require(
        link_latency_us >= 0.0 and link_bandwidth_gb_s > 0.0,
        f"link latency/bandwidth must be sane, got {link_latency_us} us, {link_bandwidth_gb_s} GB/s",
    )
    _require(0.0 <= failure_rate < 1.0, f"failure_rate must lie in [0, 1), got {failure_rate}")
    _require(0.0 <= resume_hit_rate <= 1.0, f"resume_hit_rate must lie in [0, 1], got {resume_hit_rate}")
    _require(retry_backoff_steps >= 0.0, f"retry_backoff_steps must be >= 0, got {retry_backoff_steps}")
    solo = forward_ms(shape, batch, context, device_name, num_groups)
    replay_rows = batch * _uncached_tokens(context, resume_hit_rate)
    replay = forward_ms(shape, replay_rows, context, device_name, num_groups)

    def all_gather_ms(width: int, rows: int) -> float:
        """Ring all-gather of ``rows`` FP16 activation rows of ``width`` columns (0.0 at one shard)."""
        hops = num_shards - 1
        wire_bytes = rows * (width * 2.0) * hops / num_shards
        return hops * link_latency_us * 1e-3 + wire_bytes / (link_bandwidth_gb_s * 1e6)

    def comm_ms(rows: int) -> float:
        total = shape.num_layers * (5 * all_gather_ms(shape.d_model, rows) + all_gather_ms(shape.d_ff, rows))
        if shape.vocab:
            total += all_gather_ms(shape.vocab, batch)  # logits: the sampled rows only
        return total

    step_comm, replay_comm = comm_ms(batch), comm_ms(replay_rows)
    # The one-shard rate is the rate itself: 1.0 - (1.0 - r) ** 1 != r in
    # floating point (0.2, 0.002, 1 / 54, ...), which would move the last digit
    # of every goodput BENCH_serving.json commits for a pool of solo replicas.
    group_rate = failure_rate if num_shards == 1 else 1.0 - (1.0 - failure_rate) ** num_shards
    table: SchemeTable = {}
    for scheme, solo_ms in solo.items():
        sharded_ms = solo_ms / num_shards + step_comm
        recovery_ms = replay[scheme] / num_shards + replay_comm
        effective_ms = sharded_ms + group_rate * (recovery_ms + retry_backoff_steps * sharded_ms)
        table[scheme] = {
            "solo_step_ms": solo_ms,
            "sharded_step_ms": sharded_ms,
            "comm_ms": step_comm,
            "speedup": solo_ms / sharded_ms,
            "recovery_ms": recovery_ms,
            "effective_step_ms": effective_ms,
            "goodput_ratio": sharded_ms / effective_ms,
            "fault_free_tokens_per_s": num_replicas * batch / (sharded_ms * 1e-3),
            "tokens_per_s": num_replicas * batch / (effective_ms * 1e-3),
        }
    return table


def tracing_overhead(
    *, shape: ModelShape, device_name: str, events_per_step: float, guard_sites_per_step: float = 8.0,
    batch: int = 1, context: int = 256, num_groups: int = 8,
) -> SchemeTable:  # fmt: skip
    """Relative cost of request-lifecycle tracing on a decode step, per scheme.

    Models the two prices ``repro.obs.Tracer`` can charge a
    ``repro.serve.Scheduler`` decode step.  **Enabled**, every emit site
    pays :data:`TRACE_EVENT_COST_US`, ``events_per_step`` sites firing per
    batched step (the decode span's begin/end pair — endpoints count
    separately — plus the cache, speculation and lifecycle instants that
    step triggers).  **Disabled** (``tracer=None``), the only residue is the
    branch itself: each of ``guard_sites_per_step`` instrumented sites still
    evaluates one ``is not None`` guard (:data:`TRACE_GUARD_COST_NS`), the
    cost the perf-smoke gate bounds.  Both are fixed per-step taxes, so
    their *relative* overhead shrinks as the underlying GEMMs grow — the
    model answers where tracing is free (big models) and where it bites
    (tiny steps, exactly the regime the correctness suites run in).

    Returns
    -------
    dict
        ``{scheme: {"step_ms", "enabled_overhead_ms", "enabled_step_ms",
        "enabled_overhead_ratio", "disabled_overhead_ms",
        "disabled_overhead_ratio", "tokens_per_s",
        "enabled_tokens_per_s"}}``.
    """
    _require(events_per_step >= 0.0, f"events_per_step must be >= 0, got {events_per_step}")
    _require(guard_sites_per_step >= 0.0, f"guard_sites_per_step must be >= 0, got {guard_sites_per_step}")
    step = forward_ms(shape, batch, context, device_name, num_groups)
    enabled_tax = events_per_step * TRACE_EVENT_COST_US * 1e-3
    disabled_tax = guard_sites_per_step * TRACE_GUARD_COST_NS * 1e-6
    return {
        scheme: {
            "step_ms": step_ms,
            "enabled_overhead_ms": enabled_tax,
            "enabled_step_ms": step_ms + enabled_tax,
            "enabled_overhead_ratio": enabled_tax / step_ms,
            "disabled_overhead_ms": disabled_tax,
            "disabled_overhead_ratio": disabled_tax / step_ms,
            "tokens_per_s": batch / (step_ms * 1e-3),
            "enabled_tokens_per_s": batch / ((step_ms + enabled_tax) * 1e-3),
        }
        for scheme, step_ms in step.items()
    }
