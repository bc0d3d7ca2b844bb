"""Analytical GPU latency models: Figure 12 GEMMs, one priced forward, serving.

``figure12_latencies`` reproduces the paper's Figure 12 over the four
per-scheme GEMM prices.  :func:`forward_ms` extends the same roofline to every
GEMM of one forward of a :class:`~repro.models.ModelShape` — a decode step, a
prefill chunk, a verify forward and a recovery replay differ only in ``(rows,
context)``.  Each serving scenario is one closed form over priced forwards:
:func:`continuous_batching` / :func:`batching_occupancy`,
:func:`prefix_caching`, :func:`speculation`, :func:`paged_attention_gather`,
:func:`preemption`, :func:`sharded_serving` (replica-pool fault tolerance is
its one-shard case) and :func:`tracing_overhead`.
"""

from repro.gpu.devices import GPU_SPECS, GPUSpec, get_gpu
from repro.gpu.latency import (
    GemmLatency,
    batching_occupancy,
    continuous_batching,
    figure12_latencies,
    forward_ms,
    fp16_latency_ms,
    int8_latency_ms,
    paged_attention_gather,
    per_channel_latency_ms,
    preemption,
    prefix_caching,
    sharded_serving,
    speculation,
    tender_software_latency_ms,
    tracing_overhead,
)

__all__ = [
    "GPUSpec",
    "GPU_SPECS",
    "get_gpu",
    "GemmLatency",
    "fp16_latency_ms",
    "int8_latency_ms",
    "per_channel_latency_ms",
    "tender_software_latency_ms",
    "figure12_latencies",
    "forward_ms",
    "batching_occupancy",
    "continuous_batching",
    "prefix_caching",
    "speculation",
    "paged_attention_gather",
    "preemption",
    "sharded_serving",
    "tracing_overhead",
]
