"""Serving layer: KV-cached decoding, continuous batching, and generation.

This package opens the workload the paper's accelerator actually targets —
autoregressive decoding, where every step re-runs the activation-activation
matmuls against a growing KV history — on top of the executor-based
inference engine, so every quantization scheme in the repository can be
served and measured in the decode regime.

Three layers, bottom up:

* :class:`PagedKVCache` — block-allocated per-slot key/value storage
  (reference-counted, with prefix-block identity, copy-on-write, and an LRU
  free-list for cross-request KV reuse), handed to a runner as a
  :class:`SlotBatchView` over the slots of one forward;
* :class:`Scheduler` — the continuous-batching serving loop (FIFO
  admission, chunked prefill interleaved with decode, shared-prompt prefix
  caching, speculative draft-and-verify decoding, mid-flight eviction);
* :func:`generate` — the fixed-batch policy over the scheduler, returning
  one :class:`RequestOutput` per prompt;
* :class:`AsyncEngine` — the asyncio streaming frontend: per-token
  :class:`RequestStream` iterators, bounded-queue admission control with
  backpressure, priority classes with deadlines, and free-then-replay
  preemption whose resumed outputs stay bit-identical;
* :class:`ReplicaPool` (:mod:`repro.serve.cluster`) — N fault-isolated
  scheduler replicas behind a prefix-cache-aware sticky :class:`Router`,
  with seeded chaos injection (:class:`FaultInjector`), checkpoint/replay
  recovery (:class:`RequestCheckpoint`), a circuit breaker + zero-progress
  watchdog, and graceful ``"degraded"`` shedding under memory pressure;
* :class:`ShardedRunner` (:mod:`repro.serve.shard`) — column-parallel
  tensor sharding behind the ``TransformerRunner`` surface, meeting at
  checksummed, retrying :class:`CollectiveGroup` collectives
  (:mod:`repro.serve.collective`) with seeded message chaos
  (:class:`CollectiveFaultInjector`); a replica of the pool may be a whole
  shard group, recovered as one fault unit.  Both chaos layers draw from
  one seeded schedule (:mod:`repro.serve.faults`): the two injectors only
  name their fault kinds.

Speculative decoding (:mod:`repro.serve.spec`) plugs a
:class:`DraftProposer` — :class:`PromptLookupDraft` n-gram lookup or a
:class:`ModelDraft` small-model drafter — into the scheduler via
``Scheduler(speculation=SpecConfig(...))``; greedy outputs stay
bit-identical to non-speculative decoding for Tender implicit/explicit
while k sequential decode forwards collapse into one verification forward.

The pool's invariant oracle is :mod:`repro.serve.stress`:
:func:`check_pool_invariants` audits refcounts, the free structures, the
radix index and the table version, raising :class:`InvariantViolation`, and
``LruReferencePool`` is the retired one-list eviction policy.  The
randomized schedules that drive them are a ``hypothesis`` state machine
outside the package (``tools/stress_machine.py``).
"""

from repro.serve.async_engine import AsyncEngine, RequestStream, serve_all
from repro.serve.cluster import ClusterStats, ReplicaPool, Router
from repro.serve.collective import CollectiveGroup, CollectiveStats
from repro.serve.engine import generate
from repro.serve.faults import CollectiveFaultInjector, FaultInjector
from repro.serve.paged_kv_cache import PagedKVCache, SlotBatchView
from repro.serve.request import GenerationConfig, Request, RequestCheckpoint, RequestOutput
from repro.serve.scheduler import Scheduler
from repro.serve.shard import ShardedRunner
from repro.serve.spec import DraftProposer, ModelDraft, PromptLookupDraft, SpecConfig
from repro.serve.stats import SchedulerStats
from repro.serve.stress import InvariantViolation, check_pool_invariants

__all__ = [
    "AsyncEngine",
    "ClusterStats",
    "CollectiveFaultInjector",
    "CollectiveGroup",
    "CollectiveStats",
    "FaultInjector",
    "PagedKVCache",
    "ReplicaPool",
    "RequestStream",
    "Router",
    "SlotBatchView",
    "DraftProposer",
    "serve_all",
    "GenerationConfig",
    "InvariantViolation",
    "ModelDraft",
    "PromptLookupDraft",
    "Request",
    "RequestCheckpoint",
    "RequestOutput",
    "Scheduler",
    "SchedulerStats",
    "ShardedRunner",
    "SpecConfig",
    "check_pool_invariants",
    "generate",
]
