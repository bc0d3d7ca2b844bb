"""Fault-tolerant replica-pool serving: routing, chaos, recovery, degradation.

PR 7's free-then-replay preemption proved that an in-flight request can be
torn down and resumed *bit-identically* — re-prefill
``prompt + generated[:-1]`` over prefix-cache hits, keep the final sampled
token pending, never re-sample.  This module promotes that mechanism from a
scheduling policy into the repo's **recovery primitive** and scales serving
past one engine:

* :class:`ReplicaPool` — N independent
  :class:`~repro.serve.scheduler.Scheduler` engines stepped in lockstep
  behind one submission surface with pool-level request ids.
* :class:`Router` — prefix-cache-aware *sticky-template* placement: the
  leading prompt block is hashed and rendezvous-ranked across healthy
  replicas, so requests sharing a template land on the same engine and keep
  their prefix-cache hit rates at fleet scale, while failover to the next
  healthy replica is deterministic.
* :class:`~repro.serve.faults.FaultInjector` — the pool's seeded chaos
  schedule (:mod:`repro.serve.faults`, shared with the collective layer):
  kills replicas mid-iteration (:class:`~repro.errors.ReplicaFailureError`),
  sheds at the admission/reserve site, and stalls a replica's step loop
  for a run of iterations.
* **Request-level recovery** — on replica failure every in-flight request
  is checkpointed as ``(prompt, generated tokens, sampling RNG state)``
  (:class:`~repro.serve.request.RequestCheckpoint`) and re-admitted on a
  healthy replica via the replay path, governed by a per-request retry
  budget with exponential backoff (the backoff is a *future arrival tick*,
  so it is deterministic in scheduler time) and honoring existing admission
  deadlines — a crash never extends a deadline, and a request that already
  started never expires (matching the scheduler's own rule).
* **Circuit breaker + watchdog** — a failed replica is held out of rotation
  and re-probed after a cooldown that doubles with each consecutive failure
  past :data:`BREAKER_THRESHOLD`; a watchdog detects zero-progress
  iterations on a replica with pending work and triggers the same recovery
  path, so a stalled engine is drained exactly like a crashed one.
* **Graceful degradation** — under memory pressure the router sheds the
  lowest-priority waiting request with ``finish_reason="degraded"``
  (:meth:`Scheduler.shed`) instead of crashing the pool, and a request
  whose retry budget is exhausted degrades the same way.

Determinism is load-bearing, exactly as everywhere in ``repro.serve``: the
pool steps replicas in replica-id order, the injector's schedule is a pure
function of its seed, shedding picks victims by ``(priority, request_id)``,
and recovery replays rather than re-samples — so for Tender's integer
pipeline a chaos run's surviving outputs are bit-identical (tokens *and*
committed-position logits) to a fault-free run, which is what
``tools/check_perf_smoke.py`` gates on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ReplicaFailureError, ResourceExhaustedError, require_count
from repro.models.inference import TransformerRunner
from repro.serve.faults import FaultInjector
from repro.serve.request import (
    GenerationConfig,
    Request,
    RequestCheckpoint,
    RequestOutput,
    _as_request,
    _request_output,
)
from repro.serve.scheduler import Scheduler
from repro.serve.stats import Counters, SchedulerStats

#: Consecutive failures a replica's breaker absorbs at the base
#: ``breaker_cooldown``; each consecutive failure past it doubles the cooldown.
BREAKER_THRESHOLD = 2


class Router:
    """Prefix-cache-aware sticky-template placement over healthy replicas.

    The first ``template_window`` prompt tokens — the shared template a
    prefix cache can actually reuse — are hashed, and every replica is
    ranked by the rendezvous weight ``crc32(template_key || replica_id)``.
    The healthy replica with the highest weight wins, which gives the two
    properties fleet-scale prefix caching needs:

    * **Stickiness** — equal templates always land on the same replica
      while it is healthy, so hit rates survive scale-out;
    * **Deterministic failover** — when the winner is unhealthy the
      next-ranked healthy replica takes over (and *only* that template's
      traffic moves), with no rehash storm on recovery.
    """

    def __init__(self, num_replicas: int, template_window: int = 16) -> None:
        self.num_replicas = require_count("num_replicas", num_replicas, 1)
        self.template_window = require_count("template_window", template_window, 1)

    def rank(self, prompt: np.ndarray) -> List[int]:
        """Replica ids in placement-preference order for ``prompt``."""
        key = np.ascontiguousarray(
            np.asarray(prompt, dtype=np.int64)[: self.template_window]
        ).tobytes()
        weights = [
            (zlib.crc32(key + bytes([replica_id % 256])), -replica_id)
            for replica_id in range(self.num_replicas)
        ]
        order = sorted(range(self.num_replicas), key=lambda r: weights[r], reverse=True)
        return order

    def place(self, prompt: np.ndarray, healthy: List[int]) -> int:
        """The sticky choice among ``healthy`` replica ids for ``prompt``.

        Raises
        ------
        ResourceExhaustedError
            If no replica is healthy.
        """
        if not healthy:
            raise ResourceExhaustedError("no healthy replica to route to")
        available = set(healthy)
        for replica_id in self.rank(prompt):
            if replica_id in available:
                return replica_id
        raise ResourceExhaustedError("no healthy replica to route to")


@dataclass
class ClusterStats(Counters):
    """Pool-level accounting of one :class:`ReplicaPool` run."""

    #: Pool iterations executed (each steps every healthy replica once).
    iterations: int = 0
    #: Replica failures handled (kills plus watchdog trips).
    failures: int = 0
    #: Checkpointed requests successfully re-admitted on a healthy replica.
    recoveries: int = 0
    #: Requests shed with ``finish_reason="degraded"`` (memory pressure or
    #: an exhausted retry budget).
    degraded_requests: int = 0
    #: Iterations replicas sat out while stalled or in breaker cooldown.
    stalled_iterations: int = 0
    #: Watchdog trips (zero-progress detections), a subset of ``failures``.
    watchdog_trips: int = 0
    #: Circuit-breaker opens (replica marked unhealthy for a cooldown).
    breaker_opens: int = 0
    #: ``"degraded"`` finishes tallied by structured failure cause
    #: (``"shed"``, ``"retry_budget_exhausted"``, ``"no_healthy_replica"``).
    degraded_causes: Dict[str, int] = field(default_factory=dict)


class _Replica:
    """One pool member: a scheduler plus its health/progress book-keeping."""

    __slots__ = (
        "replica_id",
        "scheduler",
        "alive",
        "healthy",
        "consecutive_failures",
        "cooldown_until",
        "stall_remaining",
        "last_progress",
        "no_progress_steps",
    )

    def __init__(self, replica_id: int, scheduler: Scheduler) -> None:
        self.replica_id = replica_id
        self.scheduler = scheduler
        #: False once the engine object crashed (it must be rebuilt).
        self.alive = True
        #: False while the circuit breaker holds the replica out of rotation.
        self.healthy = True
        self.consecutive_failures = 0
        #: Pool iteration at which an unhealthy replica is re-probed.
        self.cooldown_until = 0
        #: Remaining iterations of an injected stall.
        self.stall_remaining = 0
        #: Progress signature after the last step (watchdog input).
        self.last_progress: Tuple[float, int, int] = (-1.0, -1, -1)
        self.no_progress_steps = 0

    def progress_signature(self) -> Tuple[float, int, int]:
        """A value that must change whenever the replica does useful work."""
        stats = self.scheduler.stats
        return (self.scheduler.now, stats.total_iterations, stats.generated_tokens)


class ReplicaPool:
    """N fault-isolated scheduler replicas behind one submission surface.

    The pool owns pool-level request ids (stable across recoveries — a
    request keeps its id no matter how many replicas it survives), steps
    every healthy replica once per :meth:`step` in replica-id order, and
    runs the whole robustness stack described in the module docstring.

    The pool deliberately mirrors the driving surface of
    :class:`~repro.serve.scheduler.Scheduler` (``submit`` / ``step`` /
    ``run`` / ``cancel`` / ``has_pending`` / ``num_waiting`` / ``stats``),
    so :class:`~repro.serve.async_engine.AsyncEngine` can serve from a pool
    exactly as it serves from a single engine (``AsyncEngine(pool=...)``).

    Parameters
    ----------
    runner : TransformerRunner
        The executor-backed model, shared by every replica (schedulers
        never mutate it; each replica owns a private KV pool).
    num_replicas : int
        Pool size.
    runner_factory : callable, optional
        ``replica_id -> TransformerRunner`` override used whenever a
        replica engine is (re)built.  This is how a replica becomes a
        *shard group*: pass a factory returning a fresh
        :class:`~repro.serve.shard.ShardedRunner` over a fresh
        :class:`~repro.serve.collective.CollectiveGroup`, and a dead shard
        or exhausted collective (both ``ReplicaFailureError`` subclasses)
        trips the whole group through the same checkpoint-and-recover
        sweep as a replica crash — the rebuild then gets a healthy group.
        ``runner`` stays the reference model (config/vocab lookups).
    seed : int
        Seed of the pool's deterministic backoff-jitter stream (see
        ``max_retries``).
    config : GenerationConfig, optional
        Decoding parameters, shared by every replica — recovery replays a
        checkpoint under the *same* sampling rule, which is what keeps it
        bit-identical.
    fault_injector : FaultInjector, optional
        The chaos schedule (``None`` serves fault-free); every scripted
        victim must be a replica id of the pool.
    max_retries : int
        Recovery attempts per request before it degrades.  The first retry
        is re-admitted at once; retry ``k > 1`` waits ``2**(k-1)`` scheduler
        ticks (exponential), scaled by a deterministic jitter factor in
        ``[0.5, 1.5)`` drawn from the pool ``seed`` — simultaneous failures
        de-synchronize instead of retrying in lockstep, while runs stay
        reproducible.
    breaker_cooldown : int
        Pool iterations a failed replica is held out; doubles with each
        consecutive failure past :data:`BREAKER_THRESHOLD`.
    watchdog_patience : int
        Zero-progress iterations (with pending work) before the watchdog
        declares the replica stalled and recovers its requests.
    template_window : int
        Prompt tokens the router hashes for sticky placement.
    prefix_cache : bool
        Forwarded to every replica; on by default here (a bare
        :class:`Scheduler` defaults it off), since sticky routing exists to
        keep prefix-cache hits.
    tracer : repro.obs.Tracer, optional
        Opt-in fleet tracing (see :mod:`repro.obs`).  One shared tracer is
        handed to every replica scheduler (track ``"replica<i>"``, rebuilt
        engines included) while the pool emits failover events —
        ``replica.failed``, ``breaker.open``/``close``, ``replica.rebuilt``,
        ``watchdog.trip``, ``request.recovered``/``degraded`` — onto a
        ``"pool"`` track.  Requests carry their pool id (``"req<id>"``) as
        trace correlation id across replica hops, so one request's whole
        lifecycle is reconstructable from the export even when it migrates.
        If the tracer has a :class:`~repro.obs.FlightRecorder`, the pool
        snapshots the tape whenever a request degrades unrecovered.
    **scheduler_options
        Forwarded to every replica's :class:`Scheduler` unchanged
        (``max_batch_size``, ``block_size``, ``num_blocks``,
        ``record_logits``, ``prefill_chunk``, ``speculation``,
        ``preemption``).  ``record_logits`` makes checkpoints carry the
        recorded logits, so recovery preserves committed-position logits.

    Examples
    --------
    >>> pool = ReplicaPool(runner, num_replicas=3,
    ...                    fault_injector=FaultInjector(seed=0, kill_at={4: 1}))
    >>> pool.submit(prompt)
    0
    >>> outputs = pool.run()
    >>> pool.cluster_stats.recoveries
    2
    """

    def __init__(
        self,
        runner: TransformerRunner,
        num_replicas: int = 2,
        config: Optional[GenerationConfig] = None,
        *,
        runner_factory: Optional[Callable[[int], TransformerRunner]] = None,
        seed: int = 0,
        fault_injector: Optional[FaultInjector] = None,
        max_retries: int = 3,
        breaker_cooldown: int = 4,
        watchdog_patience: int = 3,
        template_window: int = 16,
        prefix_cache: bool = True,
        on_token: Optional[Callable[[int, int], None]] = None,
        tracer=None,
        **scheduler_options,
    ) -> None:
        self.runner = runner
        self.runner_factory = runner_factory
        self.config = config or GenerationConfig()
        self.injector = fault_injector
        #: Deterministic jitter stream for retry backoff (satellite of the
        #: recovery path: lockstep retries re-collide without it).
        self._backoff_rng = np.random.default_rng(seed)
        self.max_retries = require_count("max_retries", max_retries, 0)
        self.breaker_cooldown = require_count("breaker_cooldown", breaker_cooldown, 1)
        self.watchdog_patience = require_count("watchdog_patience", watchdog_patience, 1)
        self.router = Router(num_replicas, template_window=template_window)
        if fault_injector is not None:
            fault_injector.require_victims(self.router.num_replicas)
        self.on_token = on_token
        #: Opt-in request-lifecycle tracing (see :mod:`repro.obs`).  The
        #: pool emits failover events onto a ``"pool"`` track and gives each
        #: replica's scheduler its own ``"replica<i>"`` track; requests are
        #: correlated across replica hops by their pool id (``"req<id>"``).
        self.tracer = tracer
        self._pool_track = "pool"
        self.cluster_stats = ClusterStats()
        self._scheduler_options = dict(scheduler_options, prefix_cache=prefix_cache)
        self.replicas: List[_Replica] = [
            _Replica(replica_id, self._build_scheduler(replica_id))
            for replica_id in range(self.router.num_replicas)
        ]
        #: Pool request id -> (replica_id, local request id).
        self._placements: Dict[int, Tuple[int, int]] = {}
        #: (replica_id, local id) -> pool id (outputs/tokens translate back).
        self._local_to_pool: Dict[Tuple[int, int], int] = {}
        self._next_pool_id = 0
        #: Counters folded in from schedulers discarded by crash rebuilds,
        #: so pool totals never silently lose pre-crash work.
        self._retired_stats = SchedulerStats()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_scheduler(self, replica_id: int) -> Scheduler:
        """A fresh replica engine wired into the pool's token hook.

        With a ``runner_factory`` every (re)build gets a *fresh* runner —
        for shard groups that means a new :class:`CollectiveGroup` with no
        dead shards, which is what makes shard-kill recovery converge.
        """
        runner = (
            self.runner_factory(replica_id)
            if self.runner_factory is not None
            else self.runner
        )
        return Scheduler(
            runner,
            self.config,
            on_token=lambda local_id, token, rid=replica_id: self._route_token(
                rid, local_id, token
            ),
            tracer=self.tracer,
            trace_track=f"replica{replica_id}",
            **self._scheduler_options,
        )

    def _route_token(self, replica_id: int, local_id: int, token: int) -> None:
        """Translate a replica-local token event to the pool id space."""
        if self.on_token is None:
            return
        pool_id = self._local_to_pool.get((replica_id, local_id))
        if pool_id is not None:
            self.on_token(pool_id, token)

    # ------------------------------------------------------------------
    # Submission surface (Scheduler-shaped)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The pool clock: the furthest-ahead live replica's tick."""
        live = [r.scheduler.now for r in self.replicas if r.alive]
        return max(live) if live else 0.0

    @property
    def has_pending(self) -> bool:
        """True while any replica holds waiting, prefilling, or active work."""
        return any(
            replica.alive and replica.scheduler.has_pending for replica in self.replicas
        )

    @property
    def num_waiting(self) -> int:
        """Queued-but-unadmitted requests across the pool."""
        return sum(
            replica.scheduler.num_waiting for replica in self.replicas if replica.alive
        )

    @property
    def stats(self) -> SchedulerStats:
        """Every scheduler's :class:`SchedulerStats` folded into one fresh record.

        The fold (:class:`~repro.serve.stats.Counters`) covers the live
        replicas and the schedulers discarded by crash rebuilds — pre-crash
        work is part of what the trace paid for, so it stays in the totals.
        Per-replica records are :meth:`replica_stats`; the robustness
        accounting is :attr:`cluster_stats`.
        """
        totals = SchedulerStats()
        for stats in (self._retired_stats, *self.replica_stats()):
            totals += stats
        return totals

    def replica_stats(self) -> List[SchedulerStats]:
        """Each replica's :class:`~repro.serve.stats.SchedulerStats`."""
        return [replica.scheduler.stats for replica in self.replicas]

    def healthy_ids(self) -> List[int]:
        """Replica ids currently accepting traffic."""
        return [
            replica.replica_id
            for replica in self.replicas
            if replica.alive and replica.healthy
        ]

    def submit(
        self,
        request: Union[Request, np.ndarray],
        *,
        max_new_tokens: Optional[int] = None,
        arrival_time: float = 0.0,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> int:
        """Route one request to its sticky replica; return its *pool* id.

        The signature mirrors :meth:`Scheduler.submit` so callers (and
        :class:`AsyncEngine`) can treat a pool as a bigger scheduler.
        ``arrival_time`` and ``deadline`` are in scheduler ticks, applied on
        the routed replica's clock.

        Raises
        ------
        ResourceExhaustedError
            If no replica is healthy.
        ConfigurationError
            Anything :meth:`Scheduler.submit` rejects.
        """
        request = _as_request(request, max_new_tokens, arrival_time, priority, deadline)
        replica_id = self.router.place(request.prompt, self.healthy_ids())
        # The pool id is claimed *before* the local submit so the replica's
        # trace events carry the pool-level correlation id from the start.
        pool_id = self._next_pool_id
        local_id = self.replicas[replica_id].scheduler.submit(
            request,
            trace_corr=f"req{pool_id}" if self.tracer is not None else None,
        )
        self._next_pool_id += 1
        self._placements[pool_id] = (replica_id, local_id)
        self._local_to_pool[(replica_id, local_id)] = pool_id
        return pool_id

    def cancel(self, request_id: int) -> RequestOutput:
        """Withdraw a pool request wherever it lives (pool-id output).

        Raises
        ------
        ConfigurationError
            If the pool id is unknown or already finished.
        """
        placement = self._placements.get(int(request_id))
        if placement is None:
            raise ConfigurationError(
                f"request {request_id} is not in flight (already finished, "
                "or never submitted to this pool)"
            )
        replica_id, local_id = placement
        output = self.replicas[replica_id].scheduler.cancel(local_id)
        return self._translate(replica_id, output)

    def expire(self, request_id: int) -> RequestOutput:
        """Expire a pool request through the deadline path (pool-id output).

        Raises
        ------
        ConfigurationError
            If the pool id is unknown or already finished.
        """
        placement = self._placements.get(int(request_id))
        if placement is None:
            raise ConfigurationError(
                f"request {request_id} is not in flight (already finished, "
                "or never submitted to this pool)"
            )
        replica_id, local_id = placement
        output = self.replicas[replica_id].scheduler.expire(local_id)
        return self._translate(replica_id, output)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def step(self) -> List[RequestOutput]:
        """One pool iteration: chaos, recovery, health, then replica steps.

        Per healthy replica, in replica-id order: consult the injector (a
        kill fails the replica before it can step — its in-flight requests
        are checkpointed mid-state; an exhaust sheds under memory pressure;
        a stall makes the step loop skip), step the scheduler, and feed the
        watchdog.  Breaker cooldowns are re-probed first, so a recovered
        replica serves in the same iteration it re-enters rotation.

        Returns
        -------
        list of RequestOutput
            Requests that finished this iteration, with pool-level ids.
        """
        iteration = self.cluster_stats.iterations
        self.cluster_stats.iterations += 1
        finished: List[RequestOutput] = []
        self._reprobe(iteration)
        for replica in self.replicas:
            if not (replica.alive and replica.healthy):
                self.cluster_stats.stalled_iterations += 1
                continue
            action = (
                self.injector.draw(iteration, replica.replica_id)
                if self.injector is not None
                else None
            )
            if action == "kill":
                self._fail_replica(
                    replica,
                    iteration,
                    finished,
                    error=ReplicaFailureError(
                        f"replica {replica.replica_id} chaos-killed at pool "
                        f"iteration {iteration}"
                    ),
                )
                continue
            if action == "exhaust":
                self._shed_lowest_priority(replica, finished)
            if action == "stall":
                replica.stall_remaining = self.injector.stall_steps
            if replica.stall_remaining > 0:
                replica.stall_remaining -= 1
                self.cluster_stats.stalled_iterations += 1
                self._watch(replica, iteration, finished, stepped=False)
                continue
            if not replica.scheduler.has_pending:
                replica.no_progress_steps = 0
                continue
            try:
                outputs = replica.scheduler.step()
            except ReplicaFailureError as error:
                self._fail_replica(replica, iteration, finished, error=error)
                continue
            replica.consecutive_failures = 0
            for output in outputs:
                finished.append(self._translate(replica.replica_id, output))
            self._watch(replica, iteration, finished, stepped=True)
        return finished

    def run(self) -> List[RequestOutput]:
        """Serve until every surviving request finished; outputs carry pool ids.

        Raises
        ------
        ResourceExhaustedError
            If the pool stops making progress with work still pending and
            no replica left to recover onto (the cluster-level livelock
            guard, mirroring :meth:`Scheduler.run`).
        """
        outputs: List[RequestOutput] = []
        idle_iterations = 0
        while self.has_pending:
            before = self._pool_signature()
            outputs.extend(self.step())
            if self._pool_signature() == before:
                idle_iterations += 1
                # Breaker cooldowns legitimately idle the pool for a bounded
                # run of iterations; anything longer is a livelock.
                limit = 2 * self.breaker_cooldown * max(1, len(self.replicas)) + 8
                if idle_iterations > limit:  # pragma: no cover - defensive
                    raise ResourceExhaustedError(
                        "replica pool made no progress; all replicas are "
                        "unhealthy or the KV pools are too small"
                    )
            else:
                idle_iterations = 0
        return outputs

    def _pool_signature(self) -> Tuple:
        """Progress signature of the whole pool (for the livelock guard)."""
        return tuple(
            (replica.alive, replica.healthy, replica.stall_remaining)
            + replica.progress_signature()
            for replica in self.replicas
        )

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _translate(self, replica_id: int, output: RequestOutput) -> RequestOutput:
        """Rewrite a replica-local output into the pool id space."""
        pool_id = self._local_to_pool.pop((replica_id, output.request_id), None)
        if pool_id is None:  # pragma: no cover - defensive
            return output
        self._placements.pop(pool_id, None)
        return replace(output, request_id=pool_id)

    def _fail_replica(
        self,
        replica: _Replica,
        iteration: int,
        finished: List[RequestOutput],
        *,
        error: Exception,
        rebuild: bool = True,
    ) -> None:
        """Checkpoint a failed replica's requests and re-admit them elsewhere.

        The recovery sweep: every in-flight request is detached as a
        :class:`RequestCheckpoint` (tokens + logits + sampling generator), the
        replica's breaker accounting is bumped (its cooldown doubling past
        :data:`BREAKER_THRESHOLD` consecutive failures), and each
        checkpoint is re-routed to a healthy replica with exponential
        backoff — or degraded when its retry budget is spent.  ``rebuild``
        replaces a crashed engine with a fresh scheduler (a watchdog-tripped
        engine is intact and keeps its object, only its requests move).
        """
        self.cluster_stats.failures += 1
        checkpoints = replica.scheduler.checkpoint_all()
        replica.consecutive_failures += 1
        replica.healthy = False
        replica.no_progress_steps = 0
        replica.stall_remaining = 0
        opens = max(0, replica.consecutive_failures - BREAKER_THRESHOLD + 1)
        cooldown = self.breaker_cooldown * (2 ** max(0, opens - 1))
        replica.cooldown_until = iteration + 1 + cooldown
        self.cluster_stats.breaker_opens += 1
        if self.tracer is not None:
            self.tracer.instant(
                "replica.failed",
                self._pool_track,
                replica=replica.replica_id,
                iteration=iteration,
                error=str(error),
                checkpoints=len(checkpoints),
            )
            self.tracer.instant(
                "breaker.open",
                self._pool_track,
                replica=replica.replica_id,
                cooldown=cooldown,
            )
        if rebuild:
            replica.alive = False
        for checkpoint in checkpoints:
            self._recover(replica.replica_id, checkpoint, finished, error)

    def _recover(
        self,
        failed_id: int,
        checkpoint: RequestCheckpoint,
        finished: List[RequestOutput],
        error: Exception,
    ) -> None:
        """Re-admit one checkpoint on a healthy replica (or degrade it)."""
        pool_id = self._local_to_pool.pop((failed_id, checkpoint.request_id), None)
        if pool_id is None:  # pragma: no cover - defensive
            return
        self._placements.pop(pool_id, None)
        retries = checkpoint.retries
        healthy = self.healthy_ids()
        if retries >= self.max_retries or not healthy:
            cause = (
                "retry_budget_exhausted" if retries >= self.max_retries
                else "no_healthy_replica"
            )
            output = _request_output(
                checkpoint, "degraded", self.now, self.runner.config.vocab_size, cause
            )
            finished.append(replace(output, request_id=pool_id))
            self.cluster_stats.degraded_requests += 1
            self.cluster_stats.degraded_causes[cause] = (
                self.cluster_stats.degraded_causes.get(cause, 0) + 1
            )
            if self.tracer is not None:
                self.tracer.instant(
                    "request.degraded",
                    self._pool_track,
                    f"req{pool_id}",
                    cause=cause,
                    retries=retries,
                )
                if self.tracer.recorder is not None:
                    # An unrecovered request is the incident the flight
                    # recorder exists for: snapshot the tape at the moment
                    # of degradation, before later traffic overwrites it.
                    self.tracer.recorder.mark_incident(
                        f"request req{pool_id} degraded: {cause}"
                    )
            return
        checkpoint.retries = retries + 1
        delay = 2.0**retries if retries else 0.0
        if delay:
            # Deterministic jitter in [0.5, 1.5): simultaneous failures fan
            # out instead of retrying in lockstep, reproducibly per pool seed.
            delay *= 0.5 + self._backoff_rng.random()
        target_id = self.router.place(checkpoint.prompt, healthy)
        local_id = self.replicas[target_id].scheduler.submit_checkpoint(
            checkpoint,
            delay=delay,
            trace_corr=f"req{pool_id}" if self.tracer is not None else None,
        )
        self._placements[pool_id] = (target_id, local_id)
        self._local_to_pool[(target_id, local_id)] = pool_id
        self.cluster_stats.recoveries += 1
        if self.tracer is not None:
            self.tracer.instant(
                "request.recovered",
                self._pool_track,
                f"req{pool_id}",
                source=failed_id,
                target=target_id,
                retry=retries + 1,
            )

    def _shed_lowest_priority(
        self, replica: _Replica, finished: List[RequestOutput]
    ) -> None:
        """Degrade the least valuable *waiting* request under memory pressure.

        The victim is the highest priority value (least urgent), latest
        submission — mirroring the preemption victim rule — and only
        waiting requests are shed: admitted requests hold committed work
        the degradation policy must not destroy.  With nothing waiting the
        pressure event is a no-op (there is nothing to shed).
        """
        waiting = replica.scheduler.waiting_requests()
        if not waiting:
            return
        victim = max(waiting, key=lambda request: (request.priority, request.request_id))
        output = replica.scheduler.shed(victim.request_id)
        self.cluster_stats.degraded_requests += 1
        self.cluster_stats.degraded_causes["shed"] = (
            self.cluster_stats.degraded_causes.get("shed", 0) + 1
        )
        finished.append(self._translate(replica.replica_id, output))

    def _watch(
        self,
        replica: _Replica,
        iteration: int,
        finished: List[RequestOutput],
        *,
        stepped: bool,
    ) -> None:
        """Feed the zero-progress watchdog; trip it past the patience bound."""
        signature = replica.progress_signature()
        if not replica.scheduler.has_pending:
            replica.no_progress_steps = 0
            replica.last_progress = signature
            return
        if signature == replica.last_progress:
            replica.no_progress_steps += 1
        else:
            replica.no_progress_steps = 0
            replica.last_progress = signature
        if replica.no_progress_steps >= self.watchdog_patience:
            self.cluster_stats.watchdog_trips += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "watchdog.trip",
                    self._pool_track,
                    replica=replica.replica_id,
                    stalled=replica.no_progress_steps,
                )
            # The engine object is intact (merely stalled), so its requests
            # are checkpointed and moved without rebuilding the scheduler.
            self._fail_replica(
                replica,
                iteration,
                finished,
                error=ReplicaFailureError(
                    f"replica {replica.replica_id} made no progress for "
                    f"{replica.no_progress_steps} iterations"
                ),
                rebuild=False,
            )

    def _reprobe(self, iteration: int) -> None:
        """Return cooled-down replicas to rotation (fresh engine if crashed)."""
        for replica in self.replicas:
            if replica.healthy or iteration < replica.cooldown_until:
                continue
            if not replica.alive:
                self._retired_stats += replica.scheduler.stats
                replica.scheduler = self._build_scheduler(replica.replica_id)
                replica.alive = True
                if self.tracer is not None:
                    self.tracer.instant(
                        "replica.rebuilt",
                        self._pool_track,
                        replica=replica.replica_id,
                        iteration=iteration,
                    )
            replica.healthy = True
            replica.no_progress_steps = 0
            if self.tracer is not None:
                self.tracer.instant(
                    "breaker.close",
                    self._pool_track,
                    replica=replica.replica_id,
                    iteration=iteration,
                )
            replica.last_progress = (-1.0, -1, -1)
