"""Simulated collective transport for tensor-parallel shard groups.

A :class:`ShardedRunner <repro.serve.shard.ShardedRunner>` partitions one
model across N simulated shards that must meet at explicit collectives
(all-gather of attention context, FFN activations, LM-head logits).  On real
multi-GPU stacks those collectives ride NCCL over NVLink/PCIe — a transport
that loses, corrupts, delays, and duplicates messages, and whose robustness
(timeouts, retries, integrity checks) decides whether a shard group is a
usable serving unit.  This module reproduces that contract in simulation:

* :class:`CollectiveGroup` executes ``all_gather`` / ``all_reduce`` calls
  whose per-shard messages carry **sequence numbers** and **CRC32
  checksums** (computed only for a message a fault hits: a clean one's
  check could only pass).  Every message delivery runs under a per-call
  timeout with bounded exponential-backoff retry; deliveries that arrive
  late trip the straggler detector, which either *hedges* (resends and
  takes the faster copy) or *waits*, governed by configuration.  A receiver
  remembers the highest sequence number it has accepted from each shard,
  and discards any copy that does not exceed it (a duplicate).
* :class:`~repro.serve.faults.CollectiveFaultInjector` decides, per message
  attempt, whether the wire drops, corrupts, delays, or duplicates it — or
  kills the sending shard outright.  It is the seeded fault schedule the
  replica pool also draws from (:mod:`repro.serve.faults`), over these five
  kinds, keyed by collective sequence number and sending shard.

The fault semantics are chosen so that *numerics never degrade*: a corrupted
message is caught by its checksum and retried from the pristine payload, so
the value a collective returns is bit-identical to the fault-free run or the
call raises.  When retries are exhausted the group raises
:class:`repro.errors.CollectiveTransportError`, and a killed shard raises
:class:`repro.errors.ShardFailureError`; both subclass
``ReplicaFailureError`` so the replica pool's checkpoint-and-recover sweep
treats the whole shard group as one fault unit.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence, Set

import numpy as np

from repro.errors import CollectiveTransportError, ConfigurationError, ShardFailureError, require_count
from repro.serve.faults import CollectiveFaultInjector
from repro.serve.stats import Counters

__all__ = [
    "CollectiveGroup",
    "CollectiveStats",
]


def _require_duration(name: str, value: float, positive: bool = False) -> float:
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be finite and {bound}, got {value}")
    return float(value)


@dataclass
class CollectiveStats(Counters):
    """Counters a :class:`CollectiveGroup` accumulates over its lifetime.

    Group records fold with ``total += group.stats`` and publish as
    ``collective.<field>`` counters (:class:`~repro.serve.stats.Counters`).

    Attributes
    ----------
    collectives:
        Completed collective calls (``all_gather`` + ``all_reduce``).
    messages:
        Successfully delivered per-shard messages (first copies only).
    bytes_moved:
        Simulated wire bytes: each shard's payload crosses the link once
        per *other* shard in a gather/reduce ring.
    retries:
        Resends after a timeout or checksum failure.
    timeouts:
        Per-message timeouts (dropped messages that never arrived).
    corruption_caught:
        Deliveries whose CRC32 checksum mismatched and were discarded.
    duplicates_ignored:
        Redundant copies discarded by sequence-number dedup.
    stragglers:
        Deliveries that exceeded the straggler threshold.
    hedges:
        Stragglers cut short by a hedged resend (``hedge=True``).
    simulated_ms:
        Total simulated transport time, the analytic model's counterpart.
    """

    PREFIX = "collective"

    collectives: int = 0
    messages: int = 0
    bytes_moved: int = 0
    retries: int = 0
    timeouts: int = 0
    corruption_caught: int = 0
    duplicates_ignored: int = 0
    stragglers: int = 0
    hedges: int = 0
    simulated_ms: float = 0.0


class CollectiveGroup:
    """A shard group's message transport with integrity and retry semantics.

    Every collective call assigns a fresh sequence number and moves one
    checksummed message per shard.  A message delivery may be dropped
    (timeout, then exponential-backoff retry), corrupted (CRC32 mismatch —
    caught, discarded, retried from the pristine payload), delayed (the
    straggler detector hedges or waits), or duplicated (the second copy's
    sequence number does not exceed the highest one already accepted from
    that shard, so it is discarded).  Retries are bounded: a message that cannot be
    delivered within ``max_retries`` resends raises
    :class:`repro.errors.CollectiveTransportError`, and a killed shard
    raises :class:`repro.errors.ShardFailureError` and leaves the group
    unhealthy — both are ``ReplicaFailureError`` subclasses the replica
    pool recovers from by rebuilding the whole group.

    What is simulated and what is computed: the wire — its latency,
    bandwidth, timeouts, backoff, hedges, sequence numbers and the CRC32
    check a receiver makes — is *simulated*, priced into ``stats`` message by
    message; the collective's result is *computed* once, from the pristine
    payloads, before the exchange.  So the transport only computes what a
    fault makes observable: a clean message is priced and counted with no
    checksum (its check could only pass), and a CRC32 is taken only in
    :meth:`_deliver`, for a message whose draw fired — the pristine
    payload's, then the tampered copy's on each corrupt attempt.

    Parameters
    ----------
    num_shards:
        Number of shards meeting at every collective.
    fault_injector:
        Optional :class:`~repro.serve.faults.CollectiveFaultInjector`; ``None`` means a
        fault-free wire.
    latency_ms:
        Base per-message link latency (simulated milliseconds).
    bandwidth_gb_s:
        Simulated link bandwidth pricing each message's payload bytes.
    timeout_ms:
        How long a receiver waits before declaring a message dropped.
    max_retries:
        Resend budget per message beyond the first attempt.
    backoff_ms:
        Base of the exponential retry backoff (``backoff_ms * 2**attempt``).
    straggler_ms:
        Arrival-time threshold beyond which a delivery counts as a
        straggler.
    delay_ms:
        Extra arrival time a ``"delay"`` fault adds to a message.
    hedge:
        Straggler policy: ``True`` resends and takes the faster copy,
        ``False`` waits out the slow delivery.
    tracer:
        Opt-in :class:`repro.obs.Tracer`: every transport fault the group
        rides out (retry, caught corruption, straggler, duplicate, kill,
        exhausted budget) emits a ``collective.*`` instant carrying the
        collective's sequence number and the sending shard onto
        ``trace_track``.  ``None`` (default) emits nothing.
    trace_track:
        Trace track the events land on (default ``"collective"``); the
        sharded runner names one per shard group.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        fault_injector: Optional[CollectiveFaultInjector] = None,
        latency_ms: float = 0.05,
        bandwidth_gb_s: float = 100.0,
        timeout_ms: float = 0.5,
        max_retries: int = 3,
        backoff_ms: float = 0.1,
        straggler_ms: float = 0.3,
        delay_ms: float = 0.6,
        hedge: bool = True,
        tracer=None,
        trace_track: str = "collective",
    ) -> None:
        num_shards = require_count("num_shards", num_shards, 1)
        max_retries = require_count("max_retries", max_retries, 0)
        if fault_injector is not None:
            fault_injector.require_victims(num_shards)
        self.num_shards = num_shards
        self.fault_injector = fault_injector
        self.latency_ms = _require_duration("latency_ms", latency_ms)
        self.bandwidth_gb_s = _require_duration("bandwidth_gb_s", bandwidth_gb_s, positive=True)
        self.timeout_ms = _require_duration("timeout_ms", timeout_ms)
        self.max_retries = max_retries
        self.backoff_ms = _require_duration("backoff_ms", backoff_ms)
        self.straggler_ms = _require_duration("straggler_ms", straggler_ms)
        self.delay_ms = _require_duration("delay_ms", delay_ms)
        self.hedge = hedge
        self.tracer = tracer
        self.trace_track = trace_track
        self.stats = CollectiveStats()
        self.dead_shards: Set[int] = set()
        self._seq = 0
        #: Highest sequence number accepted from each shard (the dedup state).
        self._accepted = [-1] * num_shards

    @property
    def healthy(self) -> bool:
        """Whether every shard is alive; a dead shard fails the whole group."""
        return not self.dead_shards

    def fail_shard(self, shard_id: int) -> None:
        """Mark one shard dead, tripping the group unhealthy."""
        self.dead_shards.add(shard_id)

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def _accept(self, seq: int, shard_id: int) -> bool:
        """Whether a copy of shard ``shard_id``'s message ``seq`` is new.

        Sequence numbers only grow, so a copy that does not exceed the
        highest one already accepted from its sender is a duplicate: it is
        counted and discarded.
        """
        if seq <= self._accepted[shard_id]:
            self.stats.duplicates_ignored += 1
            return False
        self._accepted[shard_id] = seq
        return True

    def _deliver(self, seq: int, shard_id: int, payload: np.ndarray, fault: str) -> None:
        """Ride out the fault injected into one message's first attempt.

        ``fault`` is that attempt's draw; every retry draws its own.  The
        pristine payload's CRC32 is taken here, on entry: only a corrupted
        copy is ever checked against it (a clean message's check passes by
        construction, so :meth:`_exchange` computes none).  The receiver keeps
        the pristine payload on success (corrupted copies are discarded at
        the checksum, duplicates at :meth:`_accept`); a kill raises
        ``ShardFailureError`` and a dry retry budget
        ``CollectiveTransportError``.  Counters go straight to ``stats``.
        """
        # Over the payload's own buffer when that is one run of bytes.
        checksum = zlib.crc32(payload if payload.flags.c_contiguous else payload.tobytes())
        cost = self.latency_ms + payload.nbytes / (self.bandwidth_gb_s * 1e6)
        for attempt in range(self.max_retries + 1):
            if attempt:
                fault = self.fault_injector.draw(seq, shard_id, attempt)
            if fault == "kill":
                self.fail_shard(shard_id)
                if self.tracer is not None:
                    self.tracer.instant(
                        "collective.kill", self.trace_track, seq=seq, shard=shard_id
                    )
                raise ShardFailureError(
                    f"shard {shard_id} died during collective #{seq}"
                )
            if fault == "drop":
                self.stats.timeouts += 1
                self.stats.retries += 1
                self.stats.simulated_ms += self.timeout_ms + self.backoff_ms * 2**attempt
                if self.tracer is not None:
                    self.tracer.instant(
                        "collective.retry",
                        self.trace_track,
                        seq=seq,
                        shard=shard_id,
                        attempt=attempt,
                        cause="timeout",
                    )
                continue
            if fault == "corrupt":
                tampered = bytearray(payload.tobytes())
                tampered[0] ^= 0xFF
                if zlib.crc32(bytes(tampered)) == checksum:  # pragma: no cover
                    raise CollectiveTransportError("checksum failed to catch corruption")
                self.stats.corruption_caught += 1
                self.stats.retries += 1
                self.stats.simulated_ms += cost + self.backoff_ms * 2**attempt
                if self.tracer is not None:
                    self.tracer.instant(
                        "collective.corruption",
                        self.trace_track,
                        seq=seq,
                        shard=shard_id,
                        attempt=attempt,
                    )
                continue
            if fault == "delay":
                self.stats.stragglers += 1
                if self.hedge:
                    # The hedged resend overtakes the slow copy: pay the
                    # straggler threshold plus a clean resend.
                    self.stats.hedges += 1
                    self.stats.simulated_ms += self.straggler_ms + cost
                else:
                    self.stats.simulated_ms += cost + self.delay_ms
                if self.tracer is not None:
                    self.tracer.instant(
                        "collective.straggler",
                        self.trace_track,
                        seq=seq,
                        shard=shard_id,
                        hedged=self.hedge,
                    )
            elif fault == "duplicate":
                # Two copies cross the wire.  This is the first; the second,
                # below, finds its sequence number taken and is discarded.
                self.stats.simulated_ms += 2 * cost
                self._accept(seq, shard_id)
                if self.tracer is not None:
                    self.tracer.instant(
                        "collective.duplicate",
                        self.trace_track,
                        seq=seq,
                        shard=shard_id,
                    )
            else:
                self.stats.simulated_ms += cost
            self._accept(seq, shard_id)
            self.stats.messages += 1
            self.stats.bytes_moved += payload.nbytes * max(1, self.num_shards - 1)
            return
        if self.tracer is not None:
            self.tracer.instant(
                "collective.exhausted", self.trace_track, seq=seq, shard=shard_id
            )
        raise CollectiveTransportError(
            f"collective #{seq} message from shard {shard_id} exceeded "
            f"{self.max_retries} retries"
        )

    def _exchange(self, payloads: Sequence[np.ndarray]) -> None:
        """Move one sequenced message per shard.

        One pass: a message whose first attempt drew no fault is priced and
        counted here, in locals written back once, with no checksum; one
        whose draw fired goes through :meth:`_deliver`, the only fault path.
        ``simulated_ms`` is summed message by message in shard order either
        way.
        """
        if len(payloads) != self.num_shards:
            raise ConfigurationError(
                f"collective expects {self.num_shards} payloads, got {len(payloads)}"
            )
        if self.dead_shards:
            raise ShardFailureError(
                f"collective group has dead shards: {sorted(self.dead_shards)}"
            )
        seq = self._seq
        self._seq += 1
        stats, injector, accepted = self.stats, self.fault_injector, self._accepted
        latency_ms, bytes_per_ms = self.latency_ms, self.bandwidth_gb_s * 1e6
        messages = nbytes = 0
        simulated_ms = stats.simulated_ms
        try:
            for shard_id, payload in enumerate(payloads):
                payload = np.asarray(payload)
                fault = injector.draw(seq, shard_id, 0) if injector is not None else None
                if fault is not None:
                    stats.simulated_ms = simulated_ms
                    self._deliver(seq, shard_id, payload, fault)
                    simulated_ms = stats.simulated_ms
                    continue
                accepted[shard_id] = seq
                messages += 1
                nbytes += payload.nbytes
                simulated_ms += latency_ms + payload.nbytes / bytes_per_ms
        finally:  # a kill or a dry retry budget leaves the messages before it counted
            stats.messages += messages
            stats.bytes_moved += nbytes * max(1, self.num_shards - 1)
        stats.simulated_ms = simulated_ms
        stats.collectives += 1

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    @staticmethod
    def _malformed(kind: str, payloads: Sequence[np.ndarray], error: object) -> ConfigurationError:
        shapes = [np.shape(payload) for payload in payloads]
        return ConfigurationError(f"cannot {kind} payloads of shapes {shapes}: {error}")

    def all_gather(self, payloads: Sequence[np.ndarray], axis: int = -1) -> np.ndarray:
        """Concatenate every shard's payload along ``axis``, in shard order.

        The concatenation order is the shard order, so a column-partitioned
        tensor reassembles bit-identically to its unsharded original.  The
        receivers keep the pristine payloads, so the result is assembled
        before anything crosses the wire: payloads that do not concatenate,
        or an ``axis`` that is not an integer, are a
        :class:`~repro.errors.ConfigurationError` that consumes no sequence
        number, fault draw or counter.
        """
        try:
            gathered = np.concatenate(payloads, axis=axis)
        except (TypeError, ValueError) as error:  # TypeError: a non-integer axis
            raise self._malformed("all_gather", payloads, f"{error} (axis={axis!r})") from None
        self._exchange(payloads)
        return gathered

    def all_reduce(self, payloads: Sequence[np.ndarray]) -> np.ndarray:
        """Sum every shard's payload elementwise, accumulated in shard order.

        The deterministic left-to-right accumulation keeps the result
        reproducible across runs, but floating-point partial-sum reduction
        is still order-sensitive relative to an unsharded matmul — which is
        why the sharded runner meets at :meth:`all_gather` points instead
        (see architecture.md); ``all_reduce`` serves the analytic model and
        non-bit-exact consumers.  Like :meth:`all_gather`, it sums before
        the exchange, so payloads that do not add up are refused untouched.
        """
        payloads = [np.asarray(payload) for payload in payloads]
        try:
            dtype = np.result_type(*payloads)
            total = np.array(payloads[0], dtype=dtype, copy=True)
            for payload in payloads[1:]:
                total += payload
        except ValueError as error:
            raise self._malformed("all_reduce", payloads, error) from None
        self._exchange(payloads)
        return total
