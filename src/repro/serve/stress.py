"""Randomized stress/property harness for the paged KV cache invariant web.

The :class:`~repro.serve.paged_kv_cache.PagedKVCache` correctness story now
spans reference counts, a radix prefix index, copy-on-write forks, a free
side split into coalesced extents of unpublished blocks and an LRU whose
published blocks stay matchable, and speculative-rollback truncation.
Example-based tests pin each feature in isolation; this module drives
*mixed* schedules of the operations the scheduler actually issues — admit
(with prefix matching and the ``private_tail`` rule), decode writes, prefix
forks, truncation, preemption (free-then-replay), eviction, and the cluster
fault vocabulary
(``replica_kill``/``shard_kill``: every live slot torn down at once —
exactly the checkpoint-and-recover sweep a crashed replica or a dead
tensor-parallel shard triggers, a shard group being one fault unit;
``replica_stall``/``shard_stall``: a zero-progress iteration the invariants
must survive unchanged; ``link_drop``: a collective message lost on the
wire, retried inside the transport with a checksummed pristine payload, so
the pool must be bit-for-bit indifferent) — and asserts the global
invariants after every single operation:

* **Refcount duality** — every block's reference count equals its number of
  occurrences across live slot tables, and a block is free exactly when
  that count is zero.
* **Free-structure partition** — the free extents hold exactly the
  unreferenced *unpublished* blocks (disjoint, maximal runs), the LRU
  exactly the unreferenced *published* ones, and the two partition
  ``free_blocks()``.
* **Radix consistency** — the prefix index, reverse key map, and children
  sets agree; every indexed block is live or LRU-matchable; every non-root
  parent is itself indexed.
* **Version monotonicity** — ``table_version`` never moves backwards.
* **Content** — a *shadow model* predicts the exact value of every
  committed position ``[0, length)`` of every live slot.  Payloads are a
  pure function of the token prefix and position (mirroring the scheduler
  contract that KV is a function of the tokens that produced it), so prefix
  hits must surface byte-identical content (wherever relocation has moved
  the cached block since), copy-on-write must preserve it, and truncation
  must leave every position it keeps untouched.  Past ``length`` the pool
  promises nothing, so nothing is checked there.

Every run records an explicit op log (plain dicts, no hidden RNG), so a
failure is replayable with :meth:`ServingStressHarness.replay` and
shrinkable with :func:`shrink_ops` — delta-debugging deletes ops while the
failure reproduces, leaving a minimal schedule.  Ops reference slots by
harness-level handles, not pool slot ids, so deleting an op never
re-numbers the survivors; an op whose handle is dead (or whose
preconditions no longer hold) replays as a no-op.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ResourceExhaustedError
from repro.serve.paged_kv_cache import _ROOT, PagedKVCache


class InvariantViolation(AssertionError):
    """A global pool invariant failed after an operation."""


def _base_value(tokens: np.ndarray, position: int) -> float:
    """Deterministic per-(token-prefix, position) payload base in ``[1, 2)``.

    The value written at ``position`` is a pure function of the tokens up to
    and including it — exactly the property real KV has — so two slots
    agreeing on a prefix must hold bit-identical content there, and a wrong
    radix match surfaces as a content mismatch.  The dyadic mantissa keeps
    every derived float exactly representable, so checks use ``==``.
    """
    prefix = np.ascontiguousarray(tokens[: position + 1], dtype=np.int64)
    return 1.0 + (zlib.crc32(prefix.tobytes()) % 2**20) / 2**20


def check_pool_invariants(cache: PagedKVCache, last_version: Optional[int] = None) -> int:
    """Assert the structural invariant web of one pool; return its version.

    Parameters
    ----------
    cache : PagedKVCache
        The pool to audit.
    last_version : int, optional
        A previously observed ``table_version``; the current version must
        not be smaller (monotonicity).

    Returns
    -------
    int
        The pool's current ``table_version`` (pass it back next call).

    Raises
    ------
    InvariantViolation
        On any refcount, free-list, radix, or version inconsistency.
    """
    occurrences: Dict[int, int] = {}
    for slot in cache.active_slots:
        for block in cache.block_table(slot):
            occurrences[block] = occurrences.get(block, 0) + 1
    free = cache.free_blocks()
    free_set = set(free)
    if len(free) != len(free_set):
        raise InvariantViolation("free-list holds a duplicate block")
    for block in range(cache.num_blocks):
        refs = cache.ref_count(block)
        if refs != occurrences.get(block, 0):
            raise InvariantViolation(
                f"block {block} refcount {refs} != {occurrences.get(block, 0)} "
                "occurrences across live slot tables"
            )
        if (refs == 0) != (block in free_set):
            raise InvariantViolation(
                f"block {block} (refcount {refs}) and the free-list disagree"
            )
    # The free side is two structures: coalesced extents of unpublished
    # blocks, and the LRU of published ones.  Together they are exactly
    # ``free_blocks()``; apart, each holds exactly its own kind.
    extents = cache.free_extents()
    unpublished = [block for first, count in extents for block in range(first, first + count)]
    cached = cache.cached_free_blocks()
    published_free = set(cached)
    if free != unpublished + cached:
        raise InvariantViolation("free_blocks() is not the free extents followed by the LRU")
    for (first, count), (following, _) in zip(extents, extents[1:] + [(cache.num_blocks + 1, 0)]):
        if count < 1 or first < 0 or first + count >= following:
            raise InvariantViolation(
                f"free extent ({first}, {count}) is empty, out of range, or overlaps/touches "
                f"the next one at {following} (extents must be disjoint and maximal)"
            )
    for block in free:
        if (cache.block_key_of(block) is not None) != (block in published_free):
            raise InvariantViolation(
                f"free block {block} sits in the wrong free structure: published blocks "
                "belong on the LRU, unpublished ones in the extents"
            )
    entries = cache.radix_entries()
    for (parent, run), block in entries.items():
        if cache.block_key_of(block) != (parent, run):
            raise InvariantViolation(f"radix reverse map disagrees for block {block}")
        if cache.ref_count(block) == 0 and block not in free_set:
            raise InvariantViolation(
                f"indexed block {block} is neither live nor LRU-matchable"
            )
        if parent != _ROOT:
            if cache.block_key_of(parent) is None:
                raise InvariantViolation(
                    f"indexed block {block} has unindexed parent {parent}"
                )
            if block not in cache.radix_children(parent):
                raise InvariantViolation(
                    f"block {block} missing from parent {parent}'s children"
                )
    indexed = set(entries.values())
    if len(indexed) != len(entries):
        raise InvariantViolation("two radix keys map to the same block")
    for parent in list(indexed) + [_ROOT]:
        for child in cache.radix_children(parent):
            key = cache.block_key_of(child)
            if key is None or key[0] != parent:
                raise InvariantViolation(
                    f"children set of {parent} lists {child}, whose key is {key}"
                )
    version = cache.table_version
    if last_version is not None and version < last_version:
        raise InvariantViolation(
            f"table_version moved backwards: {last_version} -> {version}"
        )
    return version


class LruReferencePool(PagedKVCache):
    """The retired one-list allocation policy, kept as the eviction oracle.

    Every unreferenced block — published or not — sits on one LRU list:
    released unpublished blocks go to the front, published ones to the back,
    a block orphaned by :meth:`_unindex` stays where it was, and an
    allocation pops the head once per block, bytes as they are.
    :class:`PagedKVCache` must evict the same published blocks in the same
    order (or spare one, when it spends an orphan this policy leaves deep
    in the list) — what ``tests/serve/test_block_allocator.py`` and the
    perf-smoke contiguity gate compare against.  Not a serving path: it
    fragments tables.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._extents.take(self.num_blocks)  # nothing lives in the extents here
        self._free_lru.update((block, None) for block in range(self.num_blocks))

    def _unindex(self, block: int, orphans: List[int]) -> None:
        """Drop ``block`` and its radix descendants from the index, in place on the LRU."""
        key = self._block_key.pop(block, None)
        if key is None:
            return
        if self._prefix_index.get(key) == block:
            del self._prefix_index[key]
        self._children.get(key[0], set()).discard(block)
        for child in list(self._children.pop(block, ())):
            self._unindex(child, orphans)

    def _take(self, count: int, after=None, before=None):
        """Pop the LRU head ``count`` times, wherever those blocks happen to lie."""
        if count > len(self._free_lru):
            raise ResourceExhaustedError(f"need {count} free KV blocks, {len(self._free_lru)} left")
        blocks = [self._free_lru.popitem(last=False)[0] for _ in range(count)]
        for block in blocks:
            self._deindex(block)
        self._refcounts[blocks] = 1
        return [(block, 1) for block in blocks]

    def _recycle(self, blocks: List[int]) -> None:
        """Unpublished blocks go to the front of the one list, as they are."""
        for block in blocks:
            self._free_lru[block] = None
            self._free_lru.move_to_end(block, last=False)


class _SlotModel:
    """Shadow of one live slot: its tokens and expected pool content."""

    __slots__ = ("slot", "tokens", "expected")

    def __init__(self, slot: int, tokens: List[int], capacity: int) -> None:
        self.slot = slot
        self.tokens = list(tokens)
        #: Expected payload base per reserved position (read below the slot's length only).
        self.expected = np.zeros(capacity, dtype=np.float64)


class ServingStressHarness:
    """Seeded random schedules of scheduler-shaped ops against one pool.

    The harness issues exactly the call sequences the scheduler issues —
    ``match_prefix`` → ``reserve`` (with the final-token ``private_tail``
    rule) → ``set_length`` → chunked ``write`` → ``publish_prefix`` for
    admission, per-token writes for decode, ``truncate`` for rollback,
    ``free`` for eviction/preemption, an all-slots ``replica_kill`` crash
    sweep, and a no-op ``replica_stall`` — and audits every invariant
    after each op (see the module docstring).

    Parameters
    ----------
    seed : int
        Seed of the op-generation RNG (each seed is one schedule).
    num_layers, num_heads, d_head, block_size, num_blocks
        Pool geometry; deliberately tiny so block exhaustion, LRU
        reclamation, and COW forks all trigger within a short schedule.
    max_slots : int
        Live-slot ceiling (mirrors the scheduler's ``max_batch_size``).
    vocab : int
        Token alphabet size; small, so prompts collide and prefixes match.
    tracer : repro.obs.Tracer, optional
        Opt-in tracing: the cache's ``cache.*`` events are routed through
        this tracer, and when it carries a
        :class:`~repro.obs.FlightRecorder` an
        :class:`InvariantViolation` snapshots the tape
        (``mark_incident``) — the last N cache events before the violated
        invariant, readable without replaying the schedule.

    Examples
    --------
    >>> harness = ServingStressHarness(seed=0)
    >>> ops = harness.run(200)            # raises InvariantViolation on bugs
    >>> ServingStressHarness.replay(ops)  # deterministic re-run
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        num_layers: int = 2,
        num_heads: int = 2,
        d_head: int = 3,
        block_size: int = 4,
        num_blocks: int = 24,
        max_slots: int = 5,
        vocab: int = 12,
        tracer=None,
    ) -> None:
        self.cache = PagedKVCache(
            num_layers=num_layers,
            num_heads=num_heads,
            d_head=d_head,
            block_size=block_size,
            num_blocks=num_blocks,
        )
        self.tracer = tracer
        if tracer is not None:
            self.cache.tracer = tracer
            self.cache.trace_track = "stress"
        self.rng = np.random.default_rng(seed)
        self.block_size = block_size
        self.max_slots = max_slots
        self.vocab = vocab
        #: Live slots by harness handle ("r0", "r1", ...).
        self.live: Dict[str, _SlotModel] = {}
        #: Token sequences admissions draw prefixes from; preempted
        #: sequences are appended so replays re-match their published blocks.
        self.templates: List[np.ndarray] = [
            self.rng.integers(0, vocab, size=int(self.rng.integers(block_size, 4 * block_size)))
            for _ in range(3)
        ]
        self.op_log: List[dict] = []
        self._next_handle = 0
        self._version = self.cache.table_version

    # ------------------------------------------------------------------
    # Schedule generation
    # ------------------------------------------------------------------
    def random_op(self) -> dict:
        """Draw the next op (explicit, replayable — no RNG needed to apply)."""
        rng = self.rng
        choices: List[str] = []
        if len(self.live) < self.max_slots:
            choices += ["admit"] * 3
            if self.live:
                choices += ["fork"] * 2
        if self.live:
            choices += ["decode"] * 6 + ["truncate"] * 2 + ["evict", "preempt"]
            choices += ["replica_kill", "shard_kill"]
        choices += ["replica_stall", "link_drop", "shard_stall"]
        kind = choices[int(rng.integers(len(choices)))]
        if kind in ("replica_kill", "replica_stall", "shard_kill", "link_drop", "shard_stall"):
            return {"kind": kind}
        if kind in ("admit", "fork"):
            if kind == "fork":
                source = self._pick_handle()
                base = np.asarray(self.live[source].tokens, dtype=np.int64)
            else:
                base = self.templates[int(rng.integers(len(self.templates)))]
            prefix_len = int(rng.integers(1, len(base) + 1))
            suffix = rng.integers(0, self.vocab, size=int(rng.integers(0, self.block_size + 2)))
            tokens = np.concatenate([base[:prefix_len], suffix]).tolist()
            handle = f"r{self._next_handle}"
            self._next_handle += 1
            return {
                "kind": kind,
                "handle": handle,
                "tokens": [int(t) for t in tokens],
                "budget": int(rng.integers(1, 2 * self.block_size)),
                "publish": bool(rng.random() < 0.8),
            }
        handle = self._pick_handle()
        if kind == "decode":
            return {"kind": "decode", "handle": handle, "token": int(rng.integers(self.vocab))}
        if kind == "truncate":
            length = len(self.live[handle].tokens)
            return {
                "kind": "truncate",
                "handle": handle,
                "new_length": int(rng.integers(1, length + 1)),
                "keep_capacity": bool(rng.random() < 0.5),
            }
        return {"kind": kind, "handle": handle}

    def _pick_handle(self) -> str:
        """Uniformly pick a live handle (insertion order is deterministic)."""
        handles = list(self.live)
        return handles[int(self.rng.integers(len(handles)))]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, num_ops: int) -> List[dict]:
        """Generate and apply ``num_ops`` random ops; return the op log."""
        for _ in range(num_ops):
            self.apply(self.random_op())
        return self.op_log

    @classmethod
    def replay(cls, ops: List[dict], **kwargs) -> "ServingStressHarness":
        """Re-apply a recorded op log on a fresh pool (same geometry).

        Deterministic: the ops are explicit, so no RNG state is needed.
        Raises :class:`InvariantViolation` exactly where the original run
        would.
        """
        harness = cls(**kwargs)
        for op in ops:
            harness.apply(op)
        return harness

    def apply(self, op: dict) -> None:
        """Apply one op, record it, and audit every invariant.

        Ops whose preconditions fail (dead handle, over-long truncate,
        exhausted pool) are applied as no-ops — that is what makes a
        recorded log robust under shrinking deletions.
        """
        self.op_log.append(op)
        kind = op["kind"]
        if kind in ("admit", "fork"):
            self._apply_admit(op)
        elif kind == "decode":
            self._apply_decode(op)
        elif kind == "truncate":
            self._apply_truncate(op)
        elif kind in ("evict", "preempt"):
            self._apply_release(op)
        elif kind in ("replica_kill", "shard_kill"):
            # A shard death fails its whole group — one fault unit — so the
            # pool-side sweep is identical to a whole-replica crash.
            self._apply_replica_kill(op)
        elif kind in ("replica_stall", "link_drop", "shard_stall"):
            # A stalled step loop touches nothing; a dropped or delayed
            # collective message is retried/hedged inside the transport and
            # the delivered payload is pristine (checksummed), so the KV
            # pool must be bit-for-bit indifferent to all three — the audit
            # below asserts exactly that.
            pass
        else:
            raise InvariantViolation(f"unknown op kind {kind!r}")
        self.check()

    def _apply_admit(self, op: dict) -> None:
        """Admission exactly as the scheduler performs it."""
        cache = self.cache
        tokens = np.asarray(op["tokens"], dtype=np.int64)
        capacity = len(tokens) + op["budget"] - 1
        if len(self.live) >= self.max_slots or cache.blocks_needed(capacity) > cache.num_blocks:
            return
        matched = cache.match_prefix(tokens)
        start = min(len(matched) * self.block_size, len(tokens) - 1)
        try:
            slot = cache.reserve(
                capacity,
                shared=matched,
                private_tail=start < len(matched) * self.block_size,
            )
        except ResourceExhaustedError:
            return
        cache.set_length(slot, start)
        model = _SlotModel(slot, op["tokens"], cache.capacity_of(slot))
        # Matched blocks carry the publisher's payloads, which chained block
        # identity guarantees equal this prompt's own function values.
        for position in range(len(tokens)):
            model.expected[position] = _base_value(tokens, position)
        self._write_range(model, start, len(tokens))
        cache.set_length(slot, len(tokens))
        if op["publish"]:
            cache.publish_prefix(slot, tokens)
        self.live[op["handle"]] = model

    def _write_range(self, model: _SlotModel, begin: int, end: int) -> None:
        """Write payloads for positions ``[begin, end)`` of one slot."""
        if begin >= end:
            return
        cache = self.cache
        heads = cache.key_blocks[0].shape[0]
        d_head = cache.key_blocks[0].shape[3]
        positions = np.arange(begin, end, dtype=np.int64)
        tokens = np.asarray(model.tokens, dtype=np.int64)
        bases = np.array([_base_value(tokens, int(p)) for p in positions])
        for layer in range(cache.num_layers):
            keys = np.broadcast_to(bases[None, :, None] + layer * 0.125, (heads, len(positions), d_head))
            values = keys + 0.0625
            cache.write(layer, [model.slot], keys, values, positions[None, :])

    def _apply_decode(self, op: dict) -> None:
        """One decode-step write: append a token at the slot's length."""
        model = self.live.get(op["handle"])
        if model is None:
            return
        cache = self.cache
        length = cache.length_of(model.slot)
        if length >= cache.capacity_of(model.slot):
            return
        # Writing into a shared block copy-on-write-forks it, which needs a
        # free (or reclaimable) block; with none available the scheduler
        # would have evicted someone first — here the op degrades to a no-op
        # so tight-pool schedules keep running instead of dying mid-write.
        target = cache.block_table(model.slot)[length // self.block_size]
        if cache.ref_count(target) > 1 and cache.free_block_count == 0:
            return
        model.tokens = model.tokens[:length] + [op["token"]]
        self._write_range(model, length, length + 1)
        model.expected[length] = _base_value(
            np.asarray(model.tokens, dtype=np.int64), length
        )
        cache.set_length(model.slot, length + 1)

    def _apply_truncate(self, op: dict) -> None:
        """Speculative-style rollback: only the committed length moves."""
        model = self.live.get(op["handle"])
        if model is None:
            return
        cache = self.cache
        length = cache.length_of(model.slot)
        new_length = op["new_length"]
        if new_length > length or length == 0:
            return
        min_capacity = cache.capacity_of(model.slot) if op["keep_capacity"] else 0
        cache.truncate(model.slot, new_length, min_capacity=min_capacity)
        model.tokens = model.tokens[:new_length]

    def _apply_release(self, op: dict) -> None:
        """Eviction or preemption: free the slot (and remember the replay)."""
        model = self.live.pop(op["handle"], None)
        if model is None:
            return
        if op["kind"] == "preempt" and model.tokens:
            # A preempted request replays its tokens later; keeping them in
            # the template pool makes future admissions retrace the replay
            # path (and hit the LRU-matchable published blocks).
            self.templates.append(np.asarray(model.tokens, dtype=np.int64))
        self.cache.free(model.slot)

    def _apply_replica_kill(self, op: dict) -> None:
        """Crash sweep: every live slot is torn down in one op.

        Mirrors :meth:`Scheduler.checkpoint_all` on a chaos-killed replica —
        all slots free at once (published blocks stay LRU-matchable), and
        every sequence joins the template pool so later admissions replay
        the recovered requests over prefix hits.  With nothing live the op
        degrades to a no-op, keeping shrunk logs valid.
        """
        for handle in list(self.live):
            model = self.live.pop(handle)
            if model.tokens:
                self.templates.append(np.asarray(model.tokens, dtype=np.int64))
            self.cache.free(model.slot)

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Audit structural invariants plus exact content of every slot."""
        try:
            self._version = check_pool_invariants(self.cache, self._version)
            self._check_content()
        except InvariantViolation as error:
            if self.tracer is not None and self.tracer.recorder is not None:
                self.tracer.recorder.mark_incident(
                    f"invariant violation after op {len(self.op_log)}: {error}"
                )
            raise InvariantViolation(
                f"{error} — after op {len(self.op_log)}: {self.op_log[-1]!r}"
            ) from error

    def _check_content(self) -> None:
        """Compare every committed position of every slot to the shadow."""
        cache = self.cache
        for handle, model in self.live.items():
            length = cache.length_of(model.slot)
            for layer in range(cache.num_layers):
                keys, values = cache.gather(layer, [model.slot], length)
                expected_k = model.expected[:length] + layer * 0.125
                expected_v = expected_k + 0.0625
                for name, got, want in (
                    ("key", keys, expected_k),
                    ("value", values, expected_v),
                ):
                    if not (got == want[None, None, :, None]).all():
                        position = int(
                            np.nonzero((got != want[None, None, :, None]).any(axis=(0, 1, 3)))[0][0]
                        )
                        raise InvariantViolation(
                            f"{handle} layer {layer} {name} mismatch at position "
                            f"{position}: got {got[0, 0, position, 0]!r}, want "
                            f"{want[position]!r}"
                        )


def shrink_ops(ops: List[dict], fails: Callable[[List[dict]], bool]) -> List[dict]:
    """Delta-debug an op log down to a minimal still-failing schedule.

    Greedily deletes one op at a time (re-testing the remainder with
    ``fails``) until no single deletion preserves the failure.  Because ops
    reference harness handles — never raw slot ids — a log with deletions
    is always a valid schedule: orphaned ops degrade to no-ops.

    Parameters
    ----------
    ops : list of dict
        The recorded failing op log.
    fails : callable
        ``fails(candidate_ops) -> bool`` — True when the candidate still
        reproduces the failure (e.g. "replay raises InvariantViolation").

    Returns
    -------
    list of dict
        A 1-minimal failing sub-schedule (every remaining op is necessary).
    """
    ops = list(ops)
    changed = True
    while changed:
        changed = False
        index = 0
        while index < len(ops):
            candidate = ops[:index] + ops[index + 1 :]
            if fails(candidate):
                ops = candidate
                changed = True
            else:
                index += 1
    return ops
