"""A ``hypothesis`` state machine over the paged KV pool's op vocabulary.

:class:`PoolMachine` issues exactly the call sequences the scheduler issues,
one ``@rule`` per op: admit (``match_prefix`` -> ``reserve`` with the
final-token ``private_tail`` rule and the partial head, whose copied slots
the audit reads like any other -> ``write`` of the unmatched rest ->
``publish_prefix``, skipped in one admission in five as with
``prefix_cache=False``), fork (an admission that re-uses a live sequence's
tokens), decode (up to four decode steps of one sequence, each one write at
its length), truncate (speculative rollback), release (eviction, or
preemption, whose tokens later admissions replay), kill (``replica_kill`` or
``shard_kill``: every live slot freed at once, the checkpoint-and-recover
sweep of a crashed replica or of a dead shard, which fails its whole group)
and stall (``replica_stall``, ``shard_stall`` or ``link_drop``: a step that
must leave the pool as it was, since a dropped collective message is retried
to a pristine payload inside the transport).  After every rule the one
``@invariant`` runs :func:`repro.serve.stress.check_pool_invariants` and
compares every committed position of every live slot, and every published
block, live or cached, with the payload its tokens determine
(:func:`_base_value`), so bytes a relocation left behind are caught before
any admission matches them.  ``hypothesis`` generates the
schedules and prints a failing one as the program of rule calls it ran.

:func:`run` runs the machine seeded, with no example database and no
shrinking (a violation is reported as generated, at once), and returns how
many steps of each op kind it executed, and how many partial heads were
copied from each kind of source (:data:`COPIES`).  Importing this module
empties hypothesis's pool of literals scanned out of loaded local modules,
for the whole process, so a seed is one schedule whatever modules are
loaded.
``tools/check_perf_smoke.py`` (the ``serving stress`` row) and the serving
tests call it; ``repro`` itself never imports ``hypothesis``.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import List, Optional

import numpy as np
from hypothesis import HealthCheck, Phase, settings
from hypothesis import seed as seeded
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import ResourceExhaustedError
from repro.serve import InvariantViolation, PagedKVCache, check_pool_invariants

# A seed is one schedule: hypothesis otherwise draws some choices from the literals it scans out
# of every loaded local module, so an edit to any of them could change what a seed runs.
providers._get_local_constants = Constants
providers.CONSTANTS_CACHE.cache.clear()

BLOCK, VOCAB = 4, 12
#: Deliberately tiny, so block exhaustion, LRU reclamation and copy-on-write all fire in a short run.
GEOMETRY = dict(num_layers=2, num_heads=2, d_head=3, block_size=BLOCK)
KILLS = ("replica_kill", "shard_kill")
STALLS = ("replica_stall", "shard_stall", "link_drop")
#: Every op kind a run tallies: one per rule, the sampled kinds of release, kill and stall.
OPS = ("admit", "fork", "decode", "truncate", "evict", "preempt") + KILLS + STALLS
#: Partial-head copies a run tallies: from a live or a cached source, which the reservation
#: kept in place, moved (relocated) or reclaimed (a cached source only).
COPIES = ("copy_live_kept", "copy_cached_kept", "copy_cached_moved", "copy_cached_reclaimed")
#: Examples per run and rule steps per example.
EXAMPLES, STEPS = 10, 30


def token_lists(min_size: int, max_size: int) -> st.SearchStrategy:
    """Token lists, drawn as one byte string (one choice, not one per token)."""
    return st.binary(min_size=min_size, max_size=max_size).map(lambda raw: [byte % VOCAB for byte in raw])


#: A live sequence, a template or a cut, taken modulo how many there are.
PICK = st.integers(0, 63)
SUFFIX = token_lists(0, BLOCK + 1)
BUDGET = st.integers(1, 2 * BLOCK - 1)
#: An admission publishes its prompt unless this draws 0.
PUBLISH = st.integers(0, 4)


def _base_value(tokens: List[int], position: int) -> float:
    """Deterministic per-(token-prefix, position) payload base in ``[1, 2)``.

    The value written at ``position`` is a pure function of the tokens up to
    and including it — exactly the property real KV has — so two slots
    agreeing on a prefix must hold bit-identical content there, and a wrong
    radix match surfaces as a content mismatch.  The dyadic mantissa keeps
    every derived float exactly representable, so checks use ``==``.
    """
    return 1.0 + (zlib.crc32(bytes(tokens[: position + 1])) % 2**20) / 2**20


def _write(cache: PagedKVCache, slot: int, tokens: List[int], begin: int) -> None:
    """Write positions ``[begin, len(tokens))`` of ``slot``: key ``base + layer / 8``, value ``+ 1/16``."""
    heads, _, _, d_head = cache.key_blocks[0].shape
    bases = np.array([_base_value(tokens, position) for position in range(begin, len(tokens))])
    for layer in range(cache.num_layers):
        keys = np.broadcast_to(bases[None, :, None] + layer * 0.125, (heads, len(bases), d_head))
        cache.write(layer, [slot], keys, keys + 0.0625, np.arange(begin, len(tokens))[None, :])


def key_tokens(cache: PagedKVCache, block: int) -> List[int]:
    """The token prefix published ``block``'s chained radix key spells out."""
    runs = []
    while block != -1:
        block, run = cache.block_key_of(block)
        runs.append(run)
    return np.frombuffer(b"".join(reversed(runs)), dtype=np.int64).tolist()


class _Sequence:
    """Shadow of one live sequence: its committed tokens and its slot in each pool."""

    __slots__ = ("tokens", "slots")

    def __init__(self, tokens: List[int], slots: List[int]) -> None:
        self.tokens = tokens
        self.slots = slots


class PoolMachine(RuleBasedStateMachine):
    """Scheduler-shaped ops against one pool (or several in lockstep), audited after every step.

    Parameters
    ----------
    tally : Counter, optional
        Counts the steps of each op kind and, at teardown, the blocks the
        first pool relocated; :func:`run` shares one across a run's examples.
    num_blocks, max_slots
        Pool size and live-slot ceiling (the scheduler's ``max_batch_size``).
    """

    #: The pools every op is applied to; the first is audited whole, all of them for live content.
    #: They must share a geometry and decide alike: ``blocks_needed`` and the decode
    #: copy-on-write guard read the first pool only, and an admission that some pools
    #: reserve and others refuse is an :class:`InvariantViolation`.
    POOLS = (PagedKVCache,)

    def __init__(self, tally: Optional[Counter] = None, num_blocks: int = 24, max_slots: int = 5) -> None:
        super().__init__()
        self.tally = Counter() if tally is None else tally
        self.pools = [kind(num_blocks=num_blocks, **GEOMETRY) for kind in self.POOLS]
        self.max_slots = max_slots
        self.live: List[_Sequence] = []
        #: Prompts admissions draw prefixes from; preempted and killed sequences join them.
        self.templates: List[List[int]] = []
        self.version = self.pools[0].table_version

    @initialize(templates=st.lists(token_lists(BLOCK, 4 * BLOCK - 1), min_size=3, max_size=3))
    def setup(self, templates: List[List[int]]) -> None:
        """Draw the three prompts the first admissions share prefixes of."""
        self.templates = templates

    @precondition(lambda self: len(self.live) < self.max_slots)
    @rule(template=PICK, cut=PICK, suffix=SUFFIX, budget=BUDGET, publish=PUBLISH)
    def admit(self, template: int, cut: int, suffix: List[int], budget: int, publish: int) -> None:
        """Admit a prefix of a template plus fresh tokens."""
        self._admit("admit", self.templates[template % len(self.templates)], cut, suffix, budget, publish)

    @precondition(lambda self: 0 < len(self.live) < self.max_slots)
    @rule(source=PICK, cut=PICK, suffix=SUFFIX, budget=BUDGET, publish=PUBLISH)
    def fork(self, source: int, cut: int, suffix: List[int], budget: int, publish: int) -> None:
        """Admit a prefix of a live sequence plus fresh tokens."""
        self._admit("fork", self.live[source % len(self.live)].tokens, cut, suffix, budget, publish)

    def _admit(self, kind: str, base: List[int], cut: int, suffix: List[int], budget: int, publish: int) -> None:
        """Admission exactly as the scheduler performs it, in every pool; a no-op when every pool refuses.

        It publishes the prompt unless ``publish`` is 0: the scheduler's
        ``prefix_cache=False`` path is one draw in five.
        """
        self.tally[kind] += 1
        tokens = list(base[: cut % len(base) + 1]) + suffix
        capacity = len(tokens) + budget - 1
        if self.pools[0].blocks_needed(capacity) > self.pools[0].num_blocks:
            return
        slots, refused = [], []
        for cache in self.pools:
            matched = cache.match_prefix(tokens)
            start = min(len(matched) * BLOCK, len(tokens) - 1) + matched.partial_tokens
            source = matched.partial and cache.block_key_of(matched.partial[0])
            live = bool(matched.partial) and cache.ref_count(matched.partial[0]) > 0
            try:
                slot = cache.reserve(
                    capacity, shared=matched, private_tail=start < len(matched) * BLOCK, partial=matched.partial
                )
            except ResourceExhaustedError:
                refused.append(type(cache).__name__)
                continue
            if source and cache is self.pools[0]:
                # Where the copied head came from, and what this reservation did to it.
                moved = cache.radix_entries().get(source, -1)
                fate = "reclaimed" if moved < 0 else "moved" if moved != matched.partial[0] else "kept"
                self.tally[f"copy_{'live' if live else 'cached'}_{fate}"] += 1
            # Matched blocks and the copied head carry the publisher's payloads,
            # which chained block identity guarantees equal this prompt's own.
            cache.set_length(slot, start)
            _write(cache, slot, tokens, start)
            cache.set_length(slot, len(tokens))
            if publish:
                cache.publish_prefix(slot, tokens)
            slots.append(slot)
        if slots and refused:
            raise InvariantViolation(
                f"{', '.join(refused)} refused {capacity} positions for {tokens}; the other pools reserved them"
            )
        if slots:
            self.live.append(_Sequence(tokens, slots))

    @precondition(lambda self: self.live)
    @rule(which=PICK, appended=token_lists(1, 4))
    def decode(self, which: int, appended: List[int]) -> None:
        """Decode steps of one sequence: each appends one token at the slot's length.

        They stop at capacity, and at a shared target block with no block
        free: the copy-on-write fork needs one, and the scheduler would have
        evicted somebody first.
        """
        self.tally["decode"] += 1
        sequence, cache = self.live[which % len(self.live)], self.pools[0]
        for token in appended:
            length, slot = len(sequence.tokens), sequence.slots[0]
            if length >= cache.capacity_of(slot) or (
                cache.ref_count(cache.block_table(slot)[length // BLOCK]) > 1 and cache.free_block_count == 0
            ):
                return
            sequence.tokens.append(token)
            for pool, slot in zip(self.pools, sequence.slots):
                _write(pool, slot, sequence.tokens, length)
                pool.set_length(slot, length + 1)

    @precondition(lambda self: self.live)
    @rule(which=PICK, cut=PICK, keep_capacity=st.booleans())
    def truncate(self, which: int, cut: int, keep_capacity: bool) -> None:
        """Speculative rollback to at least one token, keeping the reservation or not."""
        self.tally["truncate"] += 1
        sequence = self.live[which % len(self.live)]
        new_length = cut % len(sequence.tokens) + 1
        for cache, slot in zip(self.pools, sequence.slots):
            cache.truncate(slot, new_length, min_capacity=cache.capacity_of(slot) if keep_capacity else 0)
        del sequence.tokens[new_length:]

    @precondition(lambda self: self.live)
    @rule(which=PICK, kind=st.sampled_from(("evict", "preempt")))
    def release(self, which: int, kind: str) -> None:
        """Free one slot; a preempted sequence replays later, over its published blocks."""
        self.tally[kind] += 1
        self._free(self.live.pop(which % len(self.live)), replays=kind == "preempt")

    @precondition(lambda self: len(self.live) > 1)  # a sweep of one slot is an eviction
    @rule(kind=st.sampled_from(KILLS))
    def kill(self, kind: str) -> None:
        """Free every live slot at once, as :meth:`Scheduler.checkpoint_all` does on a killed replica."""
        self.tally[kind] += 1
        for sequence in self.live:
            self._free(sequence, replays=True)
        self.live = []

    @precondition(lambda self: self.live)
    @rule(kind=st.sampled_from(STALLS))
    def stall(self, kind: str) -> None:
        """A step that makes no progress on the work in flight: the pool must come out of it unchanged."""
        self.tally[kind] += 1

    def _free(self, sequence: _Sequence, replays: bool) -> None:
        """Free ``sequence``'s slots; a sequence that replays joins the templates."""
        if replays:
            self.templates.append(sequence.tokens)
        for cache, slot in zip(self.pools, sequence.slots):
            cache.free(slot)

    @invariant()
    def audited(self) -> None:
        """The first pool's structure and published blocks, then the exact content of every live slot."""
        self.version = check_pool_invariants(self.pools[0], self.version)
        for sequence in self.live:
            length = len(sequence.tokens)
            bases = np.array([_base_value(sequence.tokens, position) for position in range(length)])
            for cache, slot in zip(self.pools, sequence.slots):
                if cache.length_of(slot) != length:
                    raise InvariantViolation(f"slot {slot} holds {cache.length_of(slot)} tokens, not {length}")
                for layer in range(cache.num_layers):
                    keys, values = cache.gather(layer, [slot], length)
                    want = bases[None, None, :, None] + layer * 0.125
                    wrong = ((keys != want) | (values != want + 0.0625)).any(axis=(0, 1, 3))
                    if wrong.any():
                        raise InvariantViolation(
                            f"slot {slot} layer {layer}: position {int(wrong.argmax())} of {length} "
                            f"does not hold the payload of tokens {sequence.tokens}"
                        )
        # A published block, live or cached, holds the payload of the prefix its chained key spells out.
        cache = self.pools[0]
        blocks = list(cache.radix_entries().values())
        if not blocks:
            return
        prefixes = [key_tokens(cache, block) for block in blocks]
        bases = np.array([[_base_value(tokens, position) for position in range(len(tokens) - BLOCK, len(tokens))]
                          for tokens in prefixes])
        for layer in range(cache.num_layers):
            want = bases[None, :, :, None] + layer * 0.125
            keys, values = cache.key_blocks[layer][:, blocks], cache.value_blocks[layer][:, blocks]
            wrong = ((keys != want) | (values != want + 0.0625)).any(axis=(0, 2, 3))
            if wrong.any():
                row = int(wrong.argmax())
                raise InvariantViolation(
                    f"published block {blocks[row]} does not hold the payload of tokens {prefixes[row]}"
                )

    def teardown(self) -> None:
        """Count the blocks this example's first pool relocated."""
        self.tally["relocated_blocks"] += self.pools[0].relocated_blocks


#: No example database and no shrinking: shrinking a deep failing schedule can take minutes.
SETTINGS = settings(
    max_examples=EXAMPLES,
    stateful_step_count=STEPS,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


def run(machine=PoolMachine, seed: int = 0, **geometry) -> Counter:
    """Run :data:`EXAMPLES` examples of ``machine(tally, **geometry)`` under ``hypothesis.seed(seed)``.

    Returns the tally: steps per op kind (:data:`OPS`), partial-head copies
    per kind of source (:data:`COPIES`) and ``relocated_blocks``.  A violated
    invariant is raised at once, after ``hypothesis`` has printed the failing
    schedule as generated.
    """
    tally: Counter = Counter()
    run_state_machine_as_test(seeded(seed)(lambda: machine(tally, **geometry)), settings=SETTINGS)
    return tally
