"""Extent-aware KV block allocation: placement rules and the eviction oracle.

``PagedKVCache`` keeps its unreferenced blocks in two structures — coalesced
extents of *unpublished* blocks, which are interchangeable and handed out as
consecutive runs, and the LRU of *published* blocks, reclaimed oldest-first
only when the extents run dry.  The unit tests pin each placement rule on
hand-built pools; the property test drives the stress harness's mixed
schedules against :class:`repro.serve.stress.LruReferencePool` (the retired
one-list policy) and asserts that only *where* a table lands changed, never
*which cached prefix* dies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.serve import PagedKVCache, ServingStressHarness, check_pool_invariants
from repro.serve.stress import LruReferencePool

BLOCK = 4


def make_pool(num_blocks=16):
    return PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=BLOCK, num_blocks=num_blocks)


def fill(pool, slot, tokens):
    """Write and commit ``tokens`` worth of payload, then publish the full blocks."""
    payload = np.ones((1, 1, len(tokens), 2))
    pool.write(0, [slot], payload, payload, np.arange(len(tokens))[None, :])
    pool.set_length(slot, len(tokens))
    pool.publish_prefix(slot, tokens)


def runs_of(table):
    return 1 + sum(1 for block, following in zip(table, table[1:]) if following != block + 1)


def holes(pool, sizes):
    """Reserve back-to-back slots of ``sizes`` blocks; free the ones marked negative.

    ``holes(pool, [2, -3, 1, -2])`` leaves blocks ``[2, 5)`` and ``[6, 8)`` free
    between pinned neighbours (plus whatever lies past the last slot).
    """
    slots = [(pool.reserve(abs(size) * BLOCK), size) for size in sizes]
    for slot, size in slots:
        if size < 0:
            pool.free(slot)


class TestPlacement:
    def test_fresh_reservations_are_single_runs_from_the_lowest_address(self):
        pool = make_pool()
        first, second = pool.reserve(3 * BLOCK), pool.reserve(2 * BLOCK)
        assert pool.block_table(first) == [0, 1, 2]
        assert pool.block_table(second) == [3, 4]
        assert pool.free_extents() == [(5, 11)]

    def test_best_fit_takes_the_smallest_extent_that_holds_the_request(self):
        pool = make_pool()
        holes(pool, [1, -3, 1, -2, 1, -3, 1])  # free: [1,4) [5,7) [8,11) [12,16)
        assert pool.free_extents() == [(1, 3), (5, 2), (8, 3), (12, 4)]
        assert pool.block_table(pool.reserve(2 * BLOCK)) == [5, 6]  # exact fit beats lower addresses
        assert pool.block_table(pool.reserve(3 * BLOCK)) == [1, 2, 3]  # tie: lowest address
        assert pool.block_table(pool.reserve(3 * BLOCK)) == [8, 9, 10]

    def test_split_uses_the_fewest_extents_largest_first_laid_out_ascending(self):
        pool = make_pool(num_blocks=12)
        holes(pool, [1, -3, 1, -2, 1, -3, 1])  # free: [1,4) [5,7) [8,11)
        table = pool.block_table(pool.reserve(7 * BLOCK))
        # 3 + 3 cover six; the last block is a best fit out of the 2-extent.
        assert table == [1, 2, 3, 5, 8, 9, 10]
        assert pool.free_extents() == [(6, 1)]

    def test_fresh_blocks_continue_the_shared_prefix(self):
        pool = make_pool()
        tokens = np.arange(2 * BLOCK)
        owner = pool.reserve(2 * BLOCK)  # [0, 1]
        fill(pool, owner, tokens)
        holes(pool, [-3, 1, -2, 1])  # free: [2,5) [6,8) [9,16)
        sharer = pool.reserve(4 * BLOCK, shared=pool.match_prefix(tokens))
        # [6, 8) is the exact fit, but [2, 5) directly continues block 1.
        assert pool.block_table(sharer) == [0, 1, 2, 3]
        assert pool.table_runs - 5 == 1  # the five earlier tables were one run each

    def test_forced_reclaim_evicts_oldest_first_and_lays_the_table_ascending(self):
        pool = make_pool(num_blocks=8)
        chains = {}
        for name in ("old", "mid", "new"):
            tokens = np.full(2 * BLOCK, len(chains))
            slot = pool.reserve(2 * BLOCK)
            fill(pool, slot, tokens)
            chains[name] = (slot, tokens)
        # Free in age order; each chain lands on the LRU leaf first.
        for name in ("old", "mid", "new"):
            pool.free(chains[name][0])
        assert pool.cached_free_blocks() == [1, 0, 3, 2, 5, 4]
        assert pool.free_extents() == [(6, 2)]
        table = pool.block_table(pool.reserve(5 * BLOCK))
        # Two unpublished blocks, then exactly the three oldest published ones.
        assert table == [0, 1, 3, 6, 7]
        assert pool.cached_free_blocks() == [2, 5, 4]
        assert pool.match_prefix(chains["old"][1]) == []
        assert pool.match_prefix(chains["mid"][1]) == [2]
        assert pool.match_prefix(chains["new"][1]) == [4, 5]
        check_pool_invariants(pool)

    def test_published_blocks_survive_while_unpublished_ones_are_free(self):
        pool = make_pool(num_blocks=8)
        tokens = np.arange(2 * BLOCK)
        owner = pool.reserve(2 * BLOCK)
        fill(pool, owner, tokens)
        pool.free(owner)
        for _ in range(3):  # six unpublished blocks cover all of this
            pool.reserve(2 * BLOCK)
        assert pool.match_prefix(tokens) == [0, 1]
        with pytest.raises(ResourceExhaustedError):
            pool.reserve(3 * BLOCK)

    def test_copy_on_write_prefers_the_free_neighbour(self):
        pool = make_pool()
        tokens = np.arange(2 * BLOCK)
        pool.reserve(BLOCK)  # pins block 0 ...
        low = pool.reserve(BLOCK)  # ... so freeing block 1 leaves a hole of its own
        owner = pool.reserve(2 * BLOCK)  # [2, 3]
        fill(pool, owner, tokens)
        spacer = pool.reserve(BLOCK)  # [4]
        sharer = pool.reserve(4 * BLOCK, shared=pool.match_prefix(tokens))
        assert pool.block_table(sharer) == [2, 3, 5, 6]
        pool.free(low)
        pool.free(spacer)
        assert pool.free_extents()[:2] == [(1, 1), (4, 1)]
        pool.set_length(sharer, BLOCK)
        payload = np.ones((1, 1, 1, 2))
        pool.write(0, [sharer], payload, payload, np.array([[BLOCK]]))  # into shared block 3
        # Block 1 is the lowest-address fit, but 4 sits right before block 5.
        assert pool.block_table(sharer) == [2, 4, 5, 6]

    def test_private_tail_fork_and_fresh_blocks_are_one_extent(self):
        pool = make_pool()
        tokens = np.arange(2 * BLOCK)
        owner = pool.reserve(2 * BLOCK)
        fill(pool, owner, tokens)
        holes(pool, [1, -2, 1])  # free: [3,5) [6,16)
        forked = pool.reserve(4 * BLOCK, shared=pool.match_prefix(tokens), private_tail=True)
        table = pool.block_table(forked)
        # Fork copy + two fresh blocks need three: [3,5) is too small.
        assert table == [0, 6, 7, 8]
        assert pool.ref_count(1) == 1 and pool.ref_count(6) == 1

    def test_truncate_then_regrow_gets_the_same_run_back(self):
        pool = make_pool()
        slot = pool.reserve(4 * BLOCK)
        pool.reserve(BLOCK)  # pins block 4
        pool.set_length(slot, BLOCK)
        assert pool.truncate(slot, BLOCK) == 3
        assert pool.free_extents() == [(1, 3), (5, 11)]
        assert pool.block_table(pool.reserve(3 * BLOCK)) == [1, 2, 3]

    def test_orphaned_descendants_move_to_the_extents(self):
        pool = make_pool(num_blocks=4)
        tokens = np.arange(3 * BLOCK)
        owner = pool.reserve(3 * BLOCK)
        fill(pool, owner, tokens)
        pool.free(owner)
        assert pool.cached_free_blocks() == [2, 1, 0]
        # Sole owner of a revived tail block: it is de-indexed, and so are
        # blocks 1 and 2, whose chained identity it anchored.
        pool.reserve(BLOCK, shared=pool.match_prefix(tokens[:BLOCK]), private_tail=True)
        assert pool.cached_free_blocks() == []
        assert pool.free_extents() == [(1, 3)]
        check_pool_invariants(pool)

    def test_stale_shared_chain_is_rejected_before_anything_moves(self):
        pool = make_pool()
        slot = pool.reserve(2 * BLOCK)
        stale = pool.block_table(slot)
        pool.free(slot)  # unpublished: back in the extents, not matchable
        with pytest.raises(ConfigurationError):
            pool.reserve(3 * BLOCK, shared=stale)
        assert pool.free_block_count == pool.num_blocks
        check_pool_invariants(pool)

    def test_block_alloc_event_and_counter_report_runs(self):
        from repro.obs import MetricsRegistry, Tracer

        pool = make_pool(num_blocks=8)
        pool.tracer = Tracer()
        holes(pool, [-1, 1, -1, 1, -1])  # free: 0, 2, 4 and [5, 8)
        pool.reserve(3 * BLOCK)  # [5, 6, 7]
        pool.reserve(3 * BLOCK)  # 0, 2, 4
        events = pool.tracer.events_named("cache.block_alloc")
        assert [event.args["runs"] for event in events] == [1, 1, 1, 1, 1, 1, 3]
        registry = MetricsRegistry()
        pool.publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["cache.table_runs"] == pool.table_runs == 9
        assert snapshot["cache.reservations"] == 7
        assert snapshot["cache.gather_bytes"] == 0


# ----------------------------------------------------------------------
# Property: same eviction decisions as the one-list LRU policy
# ----------------------------------------------------------------------
def chain_identity(pool, block):
    """The token prefix a published block stands for (its chained radix key)."""
    runs = []
    while block != -1:
        block, run = pool.block_key_of(block)
        runs.append(run)
    return b"".join(reversed(runs))


class EvictionLog:
    """Records every published block an allocation reclaims, by token prefix.

    With ``audit`` (the extent-aware pool only) each allocation is also
    checked against the placement contract as it happens.
    """

    def __init__(self, pool, audit=False):
        self.pool = pool
        self.evicted = []
        self.audit = audit
        self.demand = None
        self._depth = 0
        self._take, self._unindex = pool._take, pool._unindex
        pool._take, pool._unindex = self.take, self.unindex

    def take(self, count, after=None, before=None):
        self.demand = count
        extents, evictions = self.pool.free_extents(), len(self.evicted)
        try:
            picked = self._take(count, after, before)
        finally:
            self.demand = None
        if self.audit and count and len(self.evicted) == evictions:
            # (c) Nothing was reclaimed, so the request came out of the
            # extents as they stood: in the fewest runs they allow, not
            # counting runs that extend a table neighbour's.
            sizes, fewest, covered = sorted((size for _, size in extents), reverse=True), 0, 0
            while covered < count:
                covered += sizes[fewest]
                fewest += 1
            extends = (after is not None and picked[0][0] == after + 1) + (
                before is not None and sum(picked[-1]) == before
            )
            assert len(picked) - extends <= fewest
        return picked

    def unindex(self, block, orphans):
        reclaim = self._depth == 0 and self.demand is not None
        if reclaim and self.pool.block_key_of(block) is not None:
            if self.audit:
                # (a) oldest first; (b) only once the unpublished blocks cannot serve.
                assert block == self.pool.cached_free_blocks()[0]
                assert sum(size for _, size in self.pool.free_extents()) + len(orphans) < self.demand
            self.evicted.append(chain_identity(self.pool, block))
        self._depth += 1
        try:
            self._unindex(block, orphans)
        finally:
            self._depth -= 1


class UnauditedHarness(ServingStressHarness):
    """The reference pool breaks the two-structure audit by construction."""

    def check(self):
        self._check_content()


class TestSameEvictionsAsTheLruPolicy:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_blocks=st.integers(6, 24),
        max_slots=st.integers(2, 6),
    )
    def test_random_schedules(self, seed, num_blocks, max_slots):
        geometry = dict(num_blocks=num_blocks, max_slots=max_slots, block_size=4)
        harness = ServingStressHarness(seed=seed, **geometry)
        reference = UnauditedHarness(seed=seed, **geometry)
        reference.cache = LruReferencePool(
            num_layers=2, num_heads=2, d_head=3, block_size=4, num_blocks=num_blocks
        )
        log = EvictionLog(harness.cache, audit=True)
        reference_log = EvictionLog(reference.cache)
        for _ in range(120):
            op = harness.random_op()
            harness.apply(op)  # audits both free structures after the op
            reference.apply(op)
            if log.evicted != reference_log.evicted:
                # The one permitted difference: the reference left an
                # orphaned block deep in its list and evicted the published
                # head instead; the extent map spent the orphan first.  It
                # can only ever *spare* a block — and from here on the two
                # pools cache different prefixes, so the comparison ends.
                assert len(log.evicted) < len(reference_log.evicted)
                assert log.evicted == reference_log.evicted[: len(log.evicted)]
                return
            # (a) the same cached prefixes died, in the same order, so every
            # admission so far hit exactly what it would have hit before.
            assert set(harness.live) == set(reference.live)
            assert harness.cache.free_block_count == reference.cache.free_block_count
            for handle, model in harness.live.items():
                twin = reference.live[handle]
                assert harness.cache.length_of(model.slot) == reference.cache.length_of(twin.slot)
