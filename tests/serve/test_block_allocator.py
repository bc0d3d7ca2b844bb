"""Extent-aware KV block allocation: placement rules and the eviction oracle.

``PagedKVCache`` keeps its unreferenced blocks in two structures — coalesced
extents of *unpublished* blocks, which are interchangeable and handed out as
consecutive runs, and two LRU lists of *published* blocks, reclaimed only
when the extents run dry — those no reservation has matched first, oldest
released first within each; when the blocks are there but no extent holds
them, cached blocks (published, unreferenced) are *relocated* out of a window
so the reservation is still one run.  The unit tests pin each placement,
relocation and reclaim-order rule on hand-built pools; the property test drives the stress
machine's mixed schedules against :class:`repro.serve.stress.LruReferencePool`
(the retired one-list policy) and asserts that only *where* a block lives
changed, never *which cached prefix* dies.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import seed as seeded
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import initialize, invariant, run_state_machine_as_test
from stress_machine import SETTINGS, PoolMachine, key_tokens, run

from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.obs import Tracer
from repro.serve import (
    GenerationConfig,
    PagedKVCache,
    Scheduler,
    check_pool_invariants,
    workloads,
)
from repro.serve.stress import InvariantViolation, LruReferencePool

BLOCK = 4


def make_pool(num_blocks=16, kind=PagedKVCache):
    return kind(num_layers=1, num_heads=1, d_head=2, block_size=BLOCK, num_blocks=num_blocks)


def fill(pool, slot, tokens, start=0):
    """Write and commit ``tokens[start:]`` (payload ``token + 1``), then publish the full blocks."""
    payload = np.broadcast_to(np.asarray(tokens[start:], dtype=float)[None, :, None] + 1.0, (1, len(tokens) - start, 2))
    pool.set_length(slot, start)
    pool.write(0, [slot], payload, payload, np.arange(start, len(tokens))[None, :])
    pool.set_length(slot, len(tokens))
    pool.publish_prefix(slot, tokens)


def chain(name, blocks=2):
    """A prompt no other chain shares a block with."""
    return 100 * (1 + "abcdefgh".index(name)) + np.arange(blocks * BLOCK)


def bytes_of(pool, blocks):
    return pool.key_blocks[0][:, blocks].copy(), pool.value_blocks[0][:, blocks].copy()


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
        # Two unpublished blocks and exactly the three oldest published ones
        # make five free; the two survivors inside the cheapest window move
        # out to the unpublished pair, and the table is one ascending run.
        assert table == [0, 1, 2, 3, 4]
        assert pool.relocated_blocks == 2
        assert pool.cached_free_blocks() == [6, 5, 7]  # same chains, same ages
        assert pool.match_prefix(chains["old"][1]) == []
        assert pool.match_prefix(chains["mid"][1]) == [6]
        assert pool.match_prefix(chains["new"][1]) == [7, 5]
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
        payload = np.ones((1, 1, 2))
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
        pool = make_pool(num_blocks=8)
        pool.tracer = Tracer()
        holes(pool, [-1, 1, -1, 1, -1])  # free: 0, 2, 4 and [5, 8)
        pool.reserve(3 * BLOCK)  # [5, 6, 7]
        pool.reserve(3 * BLOCK)  # 0, 2, 4
        events = pool.tracer.events_named("cache.block_alloc")
        assert [event.args["runs"] for event in events] == [1, 1, 1, 1, 1, 1, 3]
        assert (pool.table_runs, pool.reservations, pool.gather_bytes) == (9, 7, 0)


# ----------------------------------------------------------------------
# Relocation: cached blocks move out of the way of a reservation
# ----------------------------------------------------------------------
def mosaic(pool):
    """Twelve blocks: published heads on the LRU, unpublished tails free, block 3 pinned.

    Cached: 0 1 (chain a), 4 5 (b), 7 8 (c).  Free: 2, 6, 9 10 11 — five
    blocks, no extent longer than three.
    """
    slots = {}
    for name in "abc":
        slots[name] = pool.reserve(3 * BLOCK)
        fill(pool, slots[name], chain(name))
        if name == "a":
            pool.reserve(BLOCK)  # block 3 stays referenced
    for name in "abc":
        pool.free(slots[name])
    assert pool.cached_free_blocks() == [1, 0, 5, 4, 8, 7]
    assert pool.free_extents() == [(2, 1), (6, 1), (9, 3)]


class TestRelocation:
    def test_a_mosaic_yields_one_run_and_the_moved_block_still_matches(self):
        pool = make_pool(num_blocks=12)
        pool.tracer = Tracer()
        mosaic(pool)
        before = bytes_of(pool, [7, 8])
        table = pool.block_table(pool.reserve(4 * BLOCK))
        # [8, 12) is the cheapest clear window: one cached block, which moves
        # to the lowest free address outside it.
        assert table == [8, 9, 10, 11]
        assert pool.match_prefix(chain("c")) == [7, 2]
        for got, want in zip(bytes_of(pool, [7, 2]), before):
            np.testing.assert_array_equal(got, want)
        assert pool.cached_free_blocks() == [1, 0, 5, 4, 2, 7]
        assert pool.free_extents() == [(6, 1)]
        check_pool_invariants(pool)
        # Counted and traced apart from gather_bytes, which stays per-forward traffic.
        assert (pool.relocated_blocks, pool.compactions, pool.gather_bytes) == (1, 1, 0)
        (event,) = pool.tracer.events_named("cache.compact")
        assert event.args == {"count": 4, "moved": 1, "first": 8}
        assert pool.tracer.events_named("cache.block_alloc")[-1].args["runs"] == 1

    @pytest.mark.parametrize("parent, child", [(1, 3), (3, 1)])
    def test_parent_and_child_relocated_in_one_batch_in_either_order(self, parent, child):
        pool = make_pool(num_blocks=7)
        tokens = chain("a")
        singles = [pool.reserve(BLOCK) for _ in range(5)]  # blocks 0..4; 5 and 6 stay free
        fill(pool, singles[parent], tokens[:BLOCK])
        pool.free(singles[child])
        sharer = pool.reserve(2 * BLOCK, shared=pool.match_prefix(tokens))
        assert pool.block_table(sharer) == [parent, child]  # the best fit, wherever it lies
        fill(pool, sharer, tokens, start=BLOCK)
        for slot in (sharer, singles[parent], singles[2]):
            pool.free(slot)
        assert sorted(pool.cached_free_blocks()) == [1, 3] and pool.free_extents() == [(2, 1), (5, 2)]
        before = bytes_of(pool, [parent, child])
        # Blocks 0 and 4 are pinned: [1, 4) is the only clear window, and the
        # moves are processed in address order whichever of the two is the parent.
        assert pool.block_table(pool.reserve(3 * BLOCK)) == [1, 2, 3]
        moved = {1: 5, 3: 6}
        assert pool.match_prefix(tokens) == [moved[parent], moved[child]]
        assert pool.block_key_of(moved[child])[0] == moved[parent]
        assert pool.radix_children(moved[parent]) == {moved[child]}
        for got, want in zip(bytes_of(pool, [moved[parent], moved[child]]), before):
            np.testing.assert_array_equal(got, want)
        check_pool_invariants(pool)

    def test_a_live_child_keeps_matching_when_its_unreferenced_parent_moves(self):
        pool = make_pool(num_blocks=6)
        tokens = chain("a")
        singles = [pool.reserve(BLOCK) for _ in range(6)]
        pool.free(singles[1])
        pool.free(singles[4])
        owner = pool.reserve(2 * BLOCK)
        assert pool.block_table(owner) == [1, 4]
        fill(pool, owner, tokens)
        sharer = pool.reserve(2 * BLOCK, shared=pool.match_prefix(tokens))
        # The sharer rolls back into the first block and rewrites it: a fork,
        # after which only the owner still references the published parent.
        pool.set_length(sharer, 2 * BLOCK)
        pool.truncate(sharer, 1, min_capacity=2 * BLOCK)
        pool.free(singles[5])
        payload = np.ones((1, 1, 2))
        pool.write(0, [sharer], payload, payload, np.array([[1]]))
        assert pool.block_table(sharer) == [5, 4]
        pool.free(owner)
        assert pool.cached_free_blocks() == [1] and pool.ref_count(4) == 1
        pool.free(singles[0])
        pool.free(singles[2])
        version = pool.table_version
        assert pool.block_table(pool.reserve(2 * BLOCK)) == [0, 1]
        assert pool.match_prefix(tokens) == [2, 4]  # the parent moved, its live child was re-keyed
        assert pool.block_key_of(4)[0] == 2 and pool.radix_children(2) == {4}
        assert pool.block_table(sharer) == [5, 4] and pool.table_version == version + 1
        check_pool_invariants(pool)

    @pytest.mark.parametrize("edges_cached, table", [(False, [0, 1, 2, 3, 4, 5]), (True, [0, 1, 8, 9, 10, 11])])
    def test_the_window_continuing_the_prefix_wins_within_half_a_count_of_slack(self, edges_cached, table):
        pool = make_pool()
        tokens = chain("a")
        owner = pool.reserve(2 * BLOCK)  # [0, 1], kept live: the shared prefix
        fill(pool, owner, tokens)
        cached = {3: "b", 4: "c", 9: "d"}
        if edges_cached:
            cached.update({2: "e", 5: "f"})
        sizes = [1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 2]  # blocks 2 3 4 5 [6 7] 8 9 [10 11] 12 13 [14 15]
        slots = [pool.reserve(size * BLOCK) for size in sizes]
        for slot in slots:
            (first, *_) = pool.block_table(slot)
            if first in cached:
                fill(pool, slot, chain(cached[first], 1))
        for slot in slots:
            if pool.block_table(slot)[0] in (2, 3, 4, 5, 8, 9, 10, 13):
                pool.free(slot)
        assert sorted(pool.cached_free_blocks()) == sorted(cached)
        # Four fresh blocks, no extent of four.  [8, 12) costs one move;
        # [2, 6) continues the prefix and costs two (within 4 // 2 of the
        # cheapest: taken) or, with its edges cached too, four (not taken).
        sharer = pool.reserve(6 * BLOCK, shared=pool.match_prefix(tokens))
        assert pool.block_table(sharer) == table
        assert pool.relocated_blocks == (1 if edges_cached else 2)
        for name in cached.values():
            assert len(pool.match_prefix(chain(name, 1))) == 1
        check_pool_invariants(pool)

    def test_a_relocated_block_keeps_its_lru_rank(self):
        def survivors_after_each_eviction(pool):
            slots = [pool.reserve(BLOCK) for _ in range(7)]  # block 7 stays free
            for block, name in ((0, "a"), (2, "b"), (5, "c")):
                fill(pool, slots[block], chain(name, 1))
            for block in (0, 2, 5, 3):  # oldest first; block 3 is unpublished
                pool.free(slots[block])
            pool.reserve(2 * BLOCK)  # two free blocks, not adjacent
            history = []
            for _ in range(3):
                pool.reserve(BLOCK)  # nothing free: evicts the oldest cached block
                history.append({name for name in "abc" if pool.match_prefix(chain(name, 1))})
            return history

        pool, reference = make_pool(num_blocks=8), make_pool(num_blocks=8, kind=LruReferencePool)
        history = survivors_after_each_eviction(pool)
        # Chain b moved from block 2 to block 7 for the two-block table, and
        # still dies second: its age is its identity's, not its address's.
        assert pool.relocated_blocks == 1 and reference.relocated_blocks == 0
        assert history == survivors_after_each_eviction(reference) == [{"b", "c"}, {"c"}, set()]

    def test_nothing_moves_when_an_extent_fits_or_one_block_is_wanted_or_nothing_is_cached(self):
        pool = make_pool(num_blocks=12)
        mosaic(pool)
        assert pool.block_table(pool.reserve(3 * BLOCK)) == [9, 10, 11]  # an extent fits
        assert pool.block_table(pool.reserve(BLOCK)) == [2]
        unpublished = make_pool(num_blocks=8)
        holes(unpublished, [-1, 1, -1, 1, -1, 1, 1, 1])
        assert runs_of(unpublished.block_table(unpublished.reserve(3 * BLOCK))) == 3  # only live blocks in the way
        assert pool.compactions == pool.relocated_blocks == unpublished.compactions == 0

    def test_an_exhausted_pool_raises_before_anything_moves(self):
        pool = make_pool(num_blocks=12)
        mosaic(pool)
        cached, extents, entries = pool.cached_free_blocks(), pool.free_extents(), pool.radix_entries()
        with pytest.raises(ResourceExhaustedError):
            pool.reserve(12 * BLOCK)  # eleven unreferenced blocks
        assert (pool.cached_free_blocks(), pool.free_extents(), pool.radix_entries()) == (cached, extents, entries)
        assert pool.relocated_blocks == 0
        check_pool_invariants(pool)

    def test_a_chain_matched_before_a_relocating_reserve_is_refused(self):
        pool = make_pool(num_blocks=12)
        mosaic(pool)
        stale = pool.match_prefix(chain("c"))
        other = pool.reserve(4 * BLOCK)  # moves block 8 away and takes its address
        assert stale == [7, 8] and 8 in pool.block_table(other) and pool.relocated_blocks == 1
        self.assert_refused_untouched(pool, stale, other)

    def test_a_chain_matched_before_an_evicting_reserve_is_refused(self):
        pool = make_pool(num_blocks=4)
        owner = pool.reserve(2 * BLOCK)
        fill(pool, owner, chain("a"))
        pool.free(owner)
        stale = pool.match_prefix(chain("a"))
        other = pool.reserve(3 * BLOCK)  # evicts the chain's leaf and takes its address
        assert stale == [0, 1] and pool.block_table(other) == [1, 2, 3] and pool.relocated_blocks == 0
        # Block 0 is still cached; block 1 is another request's private memory.
        self.assert_refused_untouched(pool, stale, other)

    @staticmethod
    def assert_refused_untouched(pool, stale, other):
        state = (pool.block_table(other), pool.cached_free_blocks(), pool.free_extents(), pool.table_version)
        with pytest.raises(ConfigurationError, match="stale"):
            pool.reserve(2 * BLOCK, shared=stale)
        assert state == (pool.block_table(other), pool.cached_free_blocks(), pool.free_extents(), pool.table_version)
        assert [pool.ref_count(block) for block in stale] == [0, 1]
        check_pool_invariants(pool)


# ----------------------------------------------------------------------
# Scan resistance: blocks a reservation has matched outlive blocks nobody has
# ----------------------------------------------------------------------
def victims(pool, count):
    """Reserve ``count`` one-block slots on a full pool; the cached block each one reclaims, in order."""
    reclaimed = []
    for _ in range(count):
        cached = pool.cached_free_blocks()
        pool.reserve(BLOCK)
        reclaimed += [block for block in cached if block not in pool.cached_free_blocks()]
    return reclaimed


def share(pool, name):
    """Match chain ``name`` with a reservation of its own, then release it."""
    pool.free(pool.reserve(2 * BLOCK, shared=pool.match_prefix(chain(name))))


def published(pool, names):
    """One two-block slot per chain, filled and published; ``{name: slot}``."""
    slots = {name: pool.reserve(2 * BLOCK) for name in names}
    for name, slot in slots.items():
        fill(pool, slot, chain(name))
    return slots


class TestScanResistance:
    def test_a_matched_chain_survives_a_never_matched_scan_larger_than_the_free_space(self):
        pool = make_pool(num_blocks=8)
        slots = published(pool, "a")
        share(pool, "a")
        pool.free(slots["a"])
        for name in "bcdefg":  # twelve never-matched blocks through the six free ones
            pool.free(published(pool, name)[name])
        assert [name for name in "abcdefg" if len(pool.match_prefix(chain(name))) == 2] == ["a", "e", "f", "g"]
        check_pool_invariants(pool)

    def test_with_nothing_matched_blocks_die_in_release_order(self):
        pool = make_pool(num_blocks=6)
        slots = published(pool, "abc")
        released = []
        for name in "bca":  # each chain leaf first
            released += pool.block_table(slots[name])[::-1]
            pool.free(slots[name])
        assert pool.cached_free_blocks() == released
        assert victims(pool, 6) == released

    def test_cached_free_blocks_lists_the_reclaim_order(self):
        pool = make_pool(num_blocks=6)
        slots = published(pool, "abc")
        share(pool, "a")
        for name in "abc":  # the matched chain is released first, and reclaimed last
            pool.free(slots[name])
        assert pool.cached_free_blocks() == [3, 2, 5, 4, 1, 0]
        assert victims(pool, 6) == [3, 2, 5, 4, 1, 0]

    def test_the_matched_flag_follows_a_relocation(self):
        pool = make_pool(num_blocks=12)
        mosaic(pool)
        share(pool, "c")
        assert pool.cached_free_blocks() == [1, 0, 5, 4, 8, 7]
        pool.reserve(4 * BLOCK)  # [8, 12): block 8 moves to block 2
        assert pool.match_prefix(chain("c")) == [7, 2] and pool.relocated_blocks == 1
        assert pool._matched == {7, 2}
        assert pool.cached_free_blocks() == [1, 0, 5, 4, 2, 7]
        check_pool_invariants(pool)

    def test_a_deindex_drops_the_flag(self):
        pool = make_pool()
        published(pool, "a")
        pool.reserve(2 * BLOCK, shared=pool.match_prefix(chain("a")))
        assert pool._matched == {0, 1}
        pool._deindex(0)  # and block 1, which it anchored
        assert pool._matched == set()

    def test_the_private_tail_deindex_drops_the_flag(self):
        pool = make_pool()
        pool.free(published(pool, "a")["a"])
        tail = pool.reserve(2 * BLOCK, shared=pool.match_prefix(chain("a")), private_tail=True)
        assert pool._matched == {0}  # sole owner of the revived tail block: it leaves the index
        fill(pool, tail, chain("a"))  # published again when its prefill completes
        pool.free(tail)
        assert pool.cached_free_blocks() == [1, 0]  # never matched since: reclaimed first


# ----------------------------------------------------------------------
# Property: same eviction decisions as the one-list LRU policy
# ----------------------------------------------------------------------
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
            self.evicted.append(key_tokens(self.pool, block))
        self._depth += 1
        try:
            self._unindex(block, orphans)
        finally:
            self._depth -= 1


class SameEvictions(PoolMachine):
    """Every op on the extent-aware pool and, in lockstep, on the one-list LRU policy.

    The reference pool breaks the two-structure audit by construction, so
    only its content is audited; the invariant below compares the two.
    """

    POOLS = (PagedKVCache, LruReferencePool)

    def __init__(self, tally=None, **geometry):
        super().__init__(tally, **geometry)
        self.log = EvictionLog(self.pools[0], audit=True)  # audits each allocation as it happens
        self.reference_log = EvictionLog(self.pools[1])

    @invariant()
    def same_evictions(self):
        if len(self.pools) == 1:
            return
        if self.log.evicted != self.reference_log.evicted:
            # The one permitted difference: the reference left an orphaned
            # block deep in its list and evicted the published head instead;
            # the extent map spent the orphan first.  It can only ever
            # *spare* a block — and from here on the two pools cache
            # different prefixes, so the comparison ends.
            assert len(self.log.evicted) < len(self.reference_log.evicted)
            assert self.log.evicted == self.reference_log.evicted[: len(self.log.evicted)]
            self.pools = self.pools[:1]
            return
        # (a) the same cached prefixes died, in the same order, so every
        # admission so far hit exactly what it would have hit before.
        pool, reference = self.pools
        assert len(pool.active_slots) == len(reference.active_slots) == len(self.live)
        assert pool.free_block_count == reference.free_block_count


class AnyGeometry(SameEvictions):
    """:class:`SameEvictions` on pools of 6-24 blocks and 2-6 live slots, drawn before the first op."""

    @initialize(num_blocks=st.integers(6, 24), max_slots=st.integers(2, 6))
    def geometry(self, num_blocks, max_slots):
        drawn = SameEvictions(self.tally, num_blocks=num_blocks, max_slots=max_slots)
        self.pools, self.max_slots, self.version = drawn.pools, drawn.max_slots, drawn.version
        self.log, self.reference_log = drawn.log, drawn.reference_log


#: 120-step schedules: long enough for a pool to fill, evict and relocate many times over.
DEEP = settings(SETTINGS, stateful_step_count=120)


def refusing(kind):
    """``kind``, refusing a third live slot: a refusal the other pool does not share."""

    class Refusing(kind):
        def reserve(self, *args, **kwargs):
            if len(self.active_slots) >= 2:
                raise ResourceExhaustedError("refused")
            return super().reserve(*args, **kwargs)

    return Refusing


class TestSameEvictionsAsTheLruPolicy:
    def test_random_schedules(self):
        # 60 schedules, from a fresh seed on every run.
        run_state_machine_as_test(AnyGeometry, settings=settings(DEEP, max_examples=60))

    @pytest.mark.parametrize("refuses", [0, 1])
    def test_a_reservation_only_one_pool_refuses_is_a_violation(self, refuses):
        pools = list(SameEvictions.POOLS)
        pools[refuses] = refusing(pools[refuses])
        with pytest.raises(InvariantViolation, match="Refusing refused"):
            run(type("OneRefuses", (SameEvictions,), {"POOLS": tuple(pools)}))


class TestThePropertyExercisesRelocation:
    @pytest.mark.parametrize("seed, num_blocks, max_slots", [(1, 12, 3), (3, 16, 4)])
    def test_fixed_seeds_relocate_and_never_copy_more_than_the_request(self, monkeypatch, seed, num_blocks, max_slots):
        calls, open_window = [], PagedKVCache._open_window

        def counted(pool, count, after, reclaimed):
            before = pool.relocated_blocks
            picked = open_window(pool, count, after, reclaimed)
            calls.append((count, pool.relocated_blocks - before))
            return picked

        monkeypatch.setattr(PagedKVCache, "_open_window", counted)
        machine = seeded(seed)(lambda: SameEvictions(num_blocks=num_blocks, max_slots=max_slots))
        run_state_machine_as_test(machine, settings=settings(DEEP, max_examples=4))
        assert sum(moved for _, moved in calls) >= 5
        assert all(count >= 2 and moved <= count for count, moved in calls)


# ----------------------------------------------------------------------
# Serving: relocation changes addresses, never values
# ----------------------------------------------------------------------
class TestServingParity:
    @pytest.mark.parametrize("scheme", ["tender-implicit", "tender-explicit"])
    def test_tokens_and_logits_match_the_one_list_pool_under_churn_and_preemption(self, scheme):
        runner = workloads.tiny_runner(scheme, num_heads=4)
        trace = workloads.churn_trace(True, 24)

        def serve(kind):
            scheduler = Scheduler(
                runner, GenerationConfig(max_new_tokens=20), max_batch_size=4, block_size=8,
                num_blocks=28, prefix_cache=True, preemption=True, record_logits=True,
            )  # fmt: skip
            pool = scheduler.cache
            heads, _, _, d_head = pool.key_blocks[0].shape
            scheduler.cache = kind(pool.num_layers, heads, d_head, pool.block_size, pool.num_blocks)
            for index, request in enumerate(trace):
                # Every fourth request is urgent, so admissions preempt.
                scheduler.submit(dataclasses.replace(request, priority=0 if index % 4 == 3 else 5))
            outputs = {}
            while scheduler.has_pending:
                for output in scheduler.step():
                    outputs[output.request_id] = output
            return scheduler, outputs

        scheduler, outputs = serve(PagedKVCache)
        reference, expected = serve(LruReferencePool)
        assert scheduler.cache.relocated_blocks > 0 and reference.cache.relocated_blocks == 0
        assert scheduler.stats.preemptions == reference.stats.preemptions > 0
        assert scheduler.stats.prefix_hit_tokens == reference.stats.prefix_hit_tokens > 0
        assert outputs.keys() == expected.keys()
        for request_id, output in outputs.items():
            np.testing.assert_array_equal(output.generated, expected[request_id].generated)
            np.testing.assert_array_equal(output.step_logits, expected[request_id].step_logits)
