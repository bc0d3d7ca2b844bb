"""Tests of the block-allocated paged KV cache and its slot views."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.kernels import ForwardPlan, paged_attention
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.models.inference import KVCacheLike
from repro.nn import TransformerConfig
from repro.serve import PagedKVCache, SlotBatchView, check_pool_invariants, workloads


def rows(rectangle):
    """A ``(batch, heads, new_len, d_head)`` rectangle — what ``gather`` returns — as the flat rows ``write`` takes."""
    batch, heads, new_len, d_head = rectangle.shape
    return rectangle.transpose(1, 0, 2, 3).reshape(heads, batch * new_len, d_head)


def make_pool(layers=2, heads=2, d_head=4, block_size=4, num_blocks=8) -> PagedKVCache:
    return PagedKVCache(
        num_layers=layers, num_heads=heads, d_head=d_head, block_size=block_size, num_blocks=num_blocks
    )


class TestAllocation:
    def test_for_model_covers_max_active_at_max_seq_len(self):
        config = TransformerConfig(d_model=32, num_heads=2, num_layers=3, max_seq_len=20)
        pool = PagedKVCache.for_model(config, max_active=3, block_size=8)
        assert pool.num_layers == 3
        assert pool.num_blocks == 3 * 3  # ceil(20 / 8) == 3 blocks per request
        # Three requests at max_seq_len fit simultaneously.
        slots = [pool.reserve(20) for _ in range(3)]
        assert pool.free_block_count == 0
        for slot in slots:
            pool.free(slot)
        assert pool.free_block_count == pool.num_blocks

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ConfigurationError):
            PagedKVCache(num_layers=0, num_heads=1, d_head=1, block_size=1, num_blocks=1)

    @pytest.mark.parametrize("name", ["num_layers", "num_heads", "d_head", "block_size", "num_blocks"])
    def test_rejects_fractional_dimensions(self, name):
        sizes = dict(num_layers=1, num_heads=1, d_head=1, block_size=1, num_blocks=1)
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer >= 1, got 2.5"):
            PagedKVCache(**{**sizes, name: 2.5})

    def test_reserve_accounting_and_exhaustion(self):
        pool = make_pool(block_size=4, num_blocks=4)
        first = pool.reserve(9)  # 3 blocks
        assert pool.blocks_needed(9) == 3
        assert pool.free_block_count == 1
        assert pool.capacity_of(first) == 12
        with pytest.raises(ResourceExhaustedError):
            pool.reserve(5)  # needs 2, only 1 free
        second = pool.reserve(3)
        assert pool.free_block_count == 0
        pool.free(first)
        assert pool.free_block_count == 3
        assert pool.active_slots == [second]

    def test_freed_blocks_are_reused(self):
        pool = make_pool(num_blocks=2, block_size=4)
        slot = pool.reserve(8)
        pool.free(slot)
        again = pool.reserve(8)  # would exhaust the pool if blocks leaked
        assert pool.capacity_of(again) == 8

    def test_memory_is_allocated_once_up_front(self):
        pool = make_pool(layers=2, heads=2, d_head=4, block_size=4, num_blocks=8)
        expected = 2 * 2 * (8 * 2 * 4 * 4) * 8  # layers * (k+v) * pool shape * float64
        assert pool.memory_bytes == expected
        slot = pool.reserve(16)
        assert pool.memory_bytes == expected  # reservation moves no memory
        pool.free(slot)


class TestDataMovement:
    def test_write_gather_roundtrip_across_block_boundaries(self, rng):
        pool = make_pool(block_size=4)
        slot_a = pool.reserve(10)
        slot_b = pool.reserve(6)
        keys = rng.normal(size=(2, 2, 6, 4))
        values = rng.normal(size=(2, 2, 6, 4))
        positions = np.broadcast_to(np.arange(6), (2, 6))
        pool.write(0, [slot_a, slot_b], rows(keys), rows(values), positions)
        got_keys, got_values = pool.gather(0, [slot_a, slot_b], 6)
        np.testing.assert_array_equal(got_keys, keys)
        np.testing.assert_array_equal(got_values, values)
        # Other layers untouched.
        assert not pool.key_blocks[1].any()

    def test_ragged_rows_write_different_positions(self, rng):
        pool = make_pool(block_size=4)
        slots = [pool.reserve(12), pool.reserve(12)]
        keys = rng.normal(size=(2, 2, 1, 4))
        pool.write(1, slots, rows(keys), rows(keys), np.array([[2], [9]]))
        got_keys, _ = pool.gather(1, slots, 12)
        np.testing.assert_array_equal(got_keys[0, :, 2], keys[0, :, 0])
        np.testing.assert_array_equal(got_keys[1, :, 9], keys[1, :, 0])
        assert not got_keys[0, :, 9].any() and not got_keys[1, :, 2].any()

    def test_gather_zero_fills_past_reservation(self, rng):
        pool = make_pool(block_size=4)
        short = pool.reserve(4)
        payload = rng.normal(size=(1, 2, 4, 4))
        pool.write(0, [short], payload[0], payload[0], np.arange(4)[None, :])
        keys, values = pool.gather(0, [short], 10)  # a longer batch-mate's view
        assert keys.shape == (1, 2, 10, 4)
        np.testing.assert_array_equal(keys[:, :, :4], payload)
        assert not keys[:, :, 4:].any() and not values[:, :, 4:].any()

    def test_write_past_reservation_rejected(self, rng):
        pool = make_pool(block_size=4)
        slot = pool.reserve(4)
        payload = rng.normal(size=(1, 2, 1, 4))
        with pytest.raises(ConfigurationError):
            pool.write(0, [slot], payload[0], payload[0], np.array([[4]]))

    def test_negative_position_rejected_not_wrapped(self, rng):
        """A negative position must raise, not wrap into the last block."""
        pool = make_pool(block_size=4)
        slot = pool.reserve(8)
        payload = rng.normal(size=(1, 2, 1, 4))
        with pytest.raises(ConfigurationError):
            pool.write(0, [slot], payload[0], payload[0], np.array([[-1]]))
        assert not pool.key_blocks[0].any()

    def test_set_length_validated_against_reservation(self):
        pool = make_pool(block_size=4)
        slot = pool.reserve(6)  # 2 blocks -> capacity 8
        pool.set_length(slot, 8)
        assert pool.length_of(slot) == 8
        with pytest.raises(ConfigurationError):
            pool.set_length(slot, 9)


class TestSlotBatchView:
    def test_write_view_round_trip(self, rng):
        """What a view writes as flat rows, it reads back per sequence — from the pool's own blocks."""
        pool = make_pool(block_size=4)
        view = pool.view([pool.reserve(12), pool.reserve(12)])
        keys = rng.normal(size=(2, 2, 3, 4))  # (sequences, heads, new tokens, d_head)
        values = rng.normal(size=(2, 2, 3, 4))
        view.write(0, rows(keys), rows(values), np.broadcast_to(np.arange(3), (2, 3)))
        got_keys, got_values = view.view(0, 3)
        np.testing.assert_array_equal(got_keys, keys)
        np.testing.assert_array_equal(got_values, values)
        key_pool, value_pool, runs, block_size = view.attention_operands(0)
        assert key_pool is pool.key_blocks[0] and value_pool is pool.value_blocks[0] and block_size == 4
        for sequence, slot in enumerate(view.slot_ids):
            assert runs[sequence] == [(0, pool.block_table(slot)[0], 3)]
            np.testing.assert_array_equal(key_pool[:, pool.block_table(slot)[0], :3], keys[sequence])
        assert not pool.key_blocks[1].any()

    def test_the_runner_protocol_is_what_the_view_implements(self):
        """``KVCacheLike`` has one implementer, so nothing else notices drift:
        every member exists on ``SlotBatchView`` under the same parameter names."""
        protocol = {
            name: member
            for name, member in vars(KVCacheLike).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        assert sorted(protocol) == ["attention_operands", "view", "write"]
        for name, member in protocol.items():
            assert list(inspect.signature(member).parameters) == list(
                inspect.signature(getattr(SlotBatchView, name)).parameters
            ), name
        assert list(KVCacheLike.__annotations__) == ["lengths"]
        pool = make_pool()
        assert isinstance(pool.view([pool.reserve(4)]).lengths, np.ndarray)

    def test_lengths_commit_back_to_pool(self):
        pool = make_pool(block_size=4)
        slot = pool.reserve(8)
        pool.set_length(slot, 3)
        view = pool.view([slot])
        np.testing.assert_array_equal(view.lengths, [3])
        view.lengths += 2  # what decode_step does in place
        assert pool.length_of(slot) == 3  # not yet published
        view.commit()
        assert pool.length_of(slot) == 5

    def test_commit_is_all_or_nothing(self):
        """The first slot's length used to land before the second slot's overrun raised."""
        pool = make_pool(block_size=4)
        first, second = pool.reserve(8), pool.reserve(4)
        view = pool.view([first, second])
        view.lengths[:] = [5, 9]
        with pytest.raises(ConfigurationError, match=rf"length 9 outside slot {second}'s reserved capacity \[0, 4\]"):
            view.commit()
        assert (pool.length_of(first), pool.length_of(second)) == (0, 0)
        view.lengths[:] = [-1, 2]
        with pytest.raises(ConfigurationError, match=rf"length -1 outside slot {first}'s reserved capacity \[0, 8\]"):
            view.commit()
        assert (pool.length_of(first), pool.length_of(second)) == (0, 0)

    def test_commit_over_a_freed_slot_is_refused(self):
        """It used to raise a bare ``KeyError``."""
        pool = make_pool(block_size=4)
        kept, freed = pool.reserve(8), pool.reserve(8)
        pool.set_length(kept, 2)
        view = pool.view([kept, freed])
        view.lengths[:] = [6, 3]
        pool.free(freed)
        with pytest.raises(ConfigurationError, match=f"slot {freed} of .* is not reserved"):
            view.commit()
        assert pool.active_slots == [kept] and pool.length_of(kept) == 2

    def test_unknown_and_repeated_slots_are_rejected(self):
        """Both were accepted or half-accepted: a bare ``KeyError``, and two
        sequences silently writing over each other in one slot."""
        pool = make_pool()
        slot = pool.reserve(8)
        before = (pool.table_version, pool.free_block_count, pool.active_slots)
        with pytest.raises(ConfigurationError, match="slot 99 "):
            pool.view([slot, 99])
        with pytest.raises(ConfigurationError, match=rf"slots \[{slot}\] appear more than once"):
            pool.view([slot, slot])
        assert (pool.table_version, pool.free_block_count, pool.active_slots) == before

    @pytest.mark.parametrize("attention", ["fused", "gather"])
    def test_a_forward_through_a_freed_slot_is_refused(self, attention):
        runner = workloads.tiny_runner("fp")
        runner.fused_paged_attention = attention == "fused"
        pool = PagedKVCache.for_model(runner.config, max_active=2, block_size=8)
        kept, freed = pool.reserve(16), pool.reserve(16)
        view = pool.view([kept, freed])
        runner.prefill(np.array([[1, 2, 3], [4, 5, 6]]), np.array([3, 3]), view)
        view.commit()
        pool.free(freed)
        stored, lengths = pool._pools.copy(), view.lengths.copy()
        with pytest.raises(ConfigurationError, match=f"slot {freed} "):
            runner.decode_step(np.array([7, 8]), view)
        np.testing.assert_array_equal(pool._pools, stored)
        np.testing.assert_array_equal(view.lengths, lengths)
        assert pool.active_slots == [kept] and pool.length_of(kept) == 3
        check_pool_invariants(pool)

    def test_empty_view_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pool().view([])


class TestPublicBoundary:
    """Malformed arguments are a ``ConfigurationError`` naming them, and change nothing."""

    @staticmethod
    def state(pool):
        slots = pool.active_slots
        return (
            {slot: (pool.block_table(slot), pool.length_of(slot)) for slot in slots},
            [pool.ref_count(block) for block in range(pool.num_blocks)],
            pool.free_extents(),
            pool.cached_free_blocks(),
            pool.table_version,
            pool.reservations,
        )

    @pytest.fixture
    def pool(self):
        """A 4-block pool holding one slot on blocks ``[0, 1]``, 3 positions committed."""
        pool = make_pool(block_size=4, num_blocks=4)
        slot = pool.reserve(8)
        assert pool.block_table(slot) == [0, 1]
        pool.set_length(slot, 3)
        return pool

    def refused(self, pool, call, match):
        before = self.state(pool)
        with pytest.raises(ConfigurationError, match=match):
            call()
        assert self.state(pool) == before

    @pytest.mark.parametrize("block", [-3, 7])
    def test_reserve_refuses_a_shared_block_outside_the_pool(self, pool, block):
        self.refused(pool, lambda: pool.reserve(4, shared=[block]), f"shared block {block} outside the pool's 4 blocks")
        check_pool_invariants(pool)

    @pytest.mark.parametrize("capacity", [-5, 2.5])
    def test_reserve_refuses_a_capacity_that_is_no_count(self, pool, capacity):
        self.refused(pool, lambda: pool.reserve(capacity), rf"capacity must be an integer >= 0, got {capacity}")

    def test_reserve_takes_a_zero_capacity_as_one_block(self, pool):
        assert pool.capacity_of(pool.reserve(0)) == 4

    @pytest.mark.parametrize("length", [-3, 2.5])
    def test_set_length_refuses_a_length_that_is_no_count(self, pool, length):
        match = rf"length {length} outside slot 0's reserved capacity \[0, 8\]"
        self.refused(pool, lambda: pool.set_length(0, length), match)

    def test_set_length_takes_numpy_integers(self, pool):
        pool.set_length(0, np.int64(8))
        assert pool.length_of(0) == 8

    @pytest.mark.parametrize("new_length, min_capacity, field", [(1.7, 0, "new_length"), (1, 2.0, "min_capacity")])
    def test_truncate_refuses_a_fraction(self, pool, new_length, min_capacity, field):
        self.refused(pool, lambda: pool.truncate(0, new_length, min_capacity), f"{field} must be an integer >= 0")

    def test_free_refuses_an_unknown_slot(self, pool):
        self.refused(pool, lambda: pool.free(42), "slot 42 is not reserved")
        pool.free(0)
        self.refused(pool, lambda: pool.free(0), "slot 0 is not reserved")


class TestTruncateInvalidatesCachedIndexes:
    """Regression: a view's cached block index must never outlive a rollback.

    ``truncate`` can return blocks to the free list; once another slot's
    reservation regrows into them, a ``SlotBatchView`` still holding the
    pre-rollback index would read (gather) or clobber (write) the new
    owner's KV.  Truncate therefore bumps the table version unconditionally
    — even a rollback that releases nothing changes which positions of the
    retained blocks hold live data — and every view operation freshness-checks first.
    """

    def test_truncate_regrow_gather_write_roundtrip(self, rng):
        pool = make_pool(block_size=4, num_blocks=4)
        victim = pool.reserve(8)  # two blocks
        payload = rng.normal(size=(1, 2, 8, 4))
        pool.write(0, [victim], payload[0], payload[0], np.arange(8)[None, :])
        pool.set_length(victim, 8)
        view = pool.view([victim])
        view.view(0, 8)  # caches the two-block index
        # Roll back past the second block: it returns to the free list...
        assert pool.truncate(victim, 4) == 1
        # ...and another slot's reservation immediately regrows into it.
        other = pool.reserve(4)
        foreign = rng.normal(size=(1, 2, 4, 4))
        pool.write(0, [other], foreign[0], foreign[0], np.arange(4)[None, :])
        pool.set_length(other, 4)
        # Gather through the pre-rollback view: the stale index must refresh,
        # zero-filling past the truncated capacity instead of leaking the new
        # owner's KV out of the reclaimed block.
        keys, values = view.view(0, 8)
        np.testing.assert_array_equal(keys[:, :, :4], payload[:, :, :4])
        assert not keys[:, :, 4:].any() and not values[:, :, 4:].any()
        # Write through the same view: position 4 is out of the truncated
        # slot's capacity now — rejected, not scattered into the new owner.
        with pytest.raises(ConfigurationError):
            view.write(0, payload[0, :, :1], payload[0, :, :1], np.array([[4]]))
        got, _ = pool.gather(0, [other], 4)
        np.testing.assert_array_equal(got, foreign)

    def test_truncate_regrow_with_shared_prefix_blocks(self, rng):
        """Same hazard with the head block shared: the refreshed index keeps
        addressing the shared prefix correctly after the rollback."""
        pool = make_pool(block_size=4, num_blocks=4)
        parent = pool.reserve(4)
        payload = rng.normal(size=(1, 2, 4, 4))
        pool.write(0, [parent], payload[0], payload[0], np.arange(4)[None, :])
        pool.set_length(parent, 4)
        child = pool.reserve(8, shared=pool.block_table(parent))
        pool.set_length(child, 4)
        tail = rng.normal(size=(1, 2, 4, 4))
        pool.write(0, [child], tail[0], tail[0], np.arange(4, 8)[None, :])
        pool.set_length(child, 8)
        view = pool.view([child])
        view.view(0, 8)
        assert pool.truncate(child, 4) == 1  # drop the private tail block
        other = pool.reserve(4)
        foreign = rng.normal(size=(1, 2, 4, 4))
        pool.write(0, [other], foreign[0], foreign[0], np.arange(4)[None, :])
        keys, _ = view.view(0, 8)
        np.testing.assert_array_equal(keys[:, :, :4], payload)  # shared head intact
        assert not keys[:, :, 4:].any()  # reclaimed tail not leaked

    def test_release_free_truncate_still_bumps_the_version(self):
        """A min_capacity rollback releases nothing yet still invalidates:
        the retained blocks' rolled-back positions changed under the view."""
        pool = make_pool(block_size=4)
        slot = pool.reserve(8)
        pool.set_length(slot, 8)
        before = pool.table_version
        assert pool.truncate(slot, 6, min_capacity=8) == 0
        assert pool.table_version > before


class TestForwardPlanConsumers:
    """One plan per forward: the first layer resolves, later layers reuse.

    ``write`` validates, forks and de-indexes on a forward's first layer and
    only assigns afterwards; ``paged_attention`` builds its run segments and
    mask once per run table.  Both must re-derive when the block topology
    moves, and a planned pool must end byte-identical to an unplanned one.
    """

    TOKENS = np.arange(100, 104)

    def shared_prefix_pool(self, rng):
        """``parent`` and ``child`` share a published block; ``owner`` holds another alone."""
        pool = make_pool(layers=2, block_size=4, num_blocks=8)
        head = rng.normal(size=(2, 4, 4))
        parent = pool.reserve(8)
        owner = pool.reserve(8)
        for layer in range(2):
            pool.write(layer, [parent], head + layer, head - layer, np.arange(4)[None, :])
            pool.write(layer, [owner], head * 2 + layer, head * 3, np.arange(4)[None, :])
        pool.set_length(parent, 4)
        pool.set_length(owner, 4)
        assert pool.publish_prefix(parent, self.TOKENS) == 1
        assert pool.publish_prefix(owner, self.TOKENS + 50) == 1
        child = pool.reserve(8, shared=pool.match_prefix(self.TOKENS))
        pool.set_length(child, 3)
        assert pool.ref_count(pool.block_table(parent)[0]) == 2
        return pool, parent, child, owner

    def test_fork_and_deindex_happen_on_the_first_layer_only(self, rng, monkeypatch):
        pool, parent, child, owner = self.shared_prefix_pool(rng)
        shared_block = pool.block_table(parent)[0]
        owner_block = pool.block_table(owner)[0]
        before = [
            (pool.key_blocks[layer][:, shared_block].copy(), pool.value_blocks[layer][:, shared_block].copy())
            for layer in range(2)
        ]
        resolved = []
        resolve = pool._scatter_targets
        monkeypatch.setattr(pool, "_scatter_targets", lambda *args: resolved.append(1) or resolve(*args))

        view = pool.view([child, owner])
        plan = ForwardPlan(np.array([[3], [2]]))
        payloads = [rng.normal(size=(2, 2, 1, 4)) for _ in range(4)]
        view.write(0, rows(payloads[0]), rows(payloads[1]), plan)
        forked = pool.block_table(child)[0]
        assert forked != shared_block and pool.ref_count(shared_block) == 1
        assert pool.block_key_of(owner_block) is None, "a written sole-owner block leaves the index"
        assert pool.block_key_of(shared_block) is not None, "the sharer's copy stays matchable"
        version = pool.table_version
        view.write(1, rows(payloads[2]), rows(payloads[3]), plan)
        assert resolved == [1] and pool.table_version == version
        # Layer 1 landed in the forked block and the sole-owner block ...
        np.testing.assert_array_equal(pool.key_blocks[1][:, forked, 3], payloads[2][0, :, 0])
        np.testing.assert_array_equal(pool.value_blocks[1][:, owner_block, 2], payloads[3][1, :, 0])
        # ... on top of the history the fork copied, in every layer ...
        np.testing.assert_array_equal(pool.key_blocks[1][:, forked, :3], before[1][0][:, :3])
        # ... and the sharer's bytes never moved.
        for layer in range(2):
            np.testing.assert_array_equal(pool.key_blocks[layer][:, shared_block], before[layer][0])
            np.testing.assert_array_equal(pool.value_blocks[layer][:, shared_block], before[layer][1])

    def test_flat_ragged_write_forks_and_deindexes_per_row(self, rng):
        """Two rows for the sharer, one for the sole owner, in one flat write.

        Each flat row resolves against its own slot's table: the sharer's
        first row lands in a shared published block and forks it, its second
        crosses into its private tail block, and the owner's single row
        drops its published block from the index — while the parent's bytes
        stay put and nothing else in the pool moves.
        """
        pool, parent, child, owner = self.shared_prefix_pool(rng)
        shared_block = pool.block_table(parent)[0]
        owner_block = pool.block_table(owner)[0]
        child_tail = pool.block_table(child)[1]
        before = pool.key_blocks[0].copy()
        plan = ForwardPlan.ragged(np.array([3, 2]), np.array([2, 1]))
        assert plan.positions.tolist() == [3, 4, 2] and plan.rows.tolist() == [0, 0, 1]
        payload = rng.normal(size=(2, 3, 4))  # flat (heads, rows, d_head)
        pool.view([child, owner]).write(0, payload, payload * 2, plan)
        forked = pool.block_table(child)[0]
        assert forked != shared_block and pool.ref_count(shared_block) == 1
        assert pool.block_key_of(shared_block) is not None
        assert pool.block_key_of(owner_block) is None
        np.testing.assert_array_equal(pool.key_blocks[0][:, forked, 3], payload[:, 0])
        np.testing.assert_array_equal(pool.key_blocks[0][:, child_tail, 0], payload[:, 1])
        np.testing.assert_array_equal(pool.value_blocks[0][:, owner_block, 2], payload[:, 2] * 2)
        np.testing.assert_array_equal(pool.key_blocks[0][:, forked, :3], before[:, shared_block, :3])
        untouched = [b for b in range(pool.num_blocks) if b not in (forked, child_tail, owner_block)]
        np.testing.assert_array_equal(pool.key_blocks[0][:, untouched], before[:, untouched])

    def test_a_write_deindexes_each_published_target_once_in_ascending_order(self, rng, monkeypatch):
        """Two published sole-owner targets, the first the radix parent of the
        second: the parent's de-index cascades to the child, which is then
        skipped, so each leaves the index exactly once, parent first."""
        pool = make_pool(layers=1, block_size=4, num_blocks=8)
        slot = pool.reserve(8)
        head = rng.normal(size=(2, 8, 4))
        pool.write(0, [slot], head, head, np.arange(8)[None, :])
        pool.set_length(slot, 8)
        assert pool.publish_prefix(slot, np.arange(8)) == 2
        parent, child = pool.block_table(slot)
        assert parent < child and pool.block_key_of(child)[0] == parent
        dropped = []
        unindex = pool._unindex

        def recording(block, orphans):  # the cascade recurses through the instance attribute too
            if block in pool._block_key:
                dropped.append(block)
            unindex(block, orphans)

        monkeypatch.setattr(pool, "_unindex", recording)
        payload = rng.normal(size=(2, 2, 4))
        pool.view([slot]).write(0, payload, payload, ForwardPlan(np.array([[5, 3]])))
        assert dropped == [parent, child]
        assert pool.block_key_of(parent) is None and pool.block_key_of(child) is None

    def test_a_write_over_unpublished_targets_leaves_the_index_untouched(self, rng, monkeypatch):
        pool, _, _, owner = self.shared_prefix_pool(rng)
        fresh = pool.reserve(8)
        index = dict(pool._block_key)
        monkeypatch.setattr(pool, "_deindex", lambda block: pytest.fail(f"de-indexed block {block}"))
        payload = rng.normal(size=(2, 3, 4))
        pool.view([fresh, owner]).write(0, payload, payload, ForwardPlan.ragged(np.array([0, 4]), np.array([2, 1])))
        assert pool._block_key == index

    def test_flat_write_is_refused_whole_when_one_row_overruns_its_slot(self, rng):
        pool = make_pool(layers=1, block_size=4, num_blocks=4)
        short, deep = pool.reserve(4), pool.reserve(8)
        plan = ForwardPlan.ragged(np.array([3, 0]), np.array([2, 6]))  # short row reaches 4
        payload = rng.normal(size=(2, 8, 4))
        with pytest.raises(ConfigurationError, match="position 4 outside"):
            pool.view([short, deep]).write(0, payload, payload, plan)
        assert not pool.key_blocks[0].any()

    def test_planned_pool_is_byte_identical_to_an_unplanned_one(self):
        def written(planned):
            rng = np.random.default_rng(7)
            pool, _, child, owner = self.shared_prefix_pool(rng)
            view = pool.view([child, owner])
            positions = np.array([[3, 4], [2, 3]])
            given = ForwardPlan(positions) if planned else positions
            for layer in range(2):
                view.write(layer, rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)), given)
            return pool, child

        (planned, child), (unplanned, _) = written(True), written(False)
        for layer in range(2):
            np.testing.assert_array_equal(planned.key_blocks[layer], unplanned.key_blocks[layer])
            np.testing.assert_array_equal(planned.value_blocks[layer], unplanned.value_blocks[layer])
        assert planned.block_table(child) == unplanned.block_table(child)
        assert planned.radix_entries() == unplanned.radix_entries()

    def test_targets_are_resolved_again_when_the_topology_moves(self, rng):
        pool = make_pool(layers=2, block_size=4, num_blocks=4)
        slot = pool.reserve(8)
        view = pool.view([slot])
        plan = ForwardPlan(np.array([[5]]))
        payload = rng.normal(size=(2, 1, 4))
        view.write(0, payload, payload, plan)
        pool.truncate(slot, 0)  # the slot keeps one block: position 5 is gone
        with pytest.raises(ConfigurationError):
            view.write(1, payload, payload, plan)

    def test_a_plan_does_not_carry_targets_to_another_view(self, rng):
        pool = make_pool(layers=1, block_size=4, num_blocks=4)
        first, second = pool.reserve(4), pool.reserve(4)
        plan = ForwardPlan(np.array([[1]]))
        payload = rng.normal(size=(2, 1, 4))
        pool.view([first]).write(0, payload, payload, plan)
        pool.view([second]).write(0, payload * 2, payload * 2, plan)
        np.testing.assert_array_equal(pool.key_blocks[0][:, pool.block_table(first)[0], 1], payload[:, 0])
        np.testing.assert_array_equal(pool.key_blocks[0][:, pool.block_table(second)[0], 1], payload[:, 0] * 2)

    def test_attention_layout_is_rebuilt_when_the_run_table_changes(self, rng):
        pool, parent, child, _ = self.shared_prefix_pool(rng)
        view = pool.view([child])
        queries = rng.normal(size=(2, 1, 4))

        def attend(given):
            key_pool, value_pool, runs, block_size = view.attention_operands(0)
            return paged_attention(queries, key_pool, value_pool, runs, block_size, given), runs

        positions = np.array([[3]])
        plan = ForwardPlan(positions)
        shared_context, shared_runs = attend(plan)
        assert attend(plan)[1] is shared_runs and plan._attention[0] is shared_runs
        np.testing.assert_array_equal(shared_context, attend(positions)[0])
        # The write forks the shared block: same plan, new run table.
        payload = rng.normal(size=(2, 1, 4))
        view.write(0, payload, payload, plan)
        forked_context, forked_runs = attend(plan)
        assert forked_runs is not shared_runs and forked_runs != shared_runs
        assert plan._attention[0] is forked_runs
        np.testing.assert_array_equal(forked_context, attend(positions)[0])
        assert not np.array_equal(forked_context, shared_context)
