"""Seeded randomized stress suite over the paged-KV invariant web.

``ServingStressHarness`` drives mixed admit/fork/decode/truncate/preempt/
evict/replica-kill/replica-stall/shard-kill/shard-stall/link-drop schedules
against a deliberately tiny ``PagedKVCache`` and audits the global
invariants after *every* op — refcount duality, the free-structure partition
(coalesced extents, matchable LRU), radix consistency, version monotonicity,
and exact shadow-model content.  The replica and shard ops
mirror what ``ReplicaPool`` does to an engine under chaos: a kill (of a
replica, or of one shard — which fails its whole group) tears down every
live slot at once (the checkpoint-and-recover sweep), while stalls and
dropped-then-retried collective links are progress no-ops.  Tier-1 runs 3
seeds (the ``stress_seed`` fixture, parametrized in ``tests/conftest.py``);
set ``REPRO_STRESS_SEEDS=40`` for the nightly soak.

The suite also pins the tooling contract around the harness: logs replay
deterministically, injected corruption is caught and shrinks to a minimal
schedule, and the invariant checker itself detects seeded structural damage
(a checker that can't fail would vacuously pass everything).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import TransformerRunner
from repro.serve import (
    GenerationConfig,
    InvariantViolation,
    PagedKVCache,
    Scheduler,
    ServingStressHarness,
    check_pool_invariants,
    shrink_ops,
)

NUM_OPS = 250


class TestRandomizedSchedules:
    def test_mixed_schedule_preserves_every_invariant(self, stress_seed):
        harness = ServingStressHarness(seed=stress_seed)
        ops = harness.run(NUM_OPS)
        assert len(ops) == NUM_OPS
        kinds = {op["kind"] for op in ops}
        # A healthy schedule exercises the whole op vocabulary, including
        # the replica-crash sweep and stall the cluster layer leans on and
        # the collective-transport faults the shard layer adds (a dropped
        # link retries to a pristine payload; a dead shard sweeps its whole
        # group exactly like a replica crash).
        assert {
            "admit",
            "decode",
            "replica_kill",
            "replica_stall",
            "link_drop",
            "shard_stall",
            "shard_kill",
        } <= kinds

    def test_replay_is_deterministic(self, stress_seed):
        first = ServingStressHarness(seed=stress_seed)
        ops = first.run(100)
        second = ServingStressHarness.replay(ops)
        assert set(second.live) == set(first.live)
        for handle, model in first.live.items():
            assert second.live[handle].tokens == model.tokens
            np.testing.assert_array_equal(second.live[handle].expected, model.expected)
        assert second.cache.free_block_count == first.cache.free_block_count

    def test_tight_pool_reaches_exhaustion_paths(self, stress_seed):
        # A pool smaller than the slot ceiling forces reserve failures,
        # LRU revival, and COW forks to all fire within a short schedule —
        # and reservations that only fit once cached blocks are relocated
        # out of their way (the default geometry relocates nothing on the
        # tier-1 seeds, so its audits alone would be vacuous there).
        harness = ServingStressHarness(
            seed=stress_seed, num_blocks=10, max_slots=4, block_size=4
        )
        harness.run(150)
        assert harness.cache.relocated_blocks > 0


class _CorruptingHarness(ServingStressHarness):
    """Harness with one extra op kind that silently corrupts a payload."""

    def apply(self, op):
        if op["kind"] == "corrupt":
            self.op_log.append(op)
            model = self.live.get(op["handle"])
            if model is not None:
                table = self.cache.block_table(model.slot)
                self.cache.key_blocks[0][0, table[0], 0, 0] += 0.5
            self.check()
            return
        super().apply(op)


class TestFailureTooling:
    def test_injected_corruption_is_caught_and_shrinks(self):
        harness = _CorruptingHarness(seed=1)
        ops = harness.run(40)
        victim = next(handle for handle in harness.live)
        failing = ops + [{"kind": "corrupt", "handle": victim}]

        def fails(candidate):
            try:
                _CorruptingHarness.replay(candidate)
            except InvariantViolation:
                return True
            return False

        assert fails(failing)
        minimal = shrink_ops(failing, fails)
        assert fails(minimal)
        assert len(minimal) < len(failing)
        # The corrupting op itself must survive shrinking, plus whatever
        # admission created its victim slot.
        assert minimal[-1]["kind"] == "corrupt"
        assert len(minimal) <= 3

    def test_checker_detects_refcount_damage(self):
        cache = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=4)
        slot = cache.reserve(8)
        check_pool_invariants(cache)
        cache._refcounts[cache.block_table(slot)[0]] += 1
        with pytest.raises(InvariantViolation, match="refcount"):
            check_pool_invariants(cache)

    def test_checker_detects_version_rollback(self):
        cache = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=4)
        version = check_pool_invariants(cache)
        with pytest.raises(InvariantViolation, match="backwards"):
            check_pool_invariants(cache, version + 1)


@pytest.fixture()
def runner(tiny_weights):
    return TransformerRunner(tiny_weights)


@pytest.fixture(scope="module")
def prompt_pool(corpus_splits):
    train_tokens, _ = corpus_splits
    return [train_tokens[i * 10 : i * 10 + 4 + (i % 5)] for i in range(8)]


class TestReleaseRequest:
    def test_double_release_raises(self, runner, prompt_pool):
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=8), max_batch_size=2)
        request_id = scheduler.submit(prompt_pool[0])
        scheduler.step()
        state = scheduler.release_request(request_id)
        assert state.slot == -1
        with pytest.raises(ConfigurationError, match="not admitted"):
            scheduler.release_request(request_id)

    def test_release_returns_all_blocks(self, runner, prompt_pool):
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=8), max_batch_size=2, prefix_cache=False
        )
        total = scheduler.cache.free_block_count
        request_id = scheduler.submit(prompt_pool[0])
        for _ in range(3):
            scheduler.step()
        assert scheduler.cache.free_block_count < total
        scheduler.release_request(request_id)
        assert scheduler.cache.free_block_count == total

    def test_release_of_unknown_request_raises(self, runner):
        scheduler = Scheduler(runner)
        with pytest.raises(ConfigurationError, match="not admitted"):
            scheduler.release_request(99)
