"""Seeded ``hypothesis`` state machine over the paged-KV invariant web.

``tools/stress_machine.py``'s ``PoolMachine`` has one rule per op of the
scheduler's pool vocabulary — admit, fork, decode, truncate, evict/preempt,
replica/shard kill, replica/shard stall and link drop — against a
deliberately tiny ``PagedKVCache``, and audits the global invariants after
*every* step: refcount duality, the free-structure partition (coalesced
extents, matchable LRU), radix consistency, version monotonicity, and exact
shadow content.  A kill (of a replica, or of one shard — which fails its
whole group) tears down every live slot at once, the checkpoint-and-recover
sweep; stalls and dropped-then-retried collective links must leave the pool
unchanged.  Tier-1 runs 3 seeds (the ``stress_seed`` fixture, parametrized
in ``tests/conftest.py``); set ``REPRO_STRESS_SEEDS=40`` for the nightly soak.

The suite also pins that injected corruption is caught, and that the
invariant checker itself detects seeded structural damage (a checker that
can't fail would vacuously pass everything).
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest
from hypothesis.stateful import precondition, rule
from stress_machine import COPIES, OPS, PoolMachine, run

from repro.errors import ConfigurationError
from repro.models import TransformerRunner
from repro.serve import (
    GenerationConfig,
    InvariantViolation,
    PagedKVCache,
    Scheduler,
    check_pool_invariants,
)


class TestRandomizedSchedules:
    def test_mixed_schedule_preserves_every_invariant(self, stress_seed):
        tally = run(seed=stress_seed)
        # A healthy run exercises the whole op vocabulary, including the
        # replica-crash sweep and stall the cluster layer leans on and the
        # collective-transport faults the shard layer adds (a dropped link
        # retries to a pristine payload; a dead shard sweeps its whole group
        # exactly like a replica crash).
        assert all(tally[op] for op in OPS), tally

    def test_tight_pool_reaches_exhaustion_paths(self, stress_seed):
        # A pool smaller than the slot ceiling forces reserve failures,
        # LRU revival, and COW forks to all fire within a short run — and
        # reservations that only fit once cached blocks are relocated out of
        # their way (the default geometry relocates nothing on the tier-1
        # seeds, so its audits alone would be vacuous there).
        tally = run(seed=stress_seed, num_blocks=10, max_slots=4)
        assert tally["relocated_blocks"] > 0

    def test_partial_heads_are_copied_from_every_kind_of_source(self):
        # Live, cached, relocated by the reservation that copies from it, and
        # reclaimed by it: the content audit then reads every copied slot.
        tally = run(seed=0, num_blocks=10, max_slots=4)
        assert all(tally[kind] for kind in COPIES), tally

    def test_a_seed_is_one_schedule_whatever_modules_are_loaded(self, tmp_path, monkeypatch):
        before = run(seed=0)
        # Short byte strings and large integers: the literals hypothesis would mix into its draws.
        literals = [bytes(range(i % 12, i % 12 + 1 + i % 5)) for i in range(250)] + list(range(100, 350))
        (tmp_path / "many_literals.py").write_text(f"LITERALS = {literals!r}\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            importlib.import_module("many_literals")
            assert run(seed=0) == before
        finally:
            sys.modules.pop("many_literals", None)


class CorruptingMachine(PoolMachine):
    """The pool machine plus one rule that silently corrupts a live slot's first payload."""

    @precondition(lambda self: self.live)
    @rule()
    def corrupt(self):
        cache = self.pools[0]
        cache.key_blocks[0][0, cache.block_table(self.live[0].slots[0])[0], 0, 0] += 0.5


class TestFailureTooling:
    def test_injected_corruption_is_caught(self):
        with pytest.raises(InvariantViolation, match="does not hold the payload"):
            run(CorruptingMachine, seed=1)

    def test_checker_detects_refcount_damage(self):
        cache = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=4)
        slot = cache.reserve(8)
        check_pool_invariants(cache)
        cache._refcounts[cache.block_table(slot)[0]] += 1
        with pytest.raises(InvariantViolation, match="refcount"):
            check_pool_invariants(cache)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda cache: cache._child_runs[-1].reverse(), "unsorted"),
            (lambda cache: cache._child_runs[-1].append(cache._child_runs[-1][0]), "repeats"),
            (lambda cache: cache._child_runs.setdefault(3, []), "empty"),
            (lambda cache: cache._child_runs[-1].pop(), "mirror"),
            (lambda cache: cache._child_runs.setdefault(3, []).append(b"\0" * 32), "mirror"),
            (lambda cache: cache._seeded.add(0), "copied head"),
            (lambda cache: cache._seeded.add(3), "copied head"),
        ],
    )
    def test_checker_detects_run_list_damage(self, damage, message):
        cache = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=4)
        for tokens in ([5, 6, 7, 8], [1, 2, 3, 4]):  # two roots: blocks 0 and 1
            slot = cache.reserve(4)
            cache.set_length(slot, 4)
            cache.publish_prefix(slot, np.array(tokens))
        check_pool_invariants(cache)
        damage(cache)
        with pytest.raises(InvariantViolation, match=message):
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
