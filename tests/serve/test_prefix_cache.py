"""Tests of prefix-cached, chunked-prefill serving over the paged KV cache.

The correctness bar, matching the house style: for Tender's integer
pipeline the generated tokens (and step logits) must be **bit-identical**
with the prefix cache on vs off — including across copy-on-write forks,
LRU-evicted-then-recomputed prefixes, and chunked prefill.  The FP
baseline's logits may differ by BLAS row-blocking noise only (its tokens
still match).  The one scoped exception, as everywhere in this repo, is
Tender ``quantize_attention=True``: its *dynamic* attention statistics see
the prefill partitioning itself, so prefix hits legitimately change its
quantization schedule (tokens must still be well-formed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.errors import ConfigurationError
from repro.models import TransformerRunner
from repro.serve import (
    FaultInjector,
    GenerationConfig,
    PagedKVCache,
    ReplicaPool,
    Request,
    Scheduler,
    generate,
    workloads,
)


def tender_runner(weights, calibration, implicit: bool) -> TransformerRunner:
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8)
    return TenderQuantizer(config, implicit=implicit).quantize(weights, calibration)


@pytest.fixture(scope="module")
def runners(outlier_weights, calibration):
    return {
        "float": TransformerRunner(outlier_weights),
        "tender-implicit": tender_runner(outlier_weights, calibration, implicit=True),
        "tender-explicit": tender_runner(outlier_weights, calibration, implicit=False),
    }


@pytest.fixture(scope="module")
def staggered_prompts(corpus_splits):
    """Ragged prompts sharing staggered prefixes (and one disjoint prompt).

    Prompt lengths straddle block boundaries (block size 8 in these tests):
    template A appears whole, extended, and truncated mid-block; template B
    tests an exact-multiple length (the COW-boundary case); the last prompt
    shares nothing.
    """
    train_tokens, _ = corpus_splits
    template_a = train_tokens[:19]
    template_b = train_tokens[40:56]  # 16 tokens: exactly two block_size=8 blocks
    return [
        np.concatenate([template_a, train_tokens[100:104]]),
        np.concatenate([template_a, train_tokens[120:131]]),
        template_a[:13],
        template_b,
        np.concatenate([template_b, train_tokens[140:147]]),
        template_b.copy(),
        train_tokens[200:217],
    ]


def serve_all(runner, prompts, config, *, prefix_cache, prefill_chunk=None, **kwargs):
    scheduler = Scheduler(
        runner,
        config,
        max_batch_size=kwargs.pop("max_batch_size", 3),
        block_size=kwargs.pop("block_size", 8),
        prefix_cache=prefix_cache,
        prefill_chunk=prefill_chunk,
        **kwargs,
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    outputs = {output.request_id: output for output in scheduler.run()}
    return outputs, scheduler


class TestPrefixCacheParity:
    """Cache on vs off: identical tokens, Tender logits bit-identical."""

    @pytest.mark.parametrize("name", ["float", "tender-implicit", "tender-explicit"])
    @pytest.mark.parametrize("prefill_chunk", [None, 5])
    def test_greedy_parity_sweep(self, name, prefill_chunk, runners, staggered_prompts):
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=5)
        off, scheduler_off = serve_all(runner, staggered_prompts, config, prefix_cache=False)
        on, scheduler_on = serve_all(
            runner, staggered_prompts, config, prefix_cache=True, prefill_chunk=prefill_chunk
        )
        assert scheduler_on.stats.prefix_hit_tokens > 0
        assert scheduler_on.stats.prefill_tokens < scheduler_off.stats.prefill_tokens
        for request_id in off:
            np.testing.assert_array_equal(on[request_id].generated, off[request_id].generated)
            np.testing.assert_array_equal(on[request_id].sequence, off[request_id].sequence)
            if name.startswith("tender"):
                np.testing.assert_array_equal(
                    on[request_id].step_logits, off[request_id].step_logits
                )
            else:
                np.testing.assert_allclose(
                    on[request_id].step_logits, off[request_id].step_logits, rtol=0.0, atol=1e-12
                )

    @pytest.mark.parametrize("name", ["float", "tender-implicit"])
    def test_seeded_top_k_parity(self, name, runners, staggered_prompts):
        """Sampling draws the same tokens whether or not KV came from cache."""
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=5, top_k=8, temperature=1.2, seed=23)
        off, _ = serve_all(runner, staggered_prompts, config, prefix_cache=False)
        on, _ = serve_all(runner, staggered_prompts, config, prefix_cache=True)
        for request_id in off:
            np.testing.assert_array_equal(on[request_id].generated, off[request_id].generated)

    def test_cached_outputs_match_solo_generate(self, runners, staggered_prompts):
        """Prefix hits keep the scheduler bit-identical to solo generate()."""
        runner = runners["tender-implicit"]
        config = GenerationConfig(max_new_tokens=4)
        on, _ = serve_all(runner, staggered_prompts, config, prefix_cache=True)
        for request_id, prompt in enumerate(staggered_prompts):
            [alone] = generate(runner, [prompt], config)
            np.testing.assert_array_equal(on[request_id].generated, alone.generated)
            np.testing.assert_array_equal(on[request_id].step_logits, alone.step_logits)

    def test_engine_prefix_cache_passthrough(self, runners, staggered_prompts):
        """``generate(prefix_cache=True)`` matches plain ``generate``."""
        runner = runners["tender-explicit"]
        config = GenerationConfig(max_new_tokens=4)
        plain = generate(runner, staggered_prompts, config)
        cached = generate(runner, staggered_prompts, config, prefix_cache=True)
        chunked = generate(runner, staggered_prompts, config, prefix_cache=True, prefill_chunk=6)
        for row in range(len(staggered_prompts)):
            np.testing.assert_array_equal(cached[row].generated, plain[row].generated)
            np.testing.assert_array_equal(chunked[row].generated, plain[row].generated)
            np.testing.assert_array_equal(cached[row].step_logits, plain[row].step_logits)

    def test_tender_dynamic_attention_stays_well_formed(
        self, outlier_weights, calibration, staggered_prompts
    ):
        """Tender "all" under prefix hits: a different (per-chunk) schedule,
        documented exception to bit-parity — outputs must stay finite/valid."""
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, quantize_attention=True)
        runner = TenderQuantizer(config).quantize(outlier_weights, calibration)
        on, scheduler = serve_all(
            runner, staggered_prompts, GenerationConfig(max_new_tokens=4), prefix_cache=True
        )
        assert scheduler.stats.prefix_hit_tokens > 0
        vocab = runner.config.vocab_size
        for output in on.values():
            assert len(output.generated) == 4
            assert all(0 <= token < vocab for token in output.generated)


def head_sharing_trace():
    """Eight prompts cut from one 30-token template mid-block (block size 4), plus a tail each.

    Four long background requests come first; four short urgent ones land
    while they decode, so a preempting scheduler has victims to replay.
    """
    rng = np.random.default_rng(5)
    template = rng.integers(0, workloads.VOCAB, 30)
    trace = []
    for index, cut in enumerate((30, 21, 13, 27, 6, 30, 18, 11)):
        prompt = np.concatenate([template[:cut], rng.integers(0, workloads.VOCAB, 2 + index % 3)])
        background = index < 4
        trace.append(
            Request(prompt, 12 if background else 4, 0.8 * index if background else 6.0 + 0.5 * index,
                    priority=5 if background else 0)
        )  # fmt: skip
    return trace


@pytest.fixture(scope="module")
def tiny_runners():
    return {scheme: workloads.tiny_runner(scheme, 4) for scheme in ("fp", "tender-implicit", "tender-explicit")}


def serve_alone(runner, trace, config):
    """Every request on a scheduler of its own, one slot, no prefix cache: the reference."""
    outputs = []
    for request in trace:
        scheduler = Scheduler(runner, config, max_batch_size=1, prefix_cache=False)
        scheduler.submit(Request(request.prompt, request.max_new_tokens))
        outputs += scheduler.run()
    return outputs


def serve_trace(runner, trace, config, mode, prefill_chunk):
    """``trace`` on a preempting scheduler, or on two replicas one of which dies, or on neither."""
    options = dict(max_batch_size=2, block_size=4, prefill_chunk=prefill_chunk, preemption=mode == "preemption")
    if mode == "recovery":
        engine = ReplicaPool(runner, 2, config, fault_injector=FaultInjector(seed=0, kill_at={4: 0}), **options)
    else:
        engine = Scheduler(runner, config, prefix_cache=True, **options)
    for request in trace:
        engine.submit(request)
    return engine, {output.request_id: output for output in engine.run()}


class TestPartialHeadParity:
    """A copied partial head is the bytes a recompute writes, however the request was served."""

    @pytest.mark.parametrize("scheme", ["fp", "tender-implicit", "tender-explicit"])
    @pytest.mark.parametrize("prefill_chunk", [5, 16, None])
    @pytest.mark.parametrize("mode", ["plain", "preemption", "recovery"])
    def test_tokens_and_logits_match_the_one_request_at_a_time_serve(
        self, scheme, prefill_chunk, mode, tiny_runners, monkeypatch
    ):
        copies, reserve = [], PagedKVCache.reserve

        def counted(pool, *args, **kwargs):
            copies.append(kwargs.get("partial"))
            return reserve(pool, *args, **kwargs)

        monkeypatch.setattr(PagedKVCache, "reserve", counted)
        runner, config = tiny_runners[scheme], GenerationConfig(max_new_tokens=12)
        alone = serve_alone(runner, head_sharing_trace(), config)
        engine, outputs = serve_trace(runner, head_sharing_trace(), config, mode, prefill_chunk)
        assert any(partial is not None for partial in copies)
        if mode == "preemption":
            assert engine.stats.preemptions >= 1
        if mode == "recovery":
            assert engine.cluster_stats.recoveries >= 1
        for request_id, expected in enumerate(alone):
            np.testing.assert_array_equal(outputs[request_id].generated, expected.generated)
            if scheme != "fp":
                np.testing.assert_array_equal(outputs[request_id].step_logits, expected.step_logits)

    @pytest.mark.parametrize("mode", ["preemption", "recovery"])
    def test_top_k_tokens_survive_preemption_and_recovery(self, mode, tiny_runners):
        # Each record builds its generator on its first draw, from the seed it was
        # submitted under; the generator moves with the record across replays.
        runner = tiny_runners["tender-implicit"]
        config = GenerationConfig(max_new_tokens=12, top_k=8, temperature=1.5, seed=7)
        alone = serve_alone(runner, head_sharing_trace(), config)
        engine, outputs = serve_trace(runner, head_sharing_trace(), config, mode, None)
        assert engine.stats.preemptions >= 1 if mode == "preemption" else engine.cluster_stats.recoveries >= 1
        for request_id, expected in enumerate(alone):
            np.testing.assert_array_equal(outputs[request_id].generated, expected.generated)

    @pytest.mark.parametrize("top_k", [0, 8])
    def test_only_a_top_k_record_builds_a_generator(self, top_k, tiny_runners):
        scheduler = Scheduler(
            tiny_runners["fp"], GenerationConfig(max_new_tokens=12, top_k=top_k), max_batch_size=2,
            block_size=4, prefix_cache=True, preemption=True,
        )  # fmt: skip
        for request in head_sharing_trace():
            scheduler.submit(request)
        built = set()
        while scheduler.has_pending:
            scheduler.step()
            built |= {request_id for request_id, record in scheduler._requests.items() if record.rng is not None}
        assert scheduler.stats.preemptions >= 1
        assert built == (set() if top_k == 0 else set(range(8)))


class TestRefcountAndCow:
    """Reference counting, copy-on-write, and LRU eviction under pressure."""

    def test_identical_prompts_share_blocks(self, runners, corpus_splits):
        """While both requests are live, their full prefix blocks coincide."""
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        prompt = train_tokens[:21]  # blocks 0/1 full (8+8), block 2 partial
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=8), max_batch_size=2,
            block_size=8, prefix_cache=True,
        )
        first = scheduler.submit(prompt)
        second = scheduler.submit(prompt.copy())
        scheduler.step()  # admit + prefill both, first decode
        cache = scheduler.cache
        tables = [cache.block_table(slot) for slot in cache.active_slots]
        assert tables[0][:2] == tables[1][:2]  # shared full blocks
        assert tables[0][2] != tables[1][2]  # private partial block
        for block in tables[0][:2]:
            assert cache.ref_count(block) == 2
        outputs = {o.request_id: o for o in scheduler.run()}
        np.testing.assert_array_equal(outputs[first].generated, outputs[second].generated)
        assert outputs[second].prefix_hit_tokens == 16

    def test_fork_mid_block_on_exact_multiple_prompt(self, runners, corpus_splits):
        """A fully-matched final block is COW-forked for the recomputed token."""
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        prompt = train_tokens[:16]  # exactly two blocks of 8
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=6), max_batch_size=2,
            block_size=8, prefix_cache=True,
        )
        first = scheduler.submit(prompt)
        second = scheduler.submit(prompt.copy())
        scheduler.step()
        cache = scheduler.cache
        tables = [cache.block_table(slot) for slot in cache.active_slots]
        assert tables[0][0] == tables[1][0]  # first block shared
        assert tables[0][1] != tables[1][1]  # final block forked (position 15 rewritten)
        outputs = {o.request_id: o for o in scheduler.run()}
        np.testing.assert_array_equal(outputs[first].generated, outputs[second].generated)
        assert outputs[second].prefix_hit_tokens == 15  # capped at prompt_len - 1

    def test_freed_prefixes_stay_matchable_until_reclaimed(self, runners, corpus_splits):
        """Blocks of a finished request serve later arrivals from the LRU."""
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        prompt = np.concatenate([train_tokens[:16], train_tokens[60:64]])
        config = GenerationConfig(max_new_tokens=2)
        scheduler = Scheduler(
            runner, config, max_batch_size=1, block_size=8, prefix_cache=True
        )
        first = scheduler.submit(prompt)
        second = scheduler.submit(prompt.copy())  # served strictly after the first
        outputs = {o.request_id: o for o in scheduler.run()}
        assert scheduler.cache.active_slots == []
        assert scheduler.cache.cached_block_count > 0  # prefix survives its owner
        assert outputs[second].prefix_hit_tokens == 16
        np.testing.assert_array_equal(outputs[first].generated, outputs[second].generated)

    def test_eviction_under_pressure_then_recompute(self, runners, corpus_splits):
        """A reclaimed prefix is recomputed transparently and re-published."""
        train_tokens, _ = corpus_splits
        runner = runners["tender-implicit"]
        template = train_tokens[:16]
        cached_prompt = np.concatenate([template, train_tokens[60:66]])
        # Each prompt needs ceil((22 + 2 - 1) / 8) = 3 blocks; a 4-block pool
        # forces every admission to reclaim the previous request's blocks.
        evictor_prompts = [train_tokens[80 + i * 29 : 102 + i * 29] for i in range(2)]
        config = GenerationConfig(max_new_tokens=2)
        scheduler = Scheduler(
            runner, config, max_batch_size=1, block_size=8, num_blocks=4, prefix_cache=True
        )
        ids = [scheduler.submit(cached_prompt)]
        for evictor in evictor_prompts:
            ids.append(scheduler.submit(evictor))
        readmitted = scheduler.submit(cached_prompt.copy())
        outputs = {o.request_id: o for o in scheduler.run()}
        # The evictors flushed the template from the 4-block pool, so the
        # re-admission was a cold prefill (recompute), then re-published.
        assert outputs[readmitted].prefix_hit_tokens == 0
        np.testing.assert_array_equal(
            outputs[readmitted].generated, outputs[ids[0]].generated
        )
        np.testing.assert_array_equal(
            outputs[readmitted].step_logits, outputs[ids[0]].step_logits
        )

    def test_cow_write_into_shared_block_isolates_the_reader(self, rng):
        """Direct pool check: writing a shared block forks it for the writer."""
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=2, num_heads=2, d_head=4, block_size=4, num_blocks=6)
        tokens = np.arange(8)
        owner = pool.reserve(8)
        payload = rng.normal(size=(1, 2, 8, 4))
        pool.write(0, [owner], payload[0], payload[0], np.arange(8)[None, :])
        pool.set_length(owner, 8)
        pool.publish_prefix(owner, tokens)
        matched = pool.match_prefix(tokens)
        assert matched == pool.block_table(owner)
        sharer = pool.reserve(8, shared=matched)
        assert pool.ref_count(matched[0]) == 2
        # The sharer rewrites position 5 (inside the second shared block).
        overwrite = rng.normal(size=(1, 2, 1, 4))
        pool.write(0, [sharer], overwrite[0], overwrite[0], np.array([[5]]))
        assert pool.block_table(sharer)[0] == matched[0]  # untouched block still shared
        assert pool.block_table(sharer)[1] != matched[1]  # written block forked
        assert pool.ref_count(matched[1]) == 1
        owner_keys, _ = pool.gather(0, [owner], 8)
        np.testing.assert_array_equal(owner_keys, payload)  # owner unaffected
        sharer_keys, _ = pool.gather(0, [sharer], 8)
        np.testing.assert_array_equal(sharer_keys[0, :, 5], overwrite[0, :, 0])
        # COW copies every layer, not just the written one.
        np.testing.assert_array_equal(pool.gather(1, [sharer], 8)[0], np.zeros((1, 2, 8, 4)))

    def test_private_tail_revival_cannot_be_shared_out_from_under_the_writer(self, rng):
        """A revived sole-owner tail block is de-indexed at reservation.

        Otherwise a later reservation could share it (refcount 2) before the
        owner writes its final prompt token, forcing a copy-on-write fork no
        admission ever budgeted a free block for — on a full pool that write
        would die mid-forward instead of being refused at admission.
        """
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=4)
        tokens = np.arange(12)
        owner = pool.reserve(8)
        payload = rng.normal(size=(1, 1, 8, 2))
        pool.write(0, [owner], payload[0], payload[0], np.arange(8)[None, :])
        pool.publish_prefix(owner, tokens[:8])
        pool.free(owner)
        # Full-match revival with a private tail (prompt length == 2 blocks).
        writer = pool.reserve(8, shared=pool.match_prefix(tokens[:8]), private_tail=True)
        # The tail block left the radix: longer prompts match one block only.
        assert len(pool.match_prefix(tokens)) == 1
        # A second reservation fills the pool around the writer...
        other = pool.reserve(12, shared=pool.match_prefix(tokens))
        assert pool.free_block_count == 0
        # ...and the deferred final-token write still succeeds in place.
        tail_write = rng.normal(size=(1, 1, 1, 2))
        pool.write(0, [writer], tail_write[0], tail_write[0], np.array([[7]]))
        keys, _ = pool.gather(0, [writer], 8)
        np.testing.assert_array_equal(keys[0, :, 7], tail_write[0, :, 0])
        pool.free(other)

    def test_exhausted_lazy_cow_raises_resource_error(self, rng):
        """Direct pool misuse: a fork on a full pool fails loudly, not with
        StopIteration."""
        from repro.errors import ResourceExhaustedError
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=2)
        tokens = np.arange(4)
        owner = pool.reserve(4)
        payload = rng.normal(size=(1, 1, 4, 2))
        pool.write(0, [owner], payload[0], payload[0], np.arange(4)[None, :])
        pool.publish_prefix(owner, tokens)
        sharer = pool.reserve(8, shared=pool.match_prefix(tokens))  # pool now full
        assert pool.free_block_count == 0
        with pytest.raises(ResourceExhaustedError):
            pool.write(0, [sharer], payload[0, :, :1], payload[0, :, :1], np.array([[2]]))

    def test_reclamation_shrinks_published_chains_leaf_first(self, rng):
        """Memory pressure consumes a cached prefix from its tail, one block
        at a time, because ``free`` releases tables in reverse order."""
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=3)
        tokens = np.arange(12)
        slot = pool.reserve(12)
        payload = rng.normal(size=(1, 1, 12, 2))
        pool.write(0, [slot], payload[0], payload[0], np.arange(12)[None, :])
        pool.publish_prefix(slot, tokens)
        assert pool.cached_block_count == 3
        pool.free(slot)
        assert len(pool.match_prefix(tokens)) == 3  # still matchable from the LRU
        # One block of pressure reclaims the chain's LEAF: the first two
        # blocks of the prefix stay matchable.
        fresh = pool.reserve(4)
        assert pool.cached_block_count == 2
        assert len(pool.match_prefix(tokens)) == 2
        pool.free(fresh)

    def test_reclaiming_a_parent_deindexes_descendants(self, rng):
        """A reclaimed radix parent takes its (unreachable) children with it.

        The writer's table keeps a live reference to the chain's head while
        the published tail sits on the LRU; reclaiming the *middle* block
        must also de-index the tail, whose chained identity it anchored.
        """
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=4)
        tokens = np.arange(12)
        slot = pool.reserve(12)
        payload = rng.normal(size=(1, 1, 12, 2))
        pool.write(0, [slot], payload[0], payload[0], np.arange(12)[None, :])
        pool.publish_prefix(slot, tokens)
        pool.free(slot)
        # Revive only the chain's head; the middle + tail stay on the LRU.
        holder = pool.reserve(4, shared=pool.match_prefix(tokens[:4]))
        # Pressure for three fresh blocks consumes the never-used block, the
        # unreferenced leaf, then the middle block — whose de-index must
        # drop nothing else (its child is already gone) while the
        # still-referenced head survives.
        fresh = pool.reserve(12)
        assert pool.cached_block_count == 1
        assert len(pool.match_prefix(tokens)) == 1
        assert pool.match_prefix(tokens) == pool.block_table(holder)
        pool.free(fresh)
        pool.free(holder)

    def test_a_prefix_hit_keeps_the_freed_blocks_data(self, rng):
        """A freed published block is revived by a prefix hit with its bytes intact."""
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=2)
        tokens = np.arange(4)
        slot = pool.reserve(4)
        payload = rng.normal(size=(1, 1, 4, 2))
        pool.write(0, [slot], payload[0], payload[0], np.arange(4)[None, :])
        pool.publish_prefix(slot, tokens)
        pool.free(slot)
        # Prefix-hit reservation: the block keeps its contents (no memset).
        revived = pool.reserve(4, shared=pool.match_prefix(tokens))
        np.testing.assert_array_equal(pool.gather(0, [revived], 4)[0], payload)


class TestChunkedPrefill:
    """Chunked prefill: fairness and bounded per-step prefill work."""

    def test_active_decodes_advance_during_a_long_prefill(self, runners, corpus_splits):
        """Every step with a pending long prompt still advances the decoders."""
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=24), max_batch_size=3,
            block_size=8, prefill_chunk=6,
        )
        short_ids = [scheduler.submit(train_tokens[i * 9 : i * 9 + 5]) for i in range(2)]
        long_id = scheduler.submit(
            train_tokens[100:160], max_new_tokens=2, arrival_time=1.0
        )
        progressed_during_prefill = 0
        while scheduler.has_pending:
            active_before = {
                state.slot: len(state.generated) for state in scheduler._active.values()
            }
            prefilling = bool(scheduler._prefilling)
            scheduler.step()
            if prefilling and active_before:
                after = {
                    state.slot: len(state.generated)
                    for state in scheduler._active.values()
                    if state.slot in active_before
                }
                assert all(after[slot] > active_before[slot] for slot in after)
                progressed_during_prefill += 1
        # The 60-token prompt at 6 tokens/step kept the decoders company for
        # many iterations instead of stalling them in one monolithic prefill.
        assert progressed_during_prefill >= 8

    def test_chunk_budget_bounds_prefill_tokens_per_step(self, runners, corpus_splits):
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=2), max_batch_size=2,
            block_size=8, prefill_chunk=7,
        )
        scheduler.submit(train_tokens[:40])
        scheduler.submit(train_tokens[50:90])
        while scheduler.has_pending:
            before = scheduler.stats.prefill_tokens
            scheduler.step()
            assert scheduler.stats.prefill_tokens - before <= 7

    def test_chunked_equals_unchunked_bitwise(self, runners, corpus_splits):
        """Chunk boundaries never change Tender's integer outputs."""
        train_tokens, _ = corpus_splits
        runner = runners["tender-implicit"]
        prompts = [train_tokens[:23], train_tokens[30:47], train_tokens[60:64]]
        config = GenerationConfig(max_new_tokens=4)
        whole, _ = serve_all(runner, prompts, config, prefix_cache=False)
        for chunk in (1, 3, 8, 64):
            chunked, _ = serve_all(
                runner, prompts, config, prefix_cache=False, prefill_chunk=chunk
            )
            for request_id in whole:
                np.testing.assert_array_equal(
                    chunked[request_id].generated, whole[request_id].generated
                )
                np.testing.assert_array_equal(
                    chunked[request_id].step_logits, whole[request_id].step_logits
                )

    def test_invalid_chunk_rejected(self, runners):
        with pytest.raises(ConfigurationError):
            Scheduler(runners["float"], prefill_chunk=0)


class TestPartialPrefill:
    """TransformerRunner.prefill with a starting position."""

    def test_split_prefill_matches_whole_prefill(self, runners, corpus_splits, paged_view):
        train_tokens, _ = corpus_splits
        prompt = train_tokens[:17]
        for name in ("float", "tender-implicit", "tender-explicit"):
            runner = runners[name]
            whole = paged_view(runner.config)
            reference = runner.prefill(prompt[None, :], np.array([len(prompt)]), whole)
            split = paged_view(runner.config)
            runner.prefill(prompt[None, :9], np.array([9]), split)
            logits = runner.prefill(
                prompt[None, 9:], np.array([len(prompt) - 9]), split,
                start_positions=np.array([9]),
            )
            atol = 0.0 if name.startswith("tender") else 1e-12
            np.testing.assert_allclose(logits, reference, rtol=0.0, atol=atol)
            assert split.lengths[0] == len(prompt)
            for layer in range(runner.config.num_layers):
                for side in (0, 1):
                    np.testing.assert_allclose(
                        split.view(layer, len(prompt))[side],
                        whole.view(layer, len(prompt))[side],
                        rtol=0.0,
                        atol=atol,
                    )

    def test_start_positions_validated(self, runners, corpus_splits, paged_view):
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        cache = paged_view(runner.config, 2)
        tokens = np.stack([train_tokens[:4], train_tokens[4:8]])
        with pytest.raises(ConfigurationError):
            runner.prefill(tokens, np.array([4, 4]), cache, start_positions=np.array([0]))
        with pytest.raises(ConfigurationError):
            runner.prefill(tokens, np.array([4, 4]), cache, start_positions=np.array([-1, 0]))


class TestPoolSizing:
    """Scheduler.blocks_for_requests accounts for shared prefix blocks."""

    def test_lengths_only_sizing_unchanged(self, tiny_config):
        config = GenerationConfig(max_new_tokens=4)
        total = Scheduler.blocks_for_requests(tiny_config, [10, 20], config, block_size=8)
        assert total == -(-13 // 8) + -(-23 // 8)

    def test_identical_prompts_are_not_over_reserved(self, tiny_config, corpus_splits):
        train_tokens, _ = corpus_splits
        prompt = train_tokens[:21]
        config = GenerationConfig(max_new_tokens=4)
        cold = Scheduler.blocks_for_requests(
            tiny_config, [prompt, prompt], config, block_size=8
        )
        shared = Scheduler.blocks_for_requests(
            tiny_config, [prompt, prompt], config, block_size=8, prefix_cache=True
        )
        # The second request shares the two fully-covered prefix blocks.
        assert shared == cold - 2

    def test_shared_sizing_is_sufficient_for_the_engine(self, runners, corpus_splits):
        """An exactly-sized shared pool really serves identical prompts."""
        train_tokens, _ = corpus_splits
        runner = runners["float"]
        prompts = [train_tokens[:21], train_tokens[:21].copy(), train_tokens[:21].copy()]
        config = GenerationConfig(max_new_tokens=4)
        result = generate(runner, prompts, config, prefix_cache=True)
        baseline = generate(runner, prompts, config)
        for row in range(len(prompts)):
            np.testing.assert_array_equal(result[row].generated, baseline[row].generated)


class TestVectorizedPool:
    """The fancy-index gather/write paths against a straightforward reference."""

    @staticmethod
    def reference_gather(pool, slot_ids, layer, length):
        heads = pool.key_blocks[layer].shape[0]
        d_head = pool.key_blocks[layer].shape[3]
        keys = np.zeros((len(slot_ids), heads, length, d_head))
        values = np.zeros_like(keys)
        for row, slot in enumerate(slot_ids):
            table = pool.block_table(slot)
            copied = min(length, len(table) * pool.block_size)
            for block_index in range(pool.blocks_needed(copied) if copied else 0):
                start = block_index * pool.block_size
                stop = min(start + pool.block_size, copied)
                block = table[block_index]
                keys[row, :, start:stop] = pool.key_blocks[layer][:, block, : stop - start]
                values[row, :, start:stop] = pool.value_blocks[layer][:, block, : stop - start]
        return keys, values

    def test_gather_matches_reference_loop(self, rng):
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=2, num_heads=3, d_head=4, block_size=4, num_blocks=12)
        slots = [pool.reserve(10), pool.reserve(4), pool.reserve(14)]
        for row, (slot, length) in enumerate(zip(slots, (10, 4, 13))):
            payload = rng.normal(size=(1, 3, length, 4))
            pool.write(1, [slot], payload[0], payload[0] + 1, np.arange(length)[None, :])
        for length in (1, 4, 5, 12, 16):  # spans short-slot zero fill
            got = pool.gather(1, slots, length)
            want = self.reference_gather(pool, slots, 1, length)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_view_index_survives_unrelated_pool_churn(self, rng):
        """A cached view keeps working while other slots reserve/free/fork."""
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=4, block_size=4, num_blocks=10)
        slot = pool.reserve(8)
        view = pool.view([slot])
        payload = rng.normal(size=(1, 2, 8, 4))
        view.write(0, payload[0], payload[0], np.arange(8)[None, :])
        view.lengths[:] = 8
        view.commit()
        other = pool.reserve(8)  # bumps the table version under the view
        np.testing.assert_array_equal(view.view(0, 8)[0], payload)
        pool.free(other)
        np.testing.assert_array_equal(view.view(0, 8)[0], payload)

    def test_scattered_single_position_writes(self, rng):
        """Decode-shaped writes: each row scatters one ragged position."""
        from repro.serve import PagedKVCache

        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=3, block_size=4, num_blocks=8)
        slots = [pool.reserve(12), pool.reserve(12)]
        payload = rng.normal(size=(2, 2, 3))  # (heads, one row per slot, d_head)
        pool.write(0, slots, payload, payload, np.array([[2], [9]]))
        keys, _ = pool.gather(0, slots, 12)
        np.testing.assert_array_equal(keys[0, :, 2], payload[:, 0])
        np.testing.assert_array_equal(keys[1, :, 9], payload[:, 1])
        assert not keys[0, :, 9].any() and not keys[1, :, 2].any()
