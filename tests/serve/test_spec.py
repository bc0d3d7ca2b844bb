"""Tests of speculative draft-and-verify decoding over the paged KV cache.

The correctness bar, matching the house style: speculative decoding must be
**bit-identical** — generated tokens AND the logits behind every committed
token — to non-speculative decoding for Tender's integer pipeline
(implicit and explicit requantization), across draft lengths 1-8, prefix
cache on/off, both shipped drafters, greedy and seeded top-k sampling, and
eos-mid-draft.  The FP baseline's logits may differ by BLAS row-blocking
noise only (its tokens still match on these traces).  Speculation changes
*how many forwards* serving takes, never *what* it serves.

Alongside the end-to-end sweeps: unit tests of the drafters, of
``TransformerRunner.verify`` against sequential decode steps, and of the
``PagedKVCache.truncate`` rollback primitive's refcount / COW / radix-index
edge cases.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TenderConfig, TenderQuantizer
from repro.errors import ConfigurationError
from repro.models import TransformerRunner
from repro.serve import (
    GenerationConfig,
    GenerationEngine,
    ModelDraft,
    PagedKVCache,
    PromptLookupDraft,
    Scheduler,
    SpecConfig,
)
from repro.serve.spec import _SpecState


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
def prompts(corpus_splits):
    """Ragged prompts, including a repetitive one that drafts well."""
    train_tokens, _ = corpus_splits
    span = train_tokens[300:312]
    return [
        train_tokens[:18],
        np.concatenate([span, span, span[:5]]),  # repetitive: lookup hits
        train_tokens[50:61],
        np.concatenate([train_tokens[100:108], train_tokens[100:108]]),
    ]


class count_forwards:
    """Record what the scheduler asks of ``runner.decode_step`` / ``runner.verify``."""

    def __init__(self, runner):
        self.runner = runner
        self.decode_calls = 0
        self.decode_rows = 0
        self.verify_rows = 0
        self.verify_lengths = []
        #: Rows per sequence the LM head ran on: all of them unless a resume tail rode.
        self.verify_heads = []
        decode_step, verify = runner.decode_step, runner.verify

        def counted_decode_step(tokens, cache):
            self.decode_calls += 1
            self.decode_rows += len(tokens)
            return decode_step(tokens, cache)

        def counted_verify(tokens, cache, start_positions, lengths, **kwargs):
            self.verify_rows += int(np.size(tokens))
            self.verify_lengths.append([int(length) for length in lengths])
            self.verify_heads.append([int(rows) for rows in kwargs.get("logit_rows", lengths)])
            return verify(tokens, cache, start_positions, lengths=lengths, **kwargs)

        runner.decode_step, runner.verify = counted_decode_step, counted_verify

    def restore(self):
        del self.runner.decode_step, self.runner.verify


def serve_all(runner, prompts, config, *, speculation=None, **kwargs):
    scheduler = Scheduler(
        runner,
        config,
        max_batch_size=kwargs.pop("max_batch_size", 3),
        block_size=kwargs.pop("block_size", 8),
        speculation=speculation,
        **kwargs,
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    outputs = {output.request_id: output for output in scheduler.run()}
    return outputs, scheduler


# ----------------------------------------------------------------------
# Drafters
# ----------------------------------------------------------------------
def full_window_scan(tokens, max_tokens, max_ngram, min_ngram):
    """``PromptLookupDraft.propose`` as it was before candidates were narrowed.

    A verbatim copy, kept as the oracle: compare every window of every
    n-gram length against the suffix.
    """
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    length = len(tokens)
    if max_tokens < 1 or length < min_ngram + 1:
        return np.empty(0, dtype=np.int64)
    for ngram in range(min(max_ngram, length - 1), min_ngram - 1, -1):
        pattern = tokens[length - ngram :]
        windows = np.lib.stride_tricks.sliding_window_view(tokens, ngram)
        # The final window is the suffix itself; only earlier ones count.
        matches = np.nonzero((windows[:-1] == pattern).all(axis=1))[0]
        if len(matches):
            # Prefer the most recent occurrence that still has a full
            # draft's worth of continuation after it (recent context
            # drafts best); fall back to the earliest occurrence, whose
            # continuation is the longest available.
            starts = matches + ngram
            full = starts[length - starts >= max_tokens]
            start = int(full[-1]) if len(full) else int(starts[0])
            return tokens[start : start + max_tokens].copy()
    return np.empty(0, dtype=np.int64)


class TestPromptLookupDraft:
    def test_proposes_continuation_of_most_recent_match(self):
        drafter = PromptLookupDraft(max_ngram=3)
        tokens = np.array([1, 2, 3, 9, 9, 1, 2, 3, 7, 8, 1, 2, 3])
        draft = drafter.propose(0, tokens, 4)
        # Suffix [1, 2, 3] most recently occurred at index 5; what followed
        # it there is [7, 8, 1, 2] — the proposed continuation.
        assert draft.tolist() == [7, 8, 1, 2]

    def test_falls_back_to_shorter_ngrams(self):
        drafter = PromptLookupDraft(max_ngram=3, min_ngram=1)
        tokens = np.array([5, 6, 7, 5, 9])
        # No earlier [7, 5, 9] or [5, 9]; unigram [9] has no earlier
        # occurrence either -> no match on the last token... but [5] does
        # occur earlier when the suffix shrinks to it?  The suffix is always
        # the *last* n tokens, so the unigram suffix is [9]: no match.
        assert drafter.propose(0, tokens, 4).size == 0
        tokens = np.array([5, 6, 7, 9, 5])
        draft = drafter.propose(0, tokens, 2)
        # Unigram suffix [5] matched at index 0; continuation [6, 7].
        assert draft.tolist() == [6, 7]

    def test_respects_max_tokens_and_sequence_end(self):
        drafter = PromptLookupDraft(max_ngram=2)
        tokens = np.array([4, 4, 4, 4])
        assert drafter.propose(0, tokens, 2).tolist() == [4, 4]
        assert len(drafter.propose(0, tokens, 10)) <= 10
        assert drafter.propose(0, tokens, 0).size == 0

    def test_cycle_proposal_is_exact(self):
        drafter = PromptLookupDraft()
        cycle = [3, 1, 4, 1, 5]
        tokens = np.array(cycle * 4)
        draft = drafter.propose(0, tokens, 7)
        expected = (cycle * 3)[:7]
        assert draft.tolist() == expected

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(max_ngram=2, min_ngram=3), "need min_ngram <= max_ngram, got 3 > 2"),
            (dict(max_ngram=0), "max_ngram must be an integer >= 1, got 0"),
            (dict(max_ngram=2.9, min_ngram=1.5), "max_ngram must be an integer >= 1, got 2.9"),
            (dict(min_ngram=1.5), "min_ngram must be an integer >= 1, got 1.5"),
            (dict(min_ngram="2"), "min_ngram must be an integer >= 1, got '2'"),
        ],
    )
    def test_invalid_bounds_raise(self, options, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            PromptLookupDraft(**options)

    @settings(max_examples=300, deadline=None)
    @given(
        tokens=st.lists(st.integers(0, 3), max_size=40),
        max_tokens=st.integers(0, 14),
        bounds=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted),
    )
    def test_proposals_equal_the_full_window_scan(self, tokens, max_tokens, bounds):
        """Narrowing to the suffix's last token never changes a proposal.

        A four-token alphabet makes every n-gram length match, miss and tie
        often; the oracle is the scan ``propose`` used to run.
        """
        min_ngram, max_ngram = bounds
        drafter = PromptLookupDraft(max_ngram=max_ngram, min_ngram=min_ngram)
        tokens = np.array(tokens, dtype=np.int64)
        expected = full_window_scan(tokens, max_tokens, max_ngram, min_ngram)
        assert drafter.propose(0, tokens, max_tokens).tolist() == expected.tolist()


class TestModelDraft:
    def test_proposals_match_fresh_greedy_decode(self, runners, paged_view):
        """Cached catch-up must equal drafting from scratch every time."""
        runner = runners["float"]
        drafter = ModelDraft(runner)
        rng = np.random.default_rng(5)
        sequence = rng.integers(0, runner.config.vocab_size, size=12)
        draft = drafter.propose(7, sequence, 4)

        # From-scratch reference: prefill everything, greedy-decode 4.
        cache = paged_view(runner.config)
        runner.prefill(sequence[None, :], np.array([len(sequence)]), cache)
        reference = []
        token = int(sequence[-1])
        cache.lengths[:] = len(sequence) - 1
        logits = runner.decode_step(np.array([token]), cache)
        for _ in range(4):
            token = int(np.argmax(logits[0]))
            reference.append(token)
            logits = runner.decode_step(np.array([token]), cache)
        assert draft.tolist() == reference

        # Extend the sequence as if 2 drafts were accepted plus a correction,
        # and re-propose: the rolled-back cache must give the same answer as
        # a fresh drafter.
        extended = np.concatenate([sequence, draft[:2], [int(draft[2]) ^ 1]])
        continued = drafter.propose(7, extended, 3)
        fresh = ModelDraft(runner).propose(7, extended, 3)
        assert continued.tolist() == fresh.tolist()

    @pytest.fixture(scope="class")
    def draft_runners(self, runners, calibration):
        """Two layers of FP; one layer of Tender "all" — its dynamic attention
        statistics span a forward's rows, so only a one-layer stack writes KV
        that does not depend on how the history was chunked into forwards."""
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, quantize_attention=True)
        one_layer = ModelDraft.truncated(runners["float"], 1).runner.weights
        return {"fp": runners["float"], "tender-all": TenderQuantizer(config).quantize(one_layer, calibration)}

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scheme", ["fp", "tender-all"])
    def test_a_warm_drafter_proposes_what_a_cold_one_does(self, scheme, seed, draft_runners):
        """Rolled-back KV — mid-block, on a block edge, all of it — is never seen again.

        The target accepts a random number of every six drafts and corrects
        the next (sometimes exactly up to a block edge of the drafter's
        16-token blocks), and once the request id comes back with another
        sequence altogether.  The warm drafter rewinds its one slot and
        catches up; a cold one prefills the committed sequence into a fresh
        pool.  Tender "all" takes its attention statistics over the
        whole gathered window, so a stale row inside it would show.
        """
        runner = draft_runners[scheme]
        assert runner._plain_attention == (scheme == "fp")
        vocab, block = runner.config.vocab_size, 16
        rng = np.random.default_rng(seed)
        warm = ModelDraft(runner)
        committed = rng.integers(0, vocab, size=13)
        landings = []
        for step in range(12):
            draft = warm.propose(0, committed, 6)
            assert draft.tolist() == ModelDraft(runner).propose(0, committed, 6).tolist(), (step, landings)
            if step == 6:  # the id is reused: nothing of the old sequence survives
                committed = np.concatenate([[(committed[0] + 1) % vocab], rng.integers(0, vocab, size=20)])
                landings.append(0)
                continue
            accepted = int(rng.integers(0, len(draft) - 1))  # at least one cached draft is rolled back
            to_edge = -len(committed) % block
            if to_edge < len(draft) - 1 and rng.random() < 0.5:
                accepted = to_edge
            landings.append(len(committed) + accepted)
            committed = np.concatenate([committed, draft[:accepted], [(draft[accepted] + 1) % vocab]])
        edges = [landing % block == 0 for landing in landings]
        assert 0 in landings and any(edges[:6] + edges[7:]) and not all(edges)

    def test_release_drops_the_request_pool(self, runners):
        drafter = ModelDraft(runners["float"])
        drafter.propose(3, np.arange(5), 2)
        ((view, history),) = drafter._states.values()
        assert view._paged.active_slots == view.slot_ids and history[:5].tolist() == [0, 1, 2, 3, 4]
        assert view._paged.capacity_of(view.slot_ids[0]) == runners["float"].config.max_seq_len
        assert view._paged.free_block_count == 0, "one slot at max_seq_len is the whole pool"
        drafter.release(3)
        assert not drafter._states

    def test_truncated_copy_shares_weights(self, runners):
        runner = runners["float"]
        drafter = ModelDraft.truncated(runner, 1)
        assert drafter.runner.config.num_layers == 1
        assert drafter.runner.weights.blocks[0] is runner.weights.blocks[0]
        assert drafter.runner.weights.lm_head is runner.weights.lm_head
        with pytest.raises(ConfigurationError):
            ModelDraft.truncated(runner, 0)
        with pytest.raises(ConfigurationError):
            ModelDraft.truncated(runner, runner.config.num_layers + 1)
        with pytest.raises(ConfigurationError, match=re.escape("num_layers must be an integer >= 1, got 1.5")):
            ModelDraft.truncated(runner, 1.5)

    def test_respects_draft_model_max_seq_len(self, runners):
        runner = runners["float"]
        drafter = ModelDraft(runner)
        near_limit = np.zeros(runner.config.max_seq_len - 2, dtype=np.int64)
        assert len(drafter.propose(0, near_limit, 8)) <= 2

    def test_release_drops_state(self, runners):
        drafter = ModelDraft(runners["float"])
        drafter.propose(3, np.array([1, 2, 3, 4]), 2)
        assert 3 in drafter._states
        drafter.release(3)
        assert 3 not in drafter._states


class TestSpecConfig:
    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(min_draft=0), "min_draft must be an integer >= 1, got 0"),
            (dict(draft_tokens=9, max_draft=8), "draft_tokens 9 not in [1, 8]"),
            (dict(ema_decay=0.0), "ema_decay must lie in (0, 1], got 0.0"),
            (dict(grow_threshold=0.2, shrink_threshold=0.3), "shrink_threshold < grow_threshold"),
            (dict(draft_tokens=2.5), "draft_tokens must be an integer >= 1, got 2.5"),
            (dict(max_draft=8.5), "max_draft must be an integer >= 1, got 8.5"),
            (dict(min_draft=1.5), "min_draft must be an integer >= 1, got 1.5"),
        ],
    )
    def test_validation(self, options, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            SpecConfig(drafter=PromptLookupDraft(), **options)

    def test_scheduler_takes_only_a_spec_config(self):
        with pytest.raises(ConfigurationError, match="speculation must be a SpecConfig"):
            Scheduler(None, speculation="yes")  # type: ignore[arg-type]

    def test_ema_adapts_draft_length(self):
        config = SpecConfig(drafter=PromptLookupDraft(), draft_tokens=4, max_draft=8)
        state = _SpecState(draft_len=4)
        for _ in range(3):
            state.observe(4, 4, config)
        assert state.draft_len > 4
        for _ in range(8):
            state.observe(state.draft_len, 0, config)
        assert state.draft_len == config.min_draft
        state.observe(0, 0, config)  # no proposal: no change
        assert state.draft_len == config.min_draft

    def test_non_adaptive_pins_draft_length(self):
        config = SpecConfig(
            drafter=PromptLookupDraft(), draft_tokens=3, adaptive=False
        )
        state = _SpecState(draft_len=3)
        for _ in range(5):
            state.observe(3, 3, config)
        assert state.draft_len == 3


# ----------------------------------------------------------------------
# TransformerRunner.verify vs sequential decode steps
# ----------------------------------------------------------------------
def ragged_verify(runner, prompts, drafts, paged_view, how):
    """Logits of ``[pending, drafts...]`` per prompt, flat, computed ``how``.

    ``"flat"``: one ragged verify over all sequences; ``"alone"``: one verify
    per sequence, each in a forward of its own; ``"steps"``: sequential
    decode steps per sequence.  Every slot is reserved at exactly what its
    sequence needs, so a write past one raises.
    """
    groups = [list(range(len(prompts)))] if how == "flat" else [[i] for i in range(len(prompts))]
    out = []
    for group in groups:
        needed = [len(prompts[i]) + len(drafts[i]) + 1 for i in group]
        cache = paged_view(runner.config, block_size=8, capacities=needed)
        lengths = np.array([len(prompts[i]) for i in group])
        tokens = np.zeros((len(group), lengths.max()), dtype=np.int64)
        for row, i in enumerate(group):
            tokens[row, : lengths[row]] = prompts[i]
        pending = runner.prefill(tokens, lengths, cache).argmax(axis=-1)
        runs = [np.concatenate([[pending[row]], drafts[i]]) for row, i in enumerate(group)]
        if how == "steps":
            out.append(np.concatenate([runner.decode_step(np.array([t]), cache) for t in runs[0]]))
        else:
            out.append(
                runner.verify(np.concatenate(runs), cache, lengths, lengths=[len(r) for r in runs])
            )
        assert cache.lengths.tolist() == needed
    return np.concatenate(out)


class TestVerifyForward:
    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
    def test_verify_logits_match_decode_steps_bitwise(self, runners, prompts, name, paged_view):
        runner = runners[name]
        prompt = prompts[0]
        drafts = np.array([7, 11, 13, 17])

        # Sequential reference: prefill, then decode the pending token and
        # each draft one step at a time.
        cache_a = paged_view(runner.config)
        logits = runner.prefill(prompt[None, :], np.array([len(prompt)]), cache_a)
        pending = int(np.argmax(logits[0]))
        sequential = []
        token = pending
        for draft in list(drafts):
            step = runner.decode_step(np.array([token]), cache_a)
            sequential.append(step[0])
            token = int(draft)
        bonus = runner.decode_step(np.array([token]), cache_a)
        sequential.append(bonus[0])

        # One verify forward over [pending, drafts...].
        cache_b = paged_view(runner.config)
        runner.prefill(prompt[None, :], np.array([len(prompt)]), cache_b)
        row = np.concatenate([[pending], drafts])
        verified = runner.verify(row, cache_b, np.array([len(prompt)]), np.array([len(row)]))
        assert verified.shape == (len(drafts) + 1, runner.config.vocab_size)
        for position, reference in enumerate(sequential):
            assert np.array_equal(verified[position], reference), position
        assert cache_b.lengths[0] == len(prompt) + len(drafts) + 1

    def test_verify_float_close(self, runners, prompts, paged_view):
        runner = runners["float"]
        prompt = prompts[2]
        cache = paged_view(runner.config)
        logits = runner.prefill(prompt[None, :], np.array([len(prompt)]), cache)
        pending = int(np.argmax(logits[0]))
        reference = runner.decode_step(np.array([pending]), cache)

        cache_b = paged_view(runner.config)
        runner.prefill(prompt[None, :], np.array([len(prompt)]), cache_b)
        verified = runner.verify(np.array([pending, 3]), cache_b, np.array([len(prompt)]), np.array([2]))
        np.testing.assert_allclose(verified[0], reference[0], atol=1e-12)

    def test_verify_validation(self, runners, paged_view):
        runner = runners["float"]
        cache = paged_view(runner.config)
        with pytest.raises(TypeError):  # a batch is its tokens *and* the rows each sequence owns
            runner.verify(np.array([[1, 2]]), cache, np.array([0]))
        with pytest.raises(ConfigurationError):
            runner.verify(np.array([[1, 2]]), cache, np.array([0, 1]), lengths=np.array([2]))
        with pytest.raises(ConfigurationError):
            runner.verify(np.array([[1, 2]]), cache, np.array([-1]), lengths=np.array([2]))
        with pytest.raises(ConfigurationError):  # lengths must account for every token
            runner.verify(np.array([1, 2, 3]), cache, np.array([0]), lengths=np.array([2]))
        with pytest.raises(ConfigurationError):  # ... and include the pending token
            runner.verify(np.array([1, 2]), cache, np.array([0]), lengths=np.array([0]))
        assert cache.lengths[0] == 0 and not cache._paged._pools.any(), "rejected before any write"

    @pytest.mark.parametrize("attention", ["fused", "gather"])
    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit", "float"])
    def test_flat_verify_equals_per_row_verify_equals_decode_steps(
        self, runners, prompts, name, attention, paged_view, monkeypatch
    ):
        """Every row at its own depth, in one forward, changes no row's logits.

        Four ragged sequences carry 3, 0, 12 and 1 drafts: the flat verify
        over their 20 rows must reproduce, row for row, (a) a verify of each
        sequence alone and (b) the sequential decode steps — bit for bit
        under Tender, tokens plus 1e-12 under the FP baseline; through the
        fused kernel, and through ``dense_cached_attention`` re-padding the
        same rows over gathered copies.
        """
        runner = runners[name]
        monkeypatch.setattr(runner, "fused_paged_attention", attention == "fused")
        drafts = [np.array([7, 11, 13]), np.array([], dtype=int), np.arange(40, 52), np.array([5])]
        flat, alone, steps = (
            ragged_verify(runner, prompts, drafts, paged_view, how) for how in ("flat", "alone", "steps")
        )
        assert flat.shape == (sum(len(d) + 1 for d in drafts), runner.config.vocab_size)
        if name == "float":
            for other in (alone, steps):
                np.testing.assert_allclose(flat, other, rtol=0.0, atol=1e-12)
                assert np.array_equal(flat.argmax(axis=-1), other.argmax(axis=-1))
        else:
            assert np.array_equal(flat, alone)
            assert np.array_equal(flat, steps)

    def test_a_row_at_its_last_reserved_position_writes_nothing_outside_its_blocks(
        self, runners, prompts
    ):
        """A one-token row beside a 12-draft row: the short row's reservation
        ends at its own position, and nothing but the two slots' own blocks —
        and of the short row's block only its one position — changes."""
        runner = runners["tender-implicit"]
        config = runner.config
        pool = PagedKVCache.for_model(config, max_active=4, block_size=8)
        short, deep = prompts[2], prompts[0]  # 11 and 18 tokens
        slots = [pool.reserve(len(short) + 1), pool.reserve(len(deep) + 13)]
        assert pool.capacity_of(slots[0]) == 16
        for slot, prompt in zip(slots, (short, deep)):
            view = pool.view([slot])
            runner.prefill(prompt[None, :], np.array([len(prompt)]), view)
            view.commit()
        # Push the short row to the very end of its reservation.
        view = pool.view([slots[0]])
        for token in (3, 4, 5, 6):
            runner.decode_step(np.array([token]), view)
        view.commit()
        assert pool.length_of(slots[0]) == pool.capacity_of(slots[0]) - 1
        before = [blocks.copy() for blocks in pool.key_blocks]
        view = pool.view(slots)
        starts = view.lengths.copy()
        tokens = np.concatenate([[9], [2], np.arange(60, 72)])
        runner.verify(tokens, view, starts, lengths=np.array([1, 13]))
        assert view.lengths.tolist() == [16, len(deep) + 13]
        own = set(pool.block_table(slots[0])) | set(pool.block_table(slots[1]))
        last_block = pool.block_table(slots[0])[-1]
        for layer, blocks in enumerate(pool.key_blocks):
            changed = np.flatnonzero((blocks != before[layer]).any(axis=(0, 2, 3)))
            assert set(changed.tolist()) <= own
            moved = (blocks[:, last_block] != before[layer][:, last_block]).any(axis=(0, 2))
            assert moved.tolist() == [False] * 7 + [True]
        # One position further and the same forward is refused before writing.
        view.lengths[:] = starts
        snapshot = [blocks.copy() for blocks in pool.key_blocks]
        with pytest.raises(ConfigurationError, match="reserved capacity"):
            runner.verify(
                np.concatenate([[9, 9], tokens[1:]]), view, starts, lengths=np.array([2, 13])
            )
        for blocks, kept in zip(pool.key_blocks, snapshot):
            assert np.array_equal(blocks, kept)


# ----------------------------------------------------------------------
# PagedKVCache.truncate edge cases
# ----------------------------------------------------------------------
class TestTruncate:
    def make_pool(self, **kwargs):
        defaults = dict(num_layers=1, num_heads=1, d_head=4, block_size=4, num_blocks=8)
        defaults.update(kwargs)
        return PagedKVCache(**defaults)

    def write_tokens(self, pool, slot, start, count, value=1.0):
        keys = np.full((1, count, 4), value)
        positions = np.arange(start, start + count)[None, :]
        pool.write(0, [slot], keys, keys, positions)

    def test_rollback_frees_tail_block_at_boundary(self):
        pool = self.make_pool()
        slot = pool.reserve(12)  # 3 blocks
        self.write_tokens(pool, slot, 0, 10)
        pool.set_length(slot, 10)
        free_before = pool.free_block_count
        released = pool.truncate(slot, 8)  # exactly 2 blocks
        assert released == 1
        assert len(pool.block_table(slot)) == 2
        assert pool.free_block_count == free_before + 1
        assert pool.length_of(slot) == 8

    def test_rollback_into_shared_block_triggers_no_cow(self):
        pool = self.make_pool()
        tokens = np.arange(8)
        slot_a = pool.reserve(12)
        self.write_tokens(pool, slot_a, 0, 8)
        pool.set_length(slot_a, 8)
        pool.publish_prefix(slot_a, tokens)
        matched = pool.match_prefix(tokens)
        assert len(matched) == 2
        slot_b = pool.reserve(12, shared=matched)
        pool.set_length(slot_b, 8)
        table_before = pool.block_table(slot_b)
        assert pool.ref_count(table_before[1]) == 2
        # Roll slot B back into the shared second block: no copy, no de-index — only the length moves (and the private tail block
        # is released).
        version_before = pool.table_version
        pool.truncate(slot_b, 6)
        assert pool.block_table(slot_b)[:2] == table_before[:2]
        assert pool.ref_count(table_before[1]) == 2
        assert pool.cached_block_count == 2
        assert np.all(pool.key_blocks[0][:, table_before[1]] != 0.0)
        assert pool.table_version > version_before  # tail release only

    def test_rollback_of_published_prefix_stays_matchable(self):
        pool = self.make_pool()
        tokens = np.arange(12)
        slot = pool.reserve(12)
        self.write_tokens(pool, slot, 0, 12)
        pool.set_length(slot, 12)
        pool.publish_prefix(slot, tokens)
        assert pool.cached_block_count == 3
        chain = pool.block_table(slot)
        released = pool.truncate(slot, 4)
        assert released == 2
        # Fully released published blocks keep their contents and index
        # entries on the LRU: the whole chain still matches, anchored by the
        # retained block (fully below the cut, so never de-indexed).
        assert pool.match_prefix(tokens) == chain
        assert pool.cached_block_count == 3

    def test_rollback_inside_sole_owner_published_block_deindexes_it(self):
        pool = self.make_pool()
        tokens = np.arange(8)
        slot = pool.reserve(8)
        self.write_tokens(pool, slot, 0, 8)
        pool.set_length(slot, 8)
        pool.publish_prefix(slot, tokens)
        assert len(pool.match_prefix(tokens)) == 2
        pool.truncate(slot, 6)  # cut inside the second published block
        # The cut block will be rewritten by its sole owner: de-indexed; the
        # first block survives.
        assert len(pool.match_prefix(tokens)) == 1

    def test_min_capacity_keeps_blocks(self):
        pool = self.make_pool()
        slot = pool.reserve(12)
        self.write_tokens(pool, slot, 0, 10)
        pool.set_length(slot, 10)
        released = pool.truncate(slot, 5, min_capacity=12)
        assert released == 0
        assert len(pool.block_table(slot)) == 3
        assert pool.length_of(slot) == 5
        # Writes within the kept capacity still succeed afterwards.
        self.write_tokens(pool, slot, 5, 7)

    def test_truncate_validation(self):
        pool = self.make_pool()
        slot = pool.reserve(8)
        pool.set_length(slot, 4)
        with pytest.raises(ConfigurationError):
            pool.truncate(slot, 5)
        with pytest.raises(ConfigurationError):
            pool.truncate(slot, -1)
        # A same-length truncate is legal; without min_capacity it still
        # returns spare capacity blocks past the committed length.
        assert pool.truncate(slot, 4, min_capacity=8) == 0
        assert pool.truncate(slot, 4) == 1


# ----------------------------------------------------------------------
# End-to-end parity
# ----------------------------------------------------------------------
class TestSpeculativeParity:
    """Speculation must never change what gets served."""

    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
    @pytest.mark.parametrize("prefix_cache", [False, True])
    def test_tokens_and_logits_bit_identical_across_draft_lengths(
        self, runners, prompts, name, prefix_cache
    ):
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=10)
        baseline, _ = serve_all(runner, prompts, config, prefix_cache=prefix_cache)
        for draft_tokens in range(1, 9):
            speculation = SpecConfig(
                drafter=PromptLookupDraft(),
                draft_tokens=draft_tokens,
                max_draft=8,
            )
            outputs, scheduler = serve_all(
                runner,
                prompts,
                config,
                prefix_cache=prefix_cache,
                speculation=speculation,
            )
            for request_id, reference in baseline.items():
                produced = outputs[request_id]
                assert np.array_equal(reference.generated, produced.generated), (
                    f"draft_tokens={draft_tokens} request={request_id}"
                )
                assert np.array_equal(reference.step_logits, produced.step_logits), (
                    f"draft_tokens={draft_tokens} request={request_id}"
                )

    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
    def test_model_draft_parity(self, runners, prompts, name):
        runner = runners[name]
        config = GenerationConfig(max_new_tokens=8)
        baseline, _ = serve_all(runner, prompts, config)
        for drafter in (ModelDraft(runners["float"]), ModelDraft.truncated(runner, 1)):
            speculation = SpecConfig(drafter=drafter, draft_tokens=3, max_draft=6)
            outputs, _ = serve_all(runner, prompts, config, speculation=speculation)
            for request_id, reference in baseline.items():
                assert np.array_equal(
                    reference.generated, outputs[request_id].generated
                )
                assert np.array_equal(
                    reference.step_logits, outputs[request_id].step_logits
                )

    def test_float_tokens_identical(self, runners, prompts):
        runner = runners["float"]
        config = GenerationConfig(max_new_tokens=10)
        baseline, _ = serve_all(runner, prompts, config)
        outputs, _ = serve_all(
            runner,
            prompts,
            config,
            speculation=SpecConfig(drafter=PromptLookupDraft()),
        )
        for request_id, reference in baseline.items():
            assert np.array_equal(reference.generated, outputs[request_id].generated)
            np.testing.assert_allclose(
                reference.step_logits, outputs[request_id].step_logits, atol=1e-12
            )

    def test_seeded_top_k_parity(self, runners, prompts):
        """The sampled stream (and rng consumption) matches step for step."""
        runner = runners["tender-implicit"]
        config = GenerationConfig(max_new_tokens=9, top_k=4, temperature=0.8, seed=21)
        baseline, _ = serve_all(runner, prompts, config)
        outputs, _ = serve_all(
            runner,
            prompts,
            config,
            speculation=SpecConfig(drafter=PromptLookupDraft(), draft_tokens=5, max_draft=8),
        )
        for request_id, reference in baseline.items():
            assert np.array_equal(reference.generated, outputs[request_id].generated)
            assert np.array_equal(reference.step_logits, outputs[request_id].step_logits)

    def test_eos_mid_draft_parity(self, runners, prompts):
        runner = runners["tender-implicit"]
        plain, _ = serve_all(runner, prompts, GenerationConfig(max_new_tokens=12))
        # Pick an eos token that actually occurs mid-continuation somewhere.
        eos = None
        for output in plain.values():
            if output.num_steps >= 3:
                eos = int(output.generated[2])
                break
        assert eos is not None
        config = GenerationConfig(max_new_tokens=12, eos_token=eos)
        baseline, _ = serve_all(runner, prompts, config)
        outputs, _ = serve_all(
            runner,
            prompts,
            config,
            speculation=SpecConfig(drafter=PromptLookupDraft(), draft_tokens=6, max_draft=8),
        )
        for request_id, reference in baseline.items():
            produced = outputs[request_id]
            assert reference.finish_reason == produced.finish_reason
            assert np.array_equal(reference.generated, produced.generated)
            assert np.array_equal(reference.step_logits, produced.step_logits)

    def test_chunked_prefill_and_speculation_compose(self, runners, prompts):
        runner = runners["tender-implicit"]
        config = GenerationConfig(max_new_tokens=8)
        baseline, _ = serve_all(runner, prompts, config)
        outputs, _ = serve_all(
            runner,
            prompts,
            config,
            prefix_cache=True,
            prefill_chunk=5,
            speculation=SpecConfig(drafter=PromptLookupDraft()),
        )
        for request_id, reference in baseline.items():
            assert np.array_equal(reference.generated, outputs[request_id].generated)
            assert np.array_equal(reference.step_logits, outputs[request_id].step_logits)


# ----------------------------------------------------------------------
# Scheduler behavior and accounting
# ----------------------------------------------------------------------
class TestSpeculativeScheduling:
    def test_repetitive_trace_reduces_decode_iterations(self, runners, corpus_splits):
        """An extractive trace (prompt embeds the model's own continuation)."""
        runner = runners["tender-implicit"]
        train_tokens, _ = corpus_splits
        seeds = [train_tokens[i * 31 : i * 31 + 12] for i in range(3)]
        warm = GenerationEngine(runner).generate(
            seeds, GenerationConfig(max_new_tokens=24)
        )
        repetitive = [
            np.concatenate([seed, continuation])
            for seed, continuation in zip(seeds, warm.generated)
        ]
        config = GenerationConfig(max_new_tokens=16)
        _, plain = serve_all(runner, repetitive, config)
        _, spec = serve_all(
            runner,
            repetitive,
            config,
            speculation=SpecConfig(drafter=PromptLookupDraft()),
        )
        assert spec.stats.decode_iterations < plain.stats.decode_iterations
        assert spec.stats.spec_verify_iterations > 0
        assert spec.stats.spec_accept_rate() > 0.0
        assert spec.stats.generated_tokens == plain.stats.generated_tokens

    def test_accept_stats_in_outputs(self, runners, prompts):
        runner = runners["tender-implicit"]
        outputs, scheduler = serve_all(
            runner,
            prompts,
            GenerationConfig(max_new_tokens=10),
            speculation=SpecConfig(drafter=PromptLookupDraft()),
        )
        assert scheduler.stats.spec_proposed_tokens == sum(
            output.spec_proposed_tokens for output in outputs.values()
        )
        assert scheduler.stats.spec_accepted_tokens == sum(
            output.spec_accepted_tokens for output in outputs.values()
        )
        rate = scheduler.stats.spec_accept_rate()
        assert 0.0 <= rate <= 1.0

    def test_drafter_released_per_request(self, runners, prompts):
        runner = runners["tender-implicit"]

        class RecordingDrafter(PromptLookupDraft):
            def __init__(self):
                super().__init__()
                self.released = []

            def release(self, request_id):
                self.released.append(request_id)

        drafter = RecordingDrafter()
        outputs, _ = serve_all(
            runner,
            prompts,
            GenerationConfig(max_new_tokens=6),
            speculation=SpecConfig(drafter=drafter),
        )
        assert sorted(drafter.released) == sorted(outputs)

    def test_speculation_never_writes_past_reservation(self, runners, prompts):
        """Tight budgets exercise each row's own draft cap at every remaining count.

        Reservations are exact (``prompt + budget - 1`` positions), so a
        draft — or a pad — written past any row's budget would raise.
        """
        runner = runners["tender-implicit"]
        for budget in (1, 2, 3):
            config = GenerationConfig(max_new_tokens=budget)
            baseline, _ = serve_all(runner, prompts, config)
            outputs, _ = serve_all(
                runner,
                prompts,
                config,
                speculation=SpecConfig(drafter=PromptLookupDraft(), draft_tokens=8, max_draft=8),
            )
            for request_id, reference in baseline.items():
                assert np.array_equal(reference.generated, outputs[request_id].generated)

    def test_row_at_its_last_token_rides_beside_a_deep_draft(self, runners, corpus_splits):
        """A request on its final budgeted token shares the forward of a
        12-draft neighbour: one forward per iteration, no row past its blocks."""
        runner = runners["tender-implicit"]
        train_tokens, _ = corpus_splits
        seed = train_tokens[:12]
        warm = GenerationEngine(runner).generate([seed], GenerationConfig(max_new_tokens=40))
        extractive = np.concatenate([seed, warm.generated[0]])  # the drafter reads the answer
        config = GenerationConfig(max_new_tokens=30)
        scheduler = Scheduler(
            runner,
            config,
            max_batch_size=2,
            block_size=4,
            speculation=SpecConfig(drafter=PromptLookupDraft(), draft_tokens=12, max_draft=12),
        )
        forwards = count_forwards(runner)
        try:
            scheduler.submit(extractive)
            scheduler.submit(train_tokens[40:47], max_new_tokens=2)  # 7 + 2 - 1 = 8: two full blocks
            outputs = {output.request_id: output for output in scheduler.run()}
        finally:
            forwards.restore()
        assert [1, 13] in [sorted(lengths) for lengths in forwards.verify_lengths], (
            "the request at its last token never shared a forward with a 12-draft one"
        )
        assert len(outputs[1].generated) == 2
        assert forwards.decode_calls + len(forwards.verify_lengths) == scheduler.stats.decode_iterations
        plain, _ = serve_all(runner, [extractive], config, block_size=4)
        assert np.array_equal(outputs[0].generated, plain[0].generated)
        assert np.array_equal(outputs[0].step_logits, plain[0].step_logits)

    def test_engine_passes_speculation_through(self, runners, prompts):
        runner = runners["tender-implicit"]
        config = GenerationConfig(max_new_tokens=8)
        baseline = GenerationEngine(runner).generate(prompts, config)
        engine = GenerationEngine(
            runner, speculation=SpecConfig(drafter=PromptLookupDraft())
        )
        result = engine.generate(prompts, config)
        for reference, produced in zip(baseline.generated, result.generated):
            assert np.array_equal(reference, produced)
        assert np.array_equal(baseline.step_logits, result.step_logits)


class TestRaggedVerifyLattice:
    """Speculation composed with the other scheduler features, one at a time.

    At every lattice point the committed tokens and logits equal the
    non-speculative run's, every decode iteration is exactly one runner
    forward, and the verify forwards computed exactly the proposed drafts
    plus one pending token per participating request — no padding rows.  A
    chunk nobody samples rides as a sequence with no logit rows.
    """

    POINTS = {
        "plain": {},
        "prefix_cache": dict(prefix_cache=True),
        "prefill_chunk": dict(prefill_chunk=8),
        "prefix+chunk": dict(prefix_cache=True, prefill_chunk=8),
        "preemption": dict(preemption=True, prefix_cache=True, max_batch_size=2),
        "top_k": dict(config=GenerationConfig(max_new_tokens=10, top_k=4, temperature=0.8, seed=21)),
        "eos": dict(config="eos"),
    }

    @staticmethod
    def serve(runner, prompts, config, speculation=None, **kwargs):
        scheduler = Scheduler(
            runner,
            config,
            max_batch_size=kwargs.pop("max_batch_size", 3),
            block_size=8,
            speculation=speculation,
            **kwargs,
        )
        urgent = len(prompts) - 1 if kwargs.get("preemption") else None
        for index, prompt in enumerate(prompts):
            if index == urgent:
                scheduler.submit(prompt, priority=0, arrival_time=3.0)
            else:
                scheduler.submit(prompt, priority=1)
        return {output.request_id: output for output in scheduler.run()}, scheduler

    @pytest.mark.parametrize("point", list(POINTS))
    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
    def test_lattice_point(self, runners, prompts, name, point):
        runner = runners[name]
        kwargs = dict(self.POINTS[point])
        config = kwargs.pop("config", GenerationConfig(max_new_tokens=10))
        if config == "eos":
            plain, _ = self.serve(runner, prompts, GenerationConfig(max_new_tokens=10))
            eos = next(int(o.generated[2]) for o in plain.values() if o.num_steps >= 3)
            config = GenerationConfig(max_new_tokens=10, eos_token=eos)
        baseline, _ = self.serve(runner, prompts, config, **kwargs)

        class RecordingDrafter(PromptLookupDraft):
            proposed = 0

            def propose(self, request_id, tokens, max_tokens):
                draft = super().propose(request_id, tokens, max_tokens)
                self.proposed += len(draft)
                return draft

        # Unigram matching drafts constantly (and mostly wrongly), so every
        # point — sampled tokens included — exercises verify and rollback.
        drafter = RecordingDrafter(min_ngram=1)
        forwards = count_forwards(runner)
        try:
            outputs, scheduler = self.serve(
                runner,
                prompts,
                config,
                speculation=SpecConfig(drafter=drafter, draft_tokens=5, max_draft=8),
                **kwargs,
            )
        finally:
            forwards.restore()
        for request_id, reference in baseline.items():
            produced = outputs[request_id]
            assert reference.finish_reason == produced.finish_reason
            assert np.array_equal(reference.generated, produced.generated)
            assert np.array_equal(reference.step_logits, produced.step_logits)
        stats = scheduler.stats
        if point == "preemption":
            assert stats.preemptions > 0
        if point == "eos":
            assert any(output.finish_reason == "eos" for output in outputs.values())
        # A forward verifies when somebody drafted; a resume tail or a ridden
        # chunk also makes one ragged, and their rows are booked apart from
        # the verify rows.  A forward with nothing to sample is a lone ride.
        verifying = [heads for heads in forwards.verify_heads if max(heads) > 1]
        assert stats.spec_verify_iterations == len(verifying) > 0
        decoding = sum(1 for heads in forwards.verify_heads if any(heads))
        assert forwards.decode_calls + decoding == stats.decode_iterations
        assert stats.spec_proposed_tokens == drafter.proposed
        participants = sum(1 for heads in verifying for rows in heads if rows)
        assert stats.spec_verify_rows == sum(map(sum, verifying)) == drafter.proposed + participants
        rides = [
            rows
            for lengths, heads in zip(forwards.verify_lengths, forwards.verify_heads)
            for rows, read in zip(lengths, heads)
            if not read
        ]
        assert len(rides) - (len(forwards.verify_heads) - decoding) == stats.ridden_chunks
        assert (stats.ridden_chunks > 0) == ("chunk" in point)
        tail_rows = forwards.verify_rows - sum(map(sum, forwards.verify_heads)) - sum(rides)
        assert tail_rows == stats.resume_tail_rows
        assert (tail_rows > 0) == (point == "preemption")
        decode_side = forwards.decode_rows + forwards.verify_rows
        assert decode_side == stats.decode_slot_steps + drafter.proposed + tail_rows + sum(rides)


class TestStatsGuards:
    def test_prefix_hit_rate_zero_when_idle(self, runners):
        scheduler = Scheduler(runners["float"])
        assert scheduler.stats.prefix_hit_rate() == 0.0
        assert scheduler.stats.spec_accept_rate() == 0.0
