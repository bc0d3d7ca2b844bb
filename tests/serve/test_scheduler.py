"""Tests of the continuous-batching scheduler: admission, eviction, fairness.

The correctness anchor for everything here is per-request isolation: whatever
the scheduler does with slots — evict mid-flight, backfill with a new
request, reuse dirty KV blocks — each request's output must equal running it
alone through ``GenerationEngine.generate`` (bit-identical parity itself is
pinned in ``test_decode_parity.py``; these tests focus on the scheduling
behaviors that could break it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.models import TransformerRunner
from repro.serve import (
    GenerationConfig,
    GenerationEngine,
    PromptLookupDraft,
    Request,
    Scheduler,
    SpecConfig,
)


@pytest.fixture()
def runner(tiny_weights):
    return TransformerRunner(tiny_weights)


@pytest.fixture(scope="module")
def prompt_pool(corpus_splits):
    train_tokens, _ = corpus_splits
    return [train_tokens[i * 10 : i * 10 + 4 + (i % 5)] for i in range(12)]


@pytest.fixture(scope="module")
def tender_runners(outlier_weights, calibration):
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8)
    return {
        scheme: TenderQuantizer(config, implicit=scheme == "implicit").quantize(
            outlier_weights, calibration
        )
        for scheme in ("implicit", "explicit")
    }


def outputs_by_id(outputs):
    return {output.request_id: output for output in outputs}


class TestContinuousServing:
    def test_backfill_reuses_slots_without_leaking_state(self, runner, prompt_pool):
        """More requests than slots: every continuation equals its solo run."""
        config = GenerationConfig(max_new_tokens=5)
        scheduler = Scheduler(runner, config, max_batch_size=3)
        for prompt in prompt_pool:
            scheduler.submit(prompt)
        outputs = outputs_by_id(scheduler.run())
        assert len(outputs) == len(prompt_pool)
        assert scheduler.stats.peak_active <= 3
        engine = GenerationEngine(runner)
        for request_id, prompt in enumerate(prompt_pool):
            alone = engine.generate([prompt], config)
            np.testing.assert_array_equal(outputs[request_id].generated, alone.generated[0])
            np.testing.assert_array_equal(outputs[request_id].sequence, alone.sequences[0])

    def test_eviction_reclaims_blocks_mid_flight(self, runner, prompt_pool):
        """A finished request's blocks return to the pool before the run ends.

        The pool holds exactly two requests' blocks, so the third request can
        only be admitted if the short first request's blocks are reclaimed
        the moment it finishes — while the long request is still decoding.
        """
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=12), max_batch_size=2,
            block_size=16, num_blocks=2,
        )
        scheduler.submit(prompt_pool[0], max_new_tokens=2)   # finishes quickly
        scheduler.submit(prompt_pool[1], max_new_tokens=12)  # keeps decoding
        scheduler.submit(prompt_pool[2], max_new_tokens=2)   # needs the freed block
        outputs = outputs_by_id(scheduler.run())
        assert len(outputs) == 3
        assert outputs[2].admitted_at < outputs[1].finished_at
        assert scheduler.cache.free_block_count == scheduler.cache.num_blocks
        assert scheduler.cache.active_slots == []

    def test_per_request_budgets_and_finish_reasons(self, runner, prompt_pool):
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=6), max_batch_size=4)
        scheduler.submit(prompt_pool[0], max_new_tokens=2)
        scheduler.submit(prompt_pool[1])
        outputs = outputs_by_id(scheduler.run())
        assert outputs[0].num_steps == 2 and len(outputs[0].generated) == 2
        assert outputs[1].num_steps == 6
        assert outputs[0].finish_reason == "length"
        assert outputs[0].step_logits.shape == (2, runner.config.vocab_size)

    def test_eos_finishes_request_early(self, runner, prompt_pool):
        probe = GenerationEngine(runner).generate([prompt_pool[0]], GenerationConfig(max_new_tokens=4))
        eos = int(probe.generated[0][1])
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=8, eos_token=eos), max_batch_size=2)
        scheduler.submit(prompt_pool[0])
        output = scheduler.run()[0]
        assert output.finish_reason == "eos"
        assert output.generated[-1] == eos
        assert len(output.generated) == 2

    def test_step_loop_advances_past_idle_gaps(self, runner, prompt_pool):
        """A bare step() loop must not livelock on future-only arrivals."""
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=2), max_batch_size=2)
        scheduler.submit(prompt_pool[0], arrival_time=25.0)
        finished = []
        steps = 0
        while scheduler.has_pending:
            finished.extend(scheduler.step())
            steps += 1
            assert steps < 50, "step() loop is not making progress"
        assert len(finished) == 1
        assert scheduler.stats.idle_time == 25.0
        assert finished[0].admitted_at == 25.0

    def test_record_logits_can_be_disabled(self, runner, prompt_pool):
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=3), max_batch_size=2, record_logits=False
        )
        scheduler.submit(prompt_pool[0])
        output = scheduler.run()[0]
        assert output.step_logits.shape == (0, runner.config.vocab_size)
        np.testing.assert_array_equal(
            output.generated,
            GenerationEngine(runner).generate([prompt_pool[0]], GenerationConfig(max_new_tokens=3)).generated[0],
        )


class TestDirtyBlockReuse:
    def test_dynamic_attention_stats_survive_dirty_block_reuse(
        self, outlier_weights, calibration, corpus_splits
    ):
        """Reused KV blocks must not perturb dynamic quantization statistics.

        Tender with ``quantize_attention=True, subtract_bias=False`` derives
        per-column attention-operand scales over the whole attended window,
        so a recycled slot exposing a *previous* request's stale K/V beyond
        the new request's length would silently coarsen its quantization
        (the outputs stayed masked — only the scales leaked).  The pool
        leaves freed blocks as they are; the dense attention reader zeroes
        every column past each sequence's reach
        (``dense_cached_attention``).  This pins it with heavy slot reuse and
        tiny blocks.
        """
        from repro.core import TenderConfig, TenderQuantizer

        config = TenderConfig(
            bits=8, num_groups=8, row_chunk_size=8, quantize_attention=True, subtract_bias=False
        )
        runner = TenderQuantizer(config).quantize(outlier_weights, calibration)
        train_tokens, _ = corpus_splits
        prompts = [train_tokens[i * 11 : i * 11 + 4 + (i % 5)] for i in range(10)]
        generation = GenerationConfig(max_new_tokens=6)
        scheduler = Scheduler(runner, generation, max_batch_size=2, block_size=4)
        for prompt in prompts:
            scheduler.submit(prompt)
        outputs = outputs_by_id(scheduler.run())
        engine = GenerationEngine(runner)
        for request_id, prompt in enumerate(prompts):
            alone = engine.generate([prompt], generation)
            np.testing.assert_array_equal(outputs[request_id].step_logits, alone.step_logits[0])
            np.testing.assert_array_equal(outputs[request_id].generated, alone.generated[0])


class TestFairness:
    def test_admission_is_fifo_by_arrival_time(self, runner, prompt_pool):
        """Later arrivals never overtake earlier ones, whatever their length."""
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=3), max_batch_size=2)
        ids = [
            scheduler.submit(prompt_pool[i], arrival_time=float(arrival))
            for i, arrival in enumerate([9.0, 0.0, 4.0, 30.0, 12.0])
        ]
        outputs = outputs_by_id(scheduler.run())
        arrival = {ids[i]: t for i, t in enumerate([9.0, 0.0, 4.0, 30.0, 12.0])}
        admissions = sorted(outputs.values(), key=lambda o: o.admitted_at)
        admitted_order = [arrival[o.request_id] for o in admissions]
        assert admitted_order == sorted(admitted_order)

    def test_short_request_stream_cannot_starve_a_long_request(self, runner, prompt_pool):
        """A long request queued behind a flood of shorts still completes FIFO."""
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=2), max_batch_size=2)
        early_ids = [
            scheduler.submit(prompt_pool[i % 6], max_new_tokens=2, arrival_time=float(i))
            for i in range(4)
        ]
        long_id = scheduler.submit(prompt_pool[6], max_new_tokens=24, arrival_time=4.5)
        late_ids = [
            scheduler.submit(prompt_pool[i % 6], max_new_tokens=2, arrival_time=5.0 + i)
            for i in range(14)
        ]
        outputs = outputs_by_id(scheduler.run())
        assert len(outputs) == 19
        long_output = outputs[long_id]
        assert long_output.finish_reason == "length"
        assert long_output.num_steps == 24
        # FIFO: the long request is admitted before every request that
        # arrived after it, despite being 12x more expensive.
        for late in late_ids:
            assert long_output.admitted_at < outputs[late].admitted_at
        # And it was admitted after the earlier shorts (no queue jumping).
        for early in early_ids:
            assert outputs[early].admitted_at < long_output.admitted_at

    def test_long_request_keeps_decoding_while_shorts_cycle(self, runner, prompt_pool):
        """No preemption: once admitted, a long request finishes its budget."""
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=2), max_batch_size=2)
        long_id = scheduler.submit(prompt_pool[0], max_new_tokens=20)
        for i in range(8):
            scheduler.submit(prompt_pool[1 + i % 5], max_new_tokens=2, arrival_time=float(i))
        outputs = outputs_by_id(scheduler.run())
        long_output = outputs[long_id]
        assert long_output.num_steps == 20
        # The shorts all completed while the long one held its slot.
        short_finishes = [o.finished_at for o in outputs.values() if o.request_id != long_id]
        assert min(short_finishes) < long_output.finished_at


class TestValidation:
    def test_submit_validates_prompts(self, runner):
        scheduler = Scheduler(runner)
        with pytest.raises(ConfigurationError):
            scheduler.submit(np.array([], dtype=np.int64))
        with pytest.raises(ConfigurationError):
            scheduler.submit(np.array([runner.config.vocab_size + 1]))
        with pytest.raises(ConfigurationError):
            scheduler.submit(np.arange(runner.config.max_seq_len) % runner.config.vocab_size)

    @pytest.mark.parametrize(
        "prompt, described",
        [
            ([1.5, 2, 3], r"dtype float64 shape \(3,\)"),  # was served as [1, 2, 3]
            (np.array([1.0, 2.0]), r"dtype float64 shape \(2,\)"),
            ([[1, 2], [3, 4]], r"dtype int64 shape \(2, 2\)"),  # was served flattened
            ([True, False], r"dtype bool shape \(2,\)"),  # was served as [1, 0]
            (np.int64(3), r"dtype int64 shape \(\)"),
        ],
        ids=["fractional", "integral-floats", "matrix", "bools", "scalar"],
    )
    def test_every_front_door_refuses_a_prompt_that_is_not_one_row_of_integers(self, runner, prompt, described):
        """``Scheduler.submit`` (keyword and ``Request`` form), ``ReplicaPool.submit``
        and both ``AsyncEngine`` doors: a typed error naming dtype and shape,
        raised before any id is burned."""
        import asyncio

        from repro.serve import AsyncEngine, ReplicaPool

        refused = rf"prompt must be a 1-D array of integer token ids, got {described}"
        scheduler = Scheduler(runner)
        for submission in (lambda: scheduler.submit(prompt), lambda: scheduler.submit(Request(prompt))):
            with pytest.raises(ConfigurationError, match=refused):
                submission()
        with pytest.raises(ConfigurationError, match="at least one token"):
            scheduler.submit([])  # float64 to ``asarray``: still refused for its length
        assert scheduler.num_waiting == 0 and not scheduler.has_pending
        assert scheduler.submit([1, 2, 3]) == 0 and scheduler.submit(np.array([4], dtype=np.uint8)) == 1

        pool = ReplicaPool(runner, num_replicas=2)
        with pytest.raises(ConfigurationError, match=refused):
            pool.submit(prompt)
        assert pool.num_waiting == 0 and not pool._placements
        assert pool.submit([1, 2, 3]) == 0

        async def main():
            async with AsyncEngine(runner, GenerationConfig(max_new_tokens=1)) as engine:
                with pytest.raises(ConfigurationError, match=refused):
                    await engine.submit(prompt)
                with pytest.raises(ConfigurationError, match=refused):
                    engine.submit_nowait(prompt)
                assert engine.scheduler.num_waiting == 0 and not engine._streams
                stream = await engine.submit([1, 2, 3])
                assert stream.request_id == 0
                await stream.result()

        asyncio.run(main())

    def test_submit_rejects_overrides_alongside_a_request_object(self, runner, prompt_pool):
        """Keyword overrides cannot be silently dropped for full Requests."""
        from repro.serve import Request

        scheduler = Scheduler(runner)
        with pytest.raises(ConfigurationError):
            scheduler.submit(Request(prompt=prompt_pool[0]), max_new_tokens=4)
        with pytest.raises(ConfigurationError):
            scheduler.submit(Request(prompt=prompt_pool[0]), arrival_time=9.5)
        scheduler.submit(Request(prompt=prompt_pool[0], max_new_tokens=4, arrival_time=9.5))
        assert scheduler.num_waiting == 1

    def test_submit_never_mutates_the_caller_request(self, runner, prompt_pool):
        """One Request object can be submitted to several schedulers safely."""
        from repro.serve import Request

        request = Request(prompt=prompt_pool[0], max_new_tokens=2)
        config = GenerationConfig(max_new_tokens=8)
        first = Scheduler(runner, config)
        second = Scheduler(runner, config)
        first.submit(prompt_pool[1])  # shift ids so the schedulers disagree
        id_first = first.submit(request)
        id_second = second.submit(request)
        assert request.request_id is None  # caller's object untouched
        assert id_first != id_second
        outputs_first = {o.request_id: o for o in first.run()}
        outputs_second = {o.request_id: o for o in second.run()}
        np.testing.assert_array_equal(
            outputs_first[id_first].generated, outputs_second[id_second].generated
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrival_time", float("inf")),  # run() would end at now == inf, its TTFT sample nan
            ("arrival_time", float("nan")),  # a heap key whose every comparison is False
            ("deadline", float("nan")),
            ("deadline", float("inf")),
            ("priority", 0.9),  # int() made it class 0, the most urgent
            ("max_new_tokens", 2.7),  # int() served 2
        ],
    )
    def test_submit_rejects_ticks_that_are_not_finite_and_counts_that_are_not_integers(
        self, runner, prompt_pool, field, value
    ):
        """Keyword and ``Request`` form alike, with the scheduler untouched afterwards."""
        from repro.serve import Request

        scheduler = Scheduler(runner)
        for submission in (
            lambda: scheduler.submit(prompt_pool[0], **{field: value}),
            lambda: scheduler.submit(Request(prompt_pool[0], **{field: value})),
        ):
            with pytest.raises(ConfigurationError, match=f"{field} must be .* got {value!r}"):
                submission()
        assert scheduler.num_waiting == 0 and not scheduler.has_pending
        assert scheduler.submit(prompt_pool[0], priority=np.int64(2), max_new_tokens=True) == 0

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_submit_checkpoint_rejects_a_delay_no_clock_reaches(self, runner, prompt_pool, delay):
        source, target = Scheduler(runner), Scheduler(runner)
        record = source.checkpoint(source.submit(prompt_pool[0]))
        arrival = record.arrival_time
        with pytest.raises(ConfigurationError, match="delay must be"):
            target.submit_checkpoint(record, delay=delay)
        assert target.num_waiting == 0 and record.arrival_time == arrival
        assert target.submit_checkpoint(record, delay=2.0) == 0  # the record is still good

    @pytest.mark.parametrize(
        "option, value, minimum",
        [
            ("max_batch_size", 2.5, 1),  # int() served 2 slots
            ("prefill_chunk", 2.5, 1),  # int() spent 2 tokens a step
            ("block_size", 0, 1),  # ZeroDivisionError sizing the pool
            ("num_blocks", 7.5, 1),  # TypeError from np.zeros
        ],
    )
    def test_integer_options_are_checked_where_they_are_set(self, runner, prompt_pool, option, value, minimum):
        """A typed refusal naming option, minimum and value; NumPy integers and bools pass."""
        with pytest.raises(ConfigurationError, match=rf"{option} must be an integer >= {minimum}, got {value!r}"):
            Scheduler(runner, **{option: value})
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=2), **{option: np.int64(4)})
        scheduler.submit(prompt_pool[0])
        assert len(scheduler.run()) == 1
        Scheduler(runner, **{option: True})

    def test_submit_rejects_request_larger_than_pool(self, runner, prompt_pool):
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=32), num_blocks=1, block_size=4)
        with pytest.raises(ConfigurationError):
            scheduler.submit(prompt_pool[2])  # needs > 1 block even alone

    def test_pool_smaller_than_batch_still_serves_sequentially(self, runner, prompt_pool):
        """Blocks, not slots, are the scarce resource: admission waits for them."""
        config = GenerationConfig(max_new_tokens=4)
        scheduler = Scheduler(
            runner, config, max_batch_size=3, block_size=16, num_blocks=1
        )
        for prompt in prompt_pool[:3]:
            scheduler.submit(prompt)
        outputs = outputs_by_id(scheduler.run())
        assert len(outputs) == 3
        assert scheduler.stats.peak_active == 1  # only ever one slot's blocks
        engine = GenerationEngine(runner)
        for request_id, prompt in enumerate(prompt_pool[:3]):
            np.testing.assert_array_equal(
                outputs[request_id].generated, engine.generate([prompt], config).generated[0]
            )

    def test_resource_exhausted_error_type_exists(self):
        assert issubclass(ResourceExhaustedError, Exception)


class TestDecodeViewReuse:
    def test_view_and_lengths_persist_while_membership_is_stable(self, runner, prompt_pool):
        """The decode batch view (and its lengths) is not rebuilt per step."""
        scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=6), max_batch_size=2)
        scheduler.submit(prompt_pool[0])
        scheduler.submit(prompt_pool[1])
        scheduler.step()
        view = scheduler._decode_view
        assert view is not None
        lengths = view.lengths
        scheduler.step()
        scheduler.step()
        assert scheduler._decode_view is view  # same object across iterations
        assert scheduler._decode_view.lengths is lengths
        # Membership change (a request finishing) invalidates the cache.
        scheduler.run()
        assert scheduler._decode_view is None


class TestStatsGuards:
    """Rate metrics on a scheduler that has done nothing yet: 0.0, not a crash."""

    def test_fresh_stats_report_zero_rates(self):
        from repro.serve.stats import SchedulerStats

        stats = SchedulerStats()
        assert stats.tokens_per_iteration() == 0.0
        assert stats.prefix_hit_rate() == 0.0
        assert stats.spec_accept_rate() == 0.0

    def test_rates_after_activity_are_unchanged(self):
        from repro.serve.stats import SchedulerStats

        stats = SchedulerStats(
            prefill_iterations=2,
            decode_iterations=3,
            generated_tokens=10,
            spec_proposed_tokens=4,
            spec_accepted_tokens=3,
        )
        assert stats.tokens_per_iteration() == 2.0
        assert stats.spec_accept_rate() == 0.75


class TestSampleTokenTies:
    """Seeded top-k must break equal logits by token index, not partition order."""

    @staticmethod
    def _sample(logits, top_k, seed, temperature=1.0):
        from repro.serve.scheduler import _sample_token

        config = GenerationConfig(top_k=top_k, temperature=temperature, seed=seed)
        return _sample_token(np.asarray(logits, dtype=np.float64), config, np.random.default_rng(seed))

    def test_all_tied_logits_sample_the_lowest_indices(self):
        """With every logit equal, the top-k set is tokens 0..k-1 by the
        stable tiebreak — any draw outside it means partition order leaked."""
        logits = np.zeros(32)
        drawn = {self._sample(logits, top_k=4, seed=seed) for seed in range(64)}
        assert drawn <= {0, 1, 2, 3}
        assert len(drawn) > 1  # still actually sampling within the set

    def test_tie_at_the_k_boundary_keeps_the_lowest_index(self):
        """Three tokens tie at the k-boundary; only the lowest-indexed one
        may enter the top-k set."""
        logits = np.array([5.0, 4.0, 3.0, 2.0, 2.0, 2.0, 1.0, 0.0])
        # Near-uniform probabilities so every member of the set is drawn.
        drawn = {self._sample(logits, top_k=4, seed=seed, temperature=50.0) for seed in range(128)}
        assert drawn == {0, 1, 2, 3}

    def test_tied_draws_are_permutation_consistent(self):
        """Reordering tied tokens changes *which* token is drawn only through
        its index, never through memory layout: sampling from the mirrored
        logits yields the mirrored token."""
        logits = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        for seed in range(16):
            token = self._sample(logits, top_k=4, seed=seed)
            mirrored = self._sample(logits[::-1].copy(), top_k=4, seed=seed)
            assert token in {0, 1, 2, 3}
            assert mirrored == 5 - (3 - token)  # same rank among the ties



class TestGreedyPicks:
    """Greedy decoding takes one ``argmax`` per forward (``Scheduler._picks``);
    it must pick what ``_sample_token`` picks row by row."""

    def test_batched_picks_equal_per_row_sampling_ties_included(self, runner):
        from repro.serve.scheduler import _sample_token

        logits = np.array(
            [
                [0.0, 3.0, 1.0, 3.0, -2.0],  # tied maximum: the first index wins
                [2.0, 2.0, 2.0, 2.0, 2.0],  # every logit tied
                [-np.inf, -1.0, -np.inf, -1.0, -5.0],
                [1.0, 0.5, 0.25, 0.0, 7.0],  # the last index
            ]
        )
        scheduler = Scheduler(runner, GenerationConfig())
        rng = np.random.default_rng(0)
        expected = [_sample_token(row, scheduler.config, rng) for row in logits]
        assert scheduler._picks(logits) == expected == [1, 0, 1, 4]
        assert Scheduler(runner, GenerationConfig(top_k=2))._picks(logits) is None

    @pytest.mark.parametrize("scheme", ["implicit", "explicit"])
    def test_ragged_verify_commits_what_per_row_sampling_commits(
        self, tender_runners, prompt_pool, scheme, monkeypatch
    ):
        """A speculative serve whose verify forwards are ragged (each request
        at its own draft depth) commits the same tokens and logits whether
        the picks come batched or from ``_sample_token`` row by row."""
        runner = tender_runners[scheme]
        seen, verify = [], runner.verify

        def recorded_verify(tokens, cache, starts, lengths, **kwargs):
            seen.append(np.asarray(lengths).tolist())
            return verify(tokens, cache, starts, lengths=lengths, **kwargs)

        monkeypatch.setattr(runner, "verify", recorded_verify)
        repetitive = [np.concatenate([prompt, prompt, prompt]) for prompt in prompt_pool[:6]]

        def serve():
            scheduler = Scheduler(
                runner, GenerationConfig(max_new_tokens=8), max_batch_size=4,
                speculation=SpecConfig(PromptLookupDraft()),
            )  # fmt: skip
            for prompt in repetitive:
                scheduler.submit(prompt)
            return outputs_by_id(scheduler.run())

        batched = serve()
        assert any(len(set(call)) > 1 for call in seen), "no verify forward was ragged"
        monkeypatch.setattr(Scheduler, "_picks", lambda self, logits: None)
        per_row = serve()
        for request_id, output in batched.items():
            np.testing.assert_array_equal(output.generated, per_row[request_id].generated)
            np.testing.assert_array_equal(output.step_logits, per_row[request_id].step_logits)

class TestCheckpointSurface:
    """``checkpoint`` / ``submit_checkpoint`` / ``checkpoint_all``, driven directly.

    One request is detached from every state of the lifecycle and re-queued
    on a second scheduler; whatever state it left from, it must finish with
    the tokens *and* committed logits of an uninterrupted run, and the
    source must end with nothing left behind.
    """

    @staticmethod
    def make(runner, **kwargs):
        return Scheduler(
            runner, GenerationConfig(max_new_tokens=8), max_batch_size=1, block_size=4,
            prefix_cache=True, prefill_chunk=4, preemption=True, **kwargs,
        )  # fmt: skip

    @staticmethod
    def detach_from(source, where, prompt, filler):
        """Drive ``source`` until the request is in state ``where``; checkpoint it."""
        if where == "future":
            request_id = source.submit(prompt, priority=1, arrival_time=50.0)
        elif where == "waiting":
            source.submit(filler)
            request_id = source.submit(prompt, priority=1)
            source.step()
            assert source.num_waiting == 1 and source.num_active == 1
        else:
            request_id = source.submit(prompt, priority=1)
            source.step()
            assert source.stats.prefill_iterations == 1 and source.stats.generated_tokens == 0
            if where != "prefill":
                while source.stats.generated_tokens < 3:
                    source.step()
                assert source.num_active == 1
            if where == "preempted":
                source.submit(filler, priority=0, max_new_tokens=2)
                source.step()
                assert source.stats.preemptions == 1 and source.num_waiting == 1
        return request_id, source.checkpoint(request_id)

    @pytest.mark.parametrize("scheme", ["implicit", "explicit"])
    @pytest.mark.parametrize("where", ["future", "waiting", "prefill", "decoding", "preempted"])
    def test_checkpoint_from_any_state_resumes_bit_identically(
        self, tender_runners, corpus_splits, where, scheme
    ):
        runner = tender_runners[scheme]
        train_tokens, _ = corpus_splits
        prompt, filler = train_tokens[20:34], train_tokens[200:209]
        reference = self.make(runner)
        reference.submit(prompt, priority=1)
        (expected,) = reference.run()

        source = self.make(runner)
        request_id, checkpoint = self.detach_from(source, where, prompt, filler)
        assert checkpoint.slot == -1
        assert checkpoint.started == (where in ("decoding", "preempted"))
        # The source has relinquished the request: a second detach refuses.
        with pytest.raises(ConfigurationError):
            source.checkpoint(request_id)
        with pytest.raises(ConfigurationError):
            source.cancel(request_id)
        source.run()
        assert not source.has_pending
        assert source.cache.free_block_count == source.cache.num_blocks
        assert source.cache.active_slots == []

        target = self.make(runner)
        new_id = target.submit_checkpoint(checkpoint)
        (resumed,) = target.run()
        assert resumed.request_id == new_id
        assert resumed.finish_reason == expected.finish_reason == "length"
        np.testing.assert_array_equal(resumed.generated, expected.generated)
        np.testing.assert_array_equal(resumed.step_logits, expected.step_logits)
        assert resumed.preemptions == (1 if where == "preempted" else 0)
        assert not target.has_pending
        assert target.cache.free_block_count == target.cache.num_blocks

    def test_checkpoint_all_empties_the_scheduler_in_id_order(self, runner, prompt_pool):
        source = Scheduler(
            runner, GenerationConfig(max_new_tokens=6), max_batch_size=2, prefill_chunk=4
        )
        ids = [source.submit(prompt) for prompt in prompt_pool[:3]]
        ids.append(source.submit(prompt_pool[3], arrival_time=40.0))
        source.step()
        source.step()
        checkpoints = source.checkpoint_all()
        assert [checkpoint.request_id for checkpoint in checkpoints] == ids
        assert not source.has_pending and source.checkpoint_all() == []
        assert source.cache.free_block_count == source.cache.num_blocks
        target = Scheduler(runner, GenerationConfig(max_new_tokens=6), max_batch_size=2)
        for checkpoint in checkpoints:
            target.submit_checkpoint(checkpoint)
        outputs = outputs_by_id(target.run())
        engine = GenerationEngine(runner)
        for new_id, prompt in enumerate(prompt_pool[:4]):
            alone = engine.generate([prompt], GenerationConfig(max_new_tokens=6))
            np.testing.assert_array_equal(outputs[new_id].generated, alone.generated[0])

    def test_unstarted_checkpoint_still_honours_its_deadline(self, runner, prompt_pool):
        source = Scheduler(runner, GenerationConfig(max_new_tokens=12), max_batch_size=1)
        source.submit(prompt_pool[0])
        waiting_id = source.submit(prompt_pool[1], deadline=3.0)
        source.step()
        checkpoint = source.checkpoint(waiting_id)
        assert not checkpoint.started and checkpoint.deadline == 3.0
        # The target is busy past tick 3, so the re-queued request expires
        # there exactly as it would have on the source.
        target = Scheduler(runner, GenerationConfig(max_new_tokens=12), max_batch_size=1)
        target.submit(prompt_pool[2])
        new_id = target.submit_checkpoint(checkpoint)
        outputs = outputs_by_id(target.run())
        assert outputs[new_id].finish_reason == "expired"
        assert outputs[new_id].num_steps == 0 and outputs[new_id].admitted_at == -1.0
        assert target.stats.expired_requests == 1
        with pytest.raises(ConfigurationError, match="delay"):
            target.submit_checkpoint(checkpoint, delay=-1.0)

    def test_accounting_survives_a_checkpoint_hop(self, tender_runners, corpus_splits):
        """Speculation, preemption, prefix-hit and retry counters ride along.

        The record that leaves the source is the record the target finishes,
        so the final output reports everything the request accumulated
        before the hop plus whatever the target added.
        """
        runner = tender_runners["implicit"]
        train_tokens, _ = corpus_splits
        span = train_tokens[300:312]
        prompt = np.concatenate([span, span, span[:5]])  # repetitive: lookup hits

        def make():
            return Scheduler(
                runner, GenerationConfig(max_new_tokens=40), max_batch_size=1, block_size=4,
                prefix_cache=True, preemption=True,
                speculation=SpecConfig(drafter=PromptLookupDraft()),
            )  # fmt: skip

        reference = make()
        reference.submit(prompt, priority=1)
        (expected,) = reference.run()

        source = make()
        request_id = source.submit(prompt, priority=1)
        while source.stats.spec_proposed_tokens == 0:
            source.step()
        # Preempt it once, let the urgent request finish, and let the replay
        # re-map its published context — so every counter is non-trivial.
        source.submit(train_tokens[200:206], priority=0, max_new_tokens=1)
        while source.num_waiting or source.stats.completed_requests == 0:
            source.step()
        assert source.stats.preemptions == 1 and source.num_active == 1
        proposed = source.stats.spec_proposed_tokens
        accepted = source.stats.spec_accepted_tokens
        checkpoint = source.checkpoint(request_id)
        assert proposed > 0 and checkpoint.prefix_hit_tokens > 0
        assert checkpoint.preemptions == 1 and checkpoint.first_token_at >= 0.0
        before = (checkpoint.prefix_hit_tokens, checkpoint.first_token_at)
        checkpoint.retries += 1  # what the replica pool does on recovery

        target = make()
        target.submit_checkpoint(checkpoint)
        (resumed,) = target.run()
        np.testing.assert_array_equal(resumed.generated, expected.generated)
        np.testing.assert_array_equal(resumed.step_logits, expected.step_logits)
        assert resumed.spec_proposed_tokens == proposed + target.stats.spec_proposed_tokens
        assert resumed.spec_accepted_tokens == accepted + target.stats.spec_accepted_tokens
        assert resumed.preemptions == 1 and resumed.retries == 1
        assert (resumed.prefix_hit_tokens, resumed.first_token_at) == before
