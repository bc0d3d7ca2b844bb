"""Parity: KV-cached incremental decoding must reproduce full-sequence forwards.

The contract (and the point of the KV-cache): the logits produced while
decoding step by step are the same ones a full forward over the final token
sequence would produce — position by position, request by request, regardless
of how requests were batched or padded.  Tolerance is atol 1e-9; Tender's
integer pipeline is exact, the FP baseline differs only by BLAS blocking
noise (~1e-15).

The one scoped exception is Tender "all" (``quantize_attention=True``): its
attention operands are quantized with *dynamic* per-head statistics, which a
decode step necessarily derives from one query row while the full forward
derives them from the whole sequence — decoding is a (deliberately) different
quantization schedule there, exactly the serving-time regime the paper's
runtime requantization targets.  What must still hold for it — and is tested
below — is batching isolation: a request's logits never depend on what it was
padded or batched with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.core.kernels import ForwardPlan
from repro.models import TransformerRunner
from repro.errors import ConfigurationError
from repro.serve import GenerationConfig, GenerationEngine, ModelDraft, ShardedRunner
from repro.serve.workloads import VOCAB

ATOL = 1e-9
MAX_NEW_TOKENS = 6


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
def ragged_prompts(corpus_splits):
    train_tokens, _ = corpus_splits
    # Lengths straddle the Tender row-chunk boundary (chunk size 8).
    return [train_tokens[:5], train_tokens[10:19], train_tokens[30:44]]


@pytest.mark.parametrize("name", ["float", "tender-implicit", "tender-explicit"])
class TestDecodeMatchesFullForward:
    def test_stepwise_logits_match(self, name, runners, ragged_prompts):
        runner = runners[name]
        engine = GenerationEngine(runner)
        result = engine.generate(ragged_prompts, GenerationConfig(max_new_tokens=MAX_NEW_TOKENS))
        assert result.num_steps == MAX_NEW_TOKENS
        for row, prompt in enumerate(ragged_prompts):
            reference = runner.logits(result.sequences[row][None, :])[0]
            for step in range(result.num_steps):
                position = len(prompt) - 1 + step
                np.testing.assert_allclose(
                    result.step_logits[row, step], reference[position], rtol=0.0, atol=ATOL
                )

    def test_greedy_tokens_match_full_forward(self, name, runners, ragged_prompts):
        runner = runners[name]
        result = GenerationEngine(runner).generate(
            ragged_prompts, GenerationConfig(max_new_tokens=MAX_NEW_TOKENS)
        )
        for row, prompt in enumerate(ragged_prompts):
            reference = runner.logits(result.sequences[row][None, :])[0]
            for step in range(result.num_steps):
                expected = int(np.argmax(reference[len(prompt) - 1 + step]))
                assert int(result.generated[row][step]) == expected

    @pytest.mark.parametrize("attention", ["fused", "gather"])
    def test_prefill_matches_full_forward(self, name, attention, runners, ragged_prompts, paged_view, monkeypatch):
        runner = runners[name]
        monkeypatch.setattr(runner, "fused_paged_attention", attention == "fused")
        lengths = np.array([len(p) for p in ragged_prompts])
        padded = np.zeros((len(ragged_prompts), int(lengths.max())), dtype=np.int64)
        for row, prompt in enumerate(ragged_prompts):
            padded[row, : len(prompt)] = prompt
        cache = paged_view(runner.config, len(ragged_prompts))
        logits = runner.prefill(padded, lengths, cache)
        for row, prompt in enumerate(ragged_prompts):
            reference = runner.logits(np.asarray(prompt)[None, :])[0, -1]
            np.testing.assert_allclose(logits[row], reference, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(cache.lengths, lengths)
        assert bool(cache._paged.gather_bytes) == (attention == "gather")

    def test_ragged_batching_is_isolation_safe(self, name, runners, ragged_prompts):
        """Each request's step logits are identical alone or in a ragged batch."""
        runner = runners[name]
        engine = GenerationEngine(runner)
        config = GenerationConfig(max_new_tokens=4)
        batched = engine.generate(ragged_prompts, config)
        for row, prompt in enumerate(ragged_prompts):
            alone = engine.generate([prompt], config)
            np.testing.assert_allclose(
                alone.step_logits[0], batched.step_logits[row], rtol=0.0, atol=ATOL
            )


class TestTokenByTokenPriming:
    @pytest.mark.parametrize("attention", ["fused", "gather"])
    def test_decode_step_without_prefill(self, attention, runners, corpus_splits, paged_view, monkeypatch):
        """Feeding a prompt one decode_step at a time equals the full forward."""
        train_tokens, _ = corpus_splits
        prompt = train_tokens[50:59]
        for runner in runners.values():
            monkeypatch.setattr(runner, "fused_paged_attention", attention == "fused")
            cache = paged_view(runner.config, capacities=[16])
            stepwise = [runner.decode_step(np.array([token]), cache) for token in prompt]
            reference = runner.logits(np.asarray(prompt)[None, :])[0]
            for position, logits in enumerate(stepwise):
                np.testing.assert_allclose(logits[0], reference[position], rtol=0.0, atol=ATOL)

    def test_decode_past_max_seq_len_rejected(self, runners, paged_view):
        runner = runners["float"]
        cache = paged_view(runner.config)
        cache.lengths[:] = runner.config.max_seq_len
        with pytest.raises(ConfigurationError):
            runner.decode_step(np.array([1]), cache)


@pytest.mark.parametrize("attention", ["fused", "gather"])
class TestRaggedPrefillBoundaries:
    """Each row of a ragged partial prefill is validated on its own extent.

    The padded rectangle is never computed, so a one-token chunk near
    ``max_seq_len`` batched beside a long chunk neither trips the length
    check nor writes past its reservation — and a row that *does* overrun
    is refused with the usual typed error before any cache write.  Both
    attention paths: the fused kernel, and ``dense_cached_attention`` over
    gathered copies (which re-pads the short row beside the long one).
    """

    HISTORY, LONG = 120, 40  # max_seq_len is 128: 120 + 40 overruns, 120 + 1 does not

    @pytest.fixture
    def runner(self, attention, runners, monkeypatch):
        runner = runners["tender-implicit"]
        monkeypatch.setattr(runner, "fused_paged_attention", attention == "fused")
        return runner

    def caches(self, runner, paged_view, history_tokens):
        """``(batch of two, the rows alone)``, the first row holding ``HISTORY`` tokens."""

        def build(capacities):
            return paged_view(runner.config, block_size=8, capacities=capacities)

        both, alone = build([self.HISTORY + 1, self.LONG]), build([self.HISTORY + 1])
        for cache in (both, alone):
            lengths = np.full(len(cache.lengths), self.HISTORY)
            lengths[1:] = 1  # the second row of ``both`` starts empty below
            tokens = np.broadcast_to(history_tokens, (len(lengths), self.HISTORY))
            runner.prefill(tokens, lengths, cache, return_logits=False)
            cache.lengths[1:] = 0
        return both, alone, build([self.LONG])

    def test_short_chunk_near_max_seq_len_beside_a_long_one(self, runner, paged_view, corpus_splits):
        train_tokens, _ = corpus_splits
        both, short_alone, long_alone = self.caches(runner, paged_view, train_tokens[: self.HISTORY])
        long_chunk = train_tokens[200 : 200 + self.LONG]
        tokens = np.zeros((2, self.LONG), dtype=np.int64)
        tokens[0, 0] = 77
        tokens[1] = long_chunk
        logits = runner.prefill(
            tokens, np.array([1, self.LONG]), both, start_positions=np.array([self.HISTORY, 0])
        )
        assert both.lengths.tolist() == [self.HISTORY + 1, self.LONG]
        short = runner.prefill(
            np.array([[77]]), np.array([1]), short_alone, start_positions=np.array([self.HISTORY])
        )
        long = runner.prefill(long_chunk[None, :], np.array([self.LONG]), long_alone)
        assert np.array_equal(logits[0], short[0])
        assert np.array_equal(logits[1], long[0])

    def test_an_overrunning_row_is_refused_before_any_write(self, runner, paged_view, corpus_splits):
        train_tokens, _ = corpus_splits
        both, _, _ = self.caches(runner, paged_view, train_tokens[: self.HISTORY])
        before = both._paged._pools.copy()
        tokens = np.zeros((2, 9), dtype=np.int64)
        overrun = runner.config.max_seq_len - self.HISTORY + 1
        with pytest.raises(ConfigurationError, match="exceeds max_seq_len"):
            runner.prefill(
                tokens, np.array([overrun, 3]), both, start_positions=np.array([self.HISTORY, 0])
            )
        # Inside max_seq_len but past the second slot's 40 reserved positions.
        with pytest.raises(ConfigurationError, match="reserved capacity"):
            runner.prefill(
                tokens, np.array([1, 9]), both, start_positions=np.array([self.HISTORY, 36])
            )
        assert np.array_equal(before, both._paged._pools)


SCHEMES = ["fp", "tender-implicit", "tender-explicit"]


def oracle_pair(solo, shards, layers=2):
    """``(fused, gather)`` runners over the same weights and calibration.

    The fused one lets unread prefill rows leave after the last block's KV
    write; the gather-then-dense one carries every row to the end.  One layer:
    the first block is the last (``ModelDraft.truncated``'s weights, under
    the same executor — the sites keep their names).
    """
    if layers == 1:
        solo = TransformerRunner(ModelDraft.truncated(solo, 1).runner.weights, solo.executor)
    pair = []
    for fused in (True, False):
        runner = TransformerRunner(solo.weights, solo.executor)
        runner.fused_paged_attention = fused
        pair.append(ShardedRunner(runner, shards) if shards else runner)
    return pair


def assert_same_logits(scheme, actual, expected):
    """Bitwise under Tender; FP carries BLAS row-blocking noise that flips no token."""
    if scheme == "fp":
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(actual.argmax(axis=-1), expected.argmax(axis=-1))
    else:
        np.testing.assert_array_equal(actual, expected)


def assert_same_pools(scheme, views):
    """Every layer's K and V storage, unread rows' last-block entries included."""
    fused, gather = (view._paged._pools for view in views)
    assert np.abs(fused).max() > 0
    if scheme == "fp":
        np.testing.assert_allclose(fused, gather, rtol=0.0, atol=1e-12)
    else:
        np.testing.assert_array_equal(fused, gather)


@pytest.mark.parametrize("layers", [2, 1], ids=["2 layers", "1 layer"])
@pytest.mark.parametrize("shards", [0, 2, 3], ids=["solo", "2 shards", "3 shards"])
@pytest.mark.parametrize("scheme", SCHEMES)
class TestUnreadRowsLeaveEarly:
    """In the last block a prefill row continues past the KV write only if it is read.

    The oracle is the gather-then-dense runner, which keeps every row: the
    fused runner must return its logits (and the full forward's) and leave
    the same bytes in every layer of the pool — the rows that left wrote
    their last-block K/V first, or the next chunk would attend zeros.
    """

    PROMPT = np.random.default_rng(7).integers(0, VOCAB, size=72)

    @pytest.mark.parametrize("chunk", [72, 64, 7, 1], ids=["whole", "chunk 64", "chunk 7", "chunk 1"])
    def test_chunked_prefill(self, scheme, shards, layers, chunk, four_head_runners, paged_view):
        pair = oracle_pair(four_head_runners[scheme], shards, layers)
        views = [paged_view(runner.config, capacities=[len(self.PROMPT)]) for runner in pair]
        for begin in range(0, len(self.PROMPT), chunk):
            piece = self.PROMPT[begin : begin + chunk]
            final = begin + chunk >= len(self.PROMPT)
            logits = [
                runner.prefill(piece[None, :], [len(piece)], view, start_positions=[begin], return_logits=final)
                for runner, view in zip(pair, views)
            ]
            assert_same_pools(scheme, views)
            assert all(view.lengths.tolist() == [begin + len(piece)] for view in views)
            assert final or logits == [None, None]
        assert_same_logits(scheme, logits[0], logits[1])
        assert_same_logits(scheme, logits[0], pair[0].logits(self.PROMPT[None, :])[:, -1])

    def test_ragged_batch(self, scheme, shards, layers, four_head_runners, paged_view):
        """A one-token row (its only row is its final row) beside a 40-token row."""
        pair = oracle_pair(four_head_runners[scheme], shards, layers)
        views = [paged_view(runner.config, capacities=[1, 40]) for runner in pair]
        tokens = np.stack([np.full(40, 5), self.PROMPT[:40]])  # the first row is one token and padding
        logits = [runner.prefill(tokens, [1, 40], view) for runner, view in zip(pair, views)]
        assert_same_pools(scheme, views)
        assert_same_logits(scheme, logits[0], logits[1])
        for row, length in enumerate((1, 40)):
            alone = pair[0].logits(tokens[row : row + 1, :length])[:, -1]
            assert_same_logits(scheme, logits[0][row : row + 1], alone)

    def test_nothing_read_then_decode(self, scheme, shards, layers, four_head_runners, paged_view):
        """``return_logits=False`` ends at the last KV write; the decode step after it attends those rows."""
        pair = oracle_pair(four_head_runners[scheme], shards, layers)
        views = [paged_view(runner.config, capacities=[len(self.PROMPT)]) for runner in pair]
        context = self.PROMPT[None, :-1]
        for runner, view in zip(pair, views):
            assert runner.prefill(context, [context.shape[1]], view, return_logits=False) is None
            assert view.lengths.tolist() == [context.shape[1]]
        assert_same_pools(scheme, views)
        logits = [runner.decode_step(self.PROMPT[-1:], view) for runner, view in zip(pair, views)]
        assert_same_logits(scheme, logits[0], logits[1])
        assert_same_logits(scheme, logits[0], pair[0].logits(self.PROMPT[None, :])[:, -1])


@pytest.mark.parametrize("shards", [0, 2], ids=["solo", "2 shards"])
class TestEarlyExitExactWork:
    """What one prefill forward runs, counted — no clock."""

    @pytest.mark.parametrize("attention", ["fused", "gather"])
    def test_an_intermediate_chunk_stops_at_the_last_kv_write(
        self, shards, attention, four_head_runners, paged_view, monkeypatch
    ):
        """Q/K/V in every block, the other three sites in every block but the
        last — and one ``paged_attention`` call fewer.  The gather runner runs
        all six sites of every block (and no fused kernel at all)."""
        from repro.models import inference
        from repro.serve import shard

        runner = oracle_pair(four_head_runners["tender-implicit"], shards)[attention == "gather"]
        layers = runner.config.num_layers
        attended, kernel = [], inference.paged_attention
        for module in (inference, shard):  # one wrapper, wherever the runner imported the kernel
            monkeypatch.setattr(module, "paged_attention", lambda *args: (attended.append(1), kernel(*args))[1])
        view = paged_view(runner.config, capacities=[32])
        tokens = np.arange(16)[None, :]
        before = runner.executor.stats["projections"]
        assert runner.prefill(tokens, [16], view, return_logits=False) is None
        ran = runner.executor.stats["projections"] - before  # a shard group's one full-width executor
        if attention == "fused":
            assert ran == 3 * layers + 3 * (layers - 1) and len(attended) == layers - 1
        else:
            assert ran == 6 * layers and not attended

    def test_one_token_prompts_build_no_second_plan(self, shards, four_head_runners, paged_view, monkeypatch):
        """Every row of a one-token batch is read: the forward's own plan
        serves the LM head.  A longer prompt adds exactly the kept sub-plan,
        which the LM head reuses."""
        runner = oracle_pair(four_head_runners["tender-implicit"], shards)[0]
        built, init = [], ForwardPlan.__init__
        monkeypatch.setattr(ForwardPlan, "__init__", lambda plan, *args: (built.append(plan), init(plan, *args))[1])
        runner.prefill(np.array([[3], [4]]), [1, 1], paged_view(runner.config, capacities=[8, 8]))
        assert len(built) == 1 and built[0].parent_rows is None
        del built[:]
        runner.prefill(np.arange(12).reshape(2, 6), [6, 4], paged_view(runner.config, capacities=[8, 8]))
        assert [plan.positions.tolist() for plan in built] == [[0, 1, 2, 3, 4, 5, 0, 1, 2, 3], [5, 3]]
        assert built[1].parent_rows.tolist() == [5, 9]


class TestQuantizedAttentionIsolation:
    """Tender "all" (quantize_attention=True): batching must not leak.

    Dynamic attention quantization computes channel statistics from runtime
    operands, so padded garbage rows/slots would contaminate them unless the
    engine neutralises padding (duplicated query rows, zeroed K/V, duplicated
    probability rows).  These tests pin that neutralisation down.
    """

    @pytest.fixture(scope="class")
    def all_runners(self, outlier_weights, calibration):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, quantize_attention=True)
        return {
            implicit: TenderQuantizer(config, implicit=implicit).quantize(
                outlier_weights, calibration
            )
            for implicit in (True, False)
        }

    @pytest.mark.parametrize("implicit", [True, False])
    def test_ragged_batching_is_isolation_safe(self, implicit, all_runners, ragged_prompts):
        engine = GenerationEngine(all_runners[implicit])
        config = GenerationConfig(max_new_tokens=4)
        batched = engine.generate(ragged_prompts, config)
        for row, prompt in enumerate(ragged_prompts):
            alone = engine.generate([prompt], config)
            np.testing.assert_allclose(
                alone.step_logits[0], batched.step_logits[row], rtol=0.0, atol=1e-12
            )
            np.testing.assert_array_equal(alone.generated[0], batched.generated[row])

    def test_decode_is_a_per_step_quantization_schedule(self, all_runners, ragged_prompts):
        """Decode logits for Tender "all" legitimately differ from the full
        forward (per-step dynamic stats) but generation stays well-formed."""
        engine = GenerationEngine(all_runners[True])
        result = engine.generate(ragged_prompts, GenerationConfig(max_new_tokens=4))
        assert result.num_steps == 4
        assert np.isfinite(result.step_logits).all()


class TestContinuousSchedulerParity:
    """Per-request outputs under the continuous scheduler match solo runs.

    The acceptance bar for continuous batching: a request's output must be
    *bit-identical* to running it alone through ``generate()``, no matter
    how it was batched, staggered, evicted around, or which recycled slot it
    landed in.  Token sequences are bit-identical for every scheme.  Step
    logits are bit-identical for Tender's integer pipeline; the FP
    baseline's logits carry ~1e-15 BLAS row-blocking noise (batched decode
    stacks the active slots into one ``(batch, d_model)`` projection
    operand, and dgemm picks different micro-kernels for different row
    counts), which never flips a sampled token.
    """

    BUDGETS = [3, 7, 5, 6, 4, 8]
    ARRIVALS = [0.0, 0.0, 1.0, 3.0, 5.0, 8.0]

    def _trace_prompts(self, corpus_splits):
        train_tokens, _ = corpus_splits
        return [train_tokens[i * 12 : i * 12 + 4 + (i % 4) * 3] for i in range(6)]

    def _run_trace(self, runner, prompts, config):
        from repro.serve import Scheduler

        scheduler = Scheduler(runner, config, max_batch_size=2, block_size=8)
        for prompt, budget, arrival in zip(prompts, self.BUDGETS, self.ARRIVALS):
            scheduler.submit(prompt, max_new_tokens=budget, arrival_time=arrival)
        outputs = {output.request_id: output for output in scheduler.run()}
        assert scheduler.stats.peak_active <= 2  # slots really were reused
        return outputs

    @pytest.mark.parametrize("name", ["float", "tender-implicit", "tender-explicit"])
    def test_scheduled_outputs_match_solo_generate(self, name, runners, corpus_splits):
        runner = runners[name]
        prompts = self._trace_prompts(corpus_splits)
        outputs = self._run_trace(runner, prompts, GenerationConfig())
        engine = GenerationEngine(runner)
        for request_id, (prompt, budget) in enumerate(zip(prompts, self.BUDGETS)):
            alone = engine.generate([prompt], GenerationConfig(max_new_tokens=budget))
            np.testing.assert_array_equal(outputs[request_id].generated, alone.generated[0])
            np.testing.assert_array_equal(outputs[request_id].sequence, alone.sequences[0])
            if name.startswith("tender"):
                # Integer pipeline: logits are bit-identical under batching.
                np.testing.assert_array_equal(outputs[request_id].step_logits, alone.step_logits[0])
            else:
                np.testing.assert_allclose(
                    outputs[request_id].step_logits, alone.step_logits[0], rtol=0.0, atol=1e-12
                )

    def test_tender_all_bit_identical_under_scheduler(self, outlier_weights, calibration, corpus_splits):
        """Even dynamic attention quantization is batching-invariant."""
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, quantize_attention=True)
        runner = TenderQuantizer(config).quantize(outlier_weights, calibration)
        prompts = self._trace_prompts(corpus_splits)
        outputs = self._run_trace(runner, prompts, GenerationConfig())
        engine = GenerationEngine(runner)
        for request_id, (prompt, budget) in enumerate(zip(prompts, self.BUDGETS)):
            alone = engine.generate([prompt], GenerationConfig(max_new_tokens=budget))
            np.testing.assert_array_equal(outputs[request_id].generated, alone.generated[0])
            np.testing.assert_array_equal(outputs[request_id].step_logits, alone.step_logits[0])

    def test_top_k_sampling_is_batching_invariant(self, runners, corpus_splits):
        """Per-request seeded generators make sampling scheduling-independent."""
        runner = runners["tender-implicit"]
        prompts = self._trace_prompts(corpus_splits)
        config = GenerationConfig(top_k=8, temperature=1.3, seed=11)
        outputs = self._run_trace(runner, prompts, config)
        engine = GenerationEngine(runner)
        for request_id, (prompt, budget) in enumerate(zip(prompts, self.BUDGETS)):
            alone = engine.generate(
                [prompt], GenerationConfig(max_new_tokens=budget, top_k=8, temperature=1.3, seed=11)
            )
            np.testing.assert_array_equal(outputs[request_id].generated, alone.generated[0])


class TestTenderChunkConsistency:
    def test_decoded_token_uses_position_chunk(self, outlier_weights, calibration, corpus_splits):
        """A decoded token's quantization chunk comes from its position.

        With chunk size 4, a prompt of 6 tokens followed by decoding must use
        chunk 1 parameters for the decoded token at position 6 — the same ones
        the full forward uses — even though the decode step's activation
        matrix has a single row (flat row index 0).
        """
        train_tokens, _ = corpus_splits
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=4)
        runner = TenderQuantizer(config).quantize(outlier_weights, calibration)
        prompt = train_tokens[:6]
        result = GenerationEngine(runner).generate([prompt], GenerationConfig(max_new_tokens=5))
        reference = runner.logits(result.sequences[0][None, :])[0]
        for step in range(result.num_steps):
            np.testing.assert_allclose(
                result.step_logits[0, step], reference[len(prompt) - 1 + step], rtol=0.0, atol=ATOL
            )

    def test_batched_full_forward_is_position_consistent(
        self, outlier_weights, calibration, corpus_splits
    ):
        """Batched full forwards chunk by token position, not flat row index.

        A sequence's logits must be the same whether it is forwarded alone or
        stacked into a batch — historically row chunks were looked up by flat
        row index, which handed every sequence after the first the (clamped)
        last chunk's calibration parameters.
        """
        train_tokens, _ = corpus_splits
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=4)
        runner = TenderQuantizer(config).quantize(outlier_weights, calibration)
        first, second = train_tokens[:12], train_tokens[20:32]
        batched = runner.logits(np.stack([first, second]))
        for row, tokens in enumerate((first, second)):
            solo = runner.logits(tokens[None, :])[0]
            np.testing.assert_allclose(batched[row], solo, rtol=0.0, atol=ATOL)
