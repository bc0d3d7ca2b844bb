"""Tests of fixed-batch generation (sampling, stopping, batching, prompt validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SchemeRequest, available_schemes, build_runner
from repro.errors import ConfigurationError
from repro.models import TransformerRunner
from repro.serve import GenerationConfig, Request, Scheduler, generate


@pytest.fixture(scope="module")
def prompts(corpus_splits):
    train_tokens, _ = corpus_splits
    return [train_tokens[:6], train_tokens[10:21], train_tokens[30:38]]


class TestGreedy:
    def test_shapes_and_determinism(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=5)
        first = generate(runner, prompts, config)
        second = generate(runner, prompts, config)
        assert [output.request_id for output in first] == [0, 1, 2]
        for a, b, prompt in zip(first, second, prompts):
            assert a.num_steps == 5
            assert a.step_logits.shape == (5, tiny_weights.config.vocab_size)
            np.testing.assert_array_equal(a.sequence, b.sequence)
            np.testing.assert_array_equal(a.sequence[: len(prompt)], prompt)
            assert len(a.sequence) == len(prompt) + 5

    def test_batching_does_not_change_tokens(self, tiny_weights, prompts):
        """A request's continuation is identical alone or inside a ragged batch."""
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=4)
        batched = generate(runner, prompts, config)
        for row, prompt in enumerate(prompts):
            [alone] = generate(runner, [prompt], config)
            np.testing.assert_array_equal(alone.generated, batched[row].generated)

    def test_convenience_wrapper(self, tiny_weights, prompts):
        """``generate`` is the scheduler run with every prompt submitted up front."""
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=3)
        scheduler = Scheduler(runner, config, max_batch_size=len(prompts))
        for prompt in prompts:
            scheduler.submit(prompt)
        by_hand = sorted(scheduler.run(), key=lambda output: output.request_id)
        outputs = generate(runner, prompts, config)
        assert len(outputs) == len(by_hand) == len(prompts)
        for output, expected in zip(outputs, by_hand):
            np.testing.assert_array_equal(output.sequence, expected.sequence)
            np.testing.assert_allclose(output.step_logits, expected.step_logits, rtol=1e-9, atol=1e-12)

    def test_outputs_follow_prompt_order(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=3)
        forward = generate(runner, prompts, config)
        backward = generate(runner, prompts[::-1], config)
        assert [output.request_id for output in backward] == [0, 1, 2]
        for output, expected, prompt in zip(backward, forward[::-1], prompts[::-1]):
            np.testing.assert_array_equal(output.prompt, prompt)
            np.testing.assert_array_equal(output.generated, expected.generated)


class TestSchedulerOptions:
    """Every keyword of ``generate`` past ``config`` is the scheduler's."""

    def test_prefix_cache_keeps_tokens(self, tiny_weights, corpus_splits):
        train_tokens, _ = corpus_splits
        shared = [np.concatenate([train_tokens[:40], train_tokens[100 + 7 * i : 105 + 7 * i]]) for i in range(3)]
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=4)
        cold = generate(runner, shared, config)
        warm = generate(runner, shared, config, prefix_cache=True)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.generated, b.generated)

    def test_prefill_chunk_keeps_tokens(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=4)
        whole = generate(runner, prompts, config)
        chunked = generate(runner, prompts, config, prefill_chunk=3)
        for a, b in zip(whole, chunked):
            np.testing.assert_array_equal(a.generated, b.generated)

    def test_unknown_option_is_refused(self, tiny_weights, prompts):
        with pytest.raises(TypeError, match="prefix_cach"):
            generate(TransformerRunner(tiny_weights), prompts, prefix_cach=True)

    @pytest.mark.parametrize("option", ["max_batch_size", "block_size", "num_blocks"])
    def test_pool_sizing_is_not_an_option(self, tiny_weights, prompts, option):
        """The pool is sized from the prompts; a caller cannot override it."""
        with pytest.raises(TypeError, match=option):
            generate(TransformerRunner(tiny_weights), prompts, **{option: 64})

    def test_request_is_served_with_its_own_budget(self, tiny_weights, prompts):
        """The pool is sized for a ``Request`` budget above the config's."""
        runner = TransformerRunner(tiny_weights)
        short, long = generate(runner, [prompts[0], Request(prompts[1], max_new_tokens=40)], GenerationConfig(2))
        assert (short.num_steps, long.num_steps) == (2, 40)
        [alone] = generate(runner, [prompts[1]], GenerationConfig(40))
        np.testing.assert_array_equal(long.generated, alone.generated)


class TestSampling:
    def test_top_k_is_seeded(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=6, top_k=8, temperature=1.3, seed=5)
        first = generate(runner, prompts, config)
        second = generate(runner, prompts, config)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.generated, b.generated)

    def test_different_seeds_diverge(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        runs = [
            generate(runner, prompts, GenerationConfig(max_new_tokens=8, top_k=16, seed=seed))
            for seed in (1, 2, 3)
        ]
        flat = [np.concatenate([output.generated for output in run]) for run in runs]
        assert any(not np.array_equal(flat[0], other) for other in flat[1:])

    def test_top_k_tokens_come_from_top_k(self, tiny_weights, prompts):
        config = GenerationConfig(max_new_tokens=3, top_k=4, seed=0)
        for output in generate(TransformerRunner(tiny_weights), prompts, config):
            for step in range(output.num_steps):
                top4 = set(np.argsort(output.step_logits[step])[-4:].tolist())
                assert int(output.generated[step]) in top4


class TestStopping:
    def test_eos_truncates_continuations(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        probe = generate(runner, prompts, GenerationConfig(max_new_tokens=6))
        eos = int(probe[0].generated[2])  # force an early stop for request 0
        result = generate(runner, prompts, GenerationConfig(max_new_tokens=6, eos_token=eos))
        for output in result:
            hits = np.nonzero(output.generated == eos)[0]
            if hits.size:
                assert hits[0] == len(output.generated) - 1  # nothing kept past eos
        assert len(result[0].generated) == 3

    def test_all_finished_stops_decoding_early(self, tiny_weights, prompts):
        runner = TransformerRunner(tiny_weights)
        probe = generate(runner, prompts, GenerationConfig(max_new_tokens=1))
        # Every request's very first token is its eos -> exactly one step runs.
        eos_candidates = {int(output.generated[0]) for output in probe}
        if len(eos_candidates) == 1:
            result = generate(
                runner, prompts, GenerationConfig(max_new_tokens=10, eos_token=eos_candidates.pop())
            )
            assert max(output.num_steps for output in result) == 1

    def test_generation_clipped_at_max_seq_len(self, tiny_weights, corpus_splits):
        train_tokens, _ = corpus_splits
        max_seq_len = tiny_weights.config.max_seq_len
        prompt = train_tokens[: max_seq_len - 3]
        [output] = generate(TransformerRunner(tiny_weights), [prompt], GenerationConfig(max_new_tokens=50))
        assert output.num_steps == 3
        assert len(output.sequence) == max_seq_len

    def test_prompt_at_max_seq_len_rejected(self, tiny_weights, corpus_splits):
        train_tokens, _ = corpus_splits
        with pytest.raises(ConfigurationError):
            generate(TransformerRunner(tiny_weights), [train_tokens[: tiny_weights.config.max_seq_len]])

    def test_budgets_are_per_request(self, tiny_weights, corpus_splits):
        """A short prompt keeps its full budget when batched with a near-max one."""
        train_tokens, _ = corpus_splits
        max_seq_len = tiny_weights.config.max_seq_len
        short = train_tokens[:6]
        near_max = train_tokens[10 : 10 + max_seq_len - 2]
        runner = TransformerRunner(tiny_weights)
        config = GenerationConfig(max_new_tokens=8)
        result = generate(runner, [short, near_max], config)
        assert len(result[0].generated) == 8          # full budget for the short prompt
        assert len(result[1].generated) == 2          # clipped at max_seq_len
        assert len(result[1].sequence) == max_seq_len
        # The short request's tokens match what it gets when batched alone.
        [alone] = generate(runner, [short], config)
        np.testing.assert_array_equal(alone.generated, result[0].generated)
        # Each output holds exactly the logits of the steps it took.
        for output in result:
            assert output.step_logits.shape == (output.num_steps, tiny_weights.config.vocab_size)


class TestValidation:
    def test_empty_batch_rejected(self, tiny_weights):
        with pytest.raises(ConfigurationError):
            generate(TransformerRunner(tiny_weights), [])

    def test_empty_prompt_rejected(self, tiny_weights, prompts):
        with pytest.raises(ConfigurationError):
            generate(TransformerRunner(tiny_weights), [np.array([], dtype=np.int64)])

    def test_out_of_vocab_prompt_rejected(self, tiny_weights):
        bad = np.array([tiny_weights.config.vocab_size + 1])
        with pytest.raises(ConfigurationError):
            generate(TransformerRunner(tiny_weights), [bad])

    #: Each was once truncated to int64 and flattened, then served: floats
    #: as their floors, a matrix as one long row, bools as tokens 0 and 1.
    NOT_TOKEN_ROWS = {
        "float": (np.array([1.7, 2.2, 3.9]), "float64", r"\(3,\)"),
        "2-D": (np.array([[1, 2], [3, 4]]), "int64", r"\(2, 2\)"),
        "bool": (np.array([True, False, True]), "bool", r"\(3,\)"),
        "float list": ([1.7, 2.2, 3.9], "float64", r"\(3,\)"),
        "nested list": ([[1, 2], [3, 4]], "int64", r"\(2, 2\)"),
    }

    @pytest.mark.parametrize("case", sorted(NOT_TOKEN_ROWS))
    def test_prompt_that_is_not_a_row_of_token_ids_is_refused(self, tiny_weights, prompts, case):
        """Refused like ``Scheduler.submit`` refuses it, naming dtype and shape, before a pool is built."""
        bad, dtype, shape = self.NOT_TOKEN_ROWS[case]
        with pytest.raises(ConfigurationError, match=rf"got dtype {dtype} shape {shape}"):
            generate(TransformerRunner(tiny_weights), [prompts[0], bad])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GenerationConfig(max_new_tokens=0)
        with pytest.raises(ConfigurationError):
            GenerationConfig(top_k=-1)
        with pytest.raises(ConfigurationError):
            GenerationConfig(temperature=0.0)

    #: Each was accepted, and failed mid-serve or served the wrong thing: a
    #: fractional ``top_k`` as a slice ``TypeError`` after the prefill ran, a
    #: NaN temperature as NumPy's "Probabilities contain NaN", a fractional
    #: seed as a bare ``SeedSequence`` error, a fractional budget as one
    #: token fewer, a negative or fractional ``eos_token`` as a stop no token
    #: can trigger.
    MALFORMED = {
        "fractional top_k": (dict(top_k=2.5), "top_k", "2.5"),
        "nan temperature": (dict(top_k=3, temperature=float("nan")), "temperature", "nan"),
        "infinite temperature": (dict(top_k=3, temperature=float("inf")), "temperature", "inf"),
        "fractional seed": (dict(seed=1.5), "seed", "1.5"),
        "negative seed": (dict(seed=-1), "seed", "-1"),
        "fractional max_new_tokens": (dict(max_new_tokens=2.5), "max_new_tokens", "2.5"),
        "negative eos_token": (dict(eos_token=-3), "eos_token", "-3"),
        "fractional eos_token": (dict(eos_token=2.5), "eos_token", "2.5"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_field_is_refused_naming_its_value(self, case):
        fields, name, value = self.MALFORMED[case]
        with pytest.raises(ConfigurationError, match=rf"{name} must be .*, got {value}$"):
            GenerationConfig(**fields)

    def test_integral_fields_accept_numpy_integers(self):
        config = GenerationConfig(max_new_tokens=np.int64(3), top_k=np.int32(2), seed=np.uint8(7), eos_token=np.int64(0))
        assert (config.max_new_tokens, config.top_k, config.seed, config.eos_token) == (3, 2, 7, 0)

    def test_scheduler_refuses_an_eos_token_outside_the_vocabulary(self, tiny_weights):
        runner = TransformerRunner(tiny_weights)
        vocab = tiny_weights.config.vocab_size
        Scheduler(runner, GenerationConfig(eos_token=vocab - 1))
        with pytest.raises(ConfigurationError, match=rf"eos_token {vocab} is outside the model's vocabulary \[0, {vocab}\)"):
            Scheduler(runner, GenerationConfig(eos_token=vocab))


class TestRegistrySchemes:
    @pytest.mark.parametrize("scheme", ["per-tensor", "per-row", "SmoothQuant", "ANT", "OliVe"])
    def test_generate_runs_on_registry_baselines(self, scheme, outlier_weights, calibration, prompts):
        request = SchemeRequest(weights=outlier_weights, calibration=calibration, bits=8)
        runner = build_runner(scheme, request)
        vocab = outlier_weights.config.vocab_size
        for output in generate(runner, prompts, GenerationConfig(max_new_tokens=3)):
            assert output.generated.shape == (3,)
            assert output.generated.min() >= 0 and output.generated.max() < vocab

    def test_scheme_registry_exposes_generation_candidates(self):
        names = available_schemes()
        assert "Tender" in names and "SmoothQuant" in names
