"""Tests of the batched generation engine (sampling, stopping, batching)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SchemeRequest, available_schemes, build_runner
from repro.errors import ConfigurationError
from repro.models import TransformerRunner
from repro.serve import GenerationConfig, GenerationEngine, Scheduler, generate


@pytest.fixture(scope="module")
def prompts(corpus_splits):
    train_tokens, _ = corpus_splits
    return [train_tokens[:6], train_tokens[10:21], train_tokens[30:38]]


class TestGreedy:
    def test_shapes_and_determinism(self, tiny_weights, prompts):
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        config = GenerationConfig(max_new_tokens=5)
        first = engine.generate(prompts, config)
        second = engine.generate(prompts, config)
        assert first.num_steps == 5
        assert first.step_logits.shape == (3, 5, tiny_weights.config.vocab_size)
        for a, b, prompt in zip(first.sequences, second.sequences, prompts):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a[: len(prompt)], prompt)
            assert len(a) == len(prompt) + 5

    def test_batching_does_not_change_tokens(self, tiny_weights, prompts):
        """A request's continuation is identical alone or inside a ragged batch."""
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        config = GenerationConfig(max_new_tokens=4)
        batched = engine.generate(prompts, config)
        for row, prompt in enumerate(prompts):
            alone = engine.generate([prompt], config)
            np.testing.assert_array_equal(alone.generated[0], batched.generated[row])

    def test_convenience_wrapper(self, tiny_weights, prompts):
        result = generate(TransformerRunner(tiny_weights), prompts, GenerationConfig(max_new_tokens=2))
        assert result.num_steps == 2


class TestSampling:
    def test_top_k_is_seeded(self, tiny_weights, prompts):
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        config = GenerationConfig(max_new_tokens=6, top_k=8, temperature=1.3, seed=5)
        first = engine.generate(prompts, config)
        second = engine.generate(prompts, config)
        for a, b in zip(first.generated, second.generated):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_diverge(self, tiny_weights, prompts):
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        runs = [
            engine.generate(prompts, GenerationConfig(max_new_tokens=8, top_k=16, seed=seed))
            for seed in (1, 2, 3)
        ]
        flat = [np.concatenate(run.generated) for run in runs]
        assert any(not np.array_equal(flat[0], other) for other in flat[1:])

    def test_top_k_tokens_come_from_top_k(self, tiny_weights, prompts):
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        config = GenerationConfig(max_new_tokens=3, top_k=4, seed=0)
        result = engine.generate(prompts, config)
        for row in range(len(prompts)):
            for step in range(result.num_steps):
                logits = result.step_logits[row, step]
                top4 = set(np.argsort(logits)[-4:].tolist())
                assert int(result.generated[row][step]) in top4


class TestStopping:
    def test_eos_truncates_continuations(self, tiny_weights, prompts):
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        probe = engine.generate(prompts, GenerationConfig(max_new_tokens=6))
        eos = int(probe.generated[0][2])  # force an early stop for request 0
        result = engine.generate(prompts, GenerationConfig(max_new_tokens=6, eos_token=eos))
        for continuation in result.generated:
            hits = np.nonzero(continuation == eos)[0]
            if hits.size:
                assert hits[0] == len(continuation) - 1  # nothing kept past eos
        assert len(result.generated[0]) == 3

    def test_all_finished_stops_decoding_early(self, tiny_weights, prompts):
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        probe = engine.generate(prompts, GenerationConfig(max_new_tokens=1))
        # Every request's very first token is its eos -> exactly one step runs.
        eos_candidates = {int(g[0]) for g in probe.generated}
        if len(eos_candidates) == 1:
            result = engine.generate(
                prompts, GenerationConfig(max_new_tokens=10, eos_token=eos_candidates.pop())
            )
            assert result.num_steps == 1

    def test_generation_clipped_at_max_seq_len(self, tiny_weights, corpus_splits):
        train_tokens, _ = corpus_splits
        max_seq_len = tiny_weights.config.max_seq_len
        prompt = train_tokens[: max_seq_len - 3]
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        result = engine.generate([prompt], GenerationConfig(max_new_tokens=50))
        assert result.num_steps == 3
        assert len(result.sequences[0]) == max_seq_len

    def test_prompt_at_max_seq_len_rejected(self, tiny_weights, corpus_splits):
        train_tokens, _ = corpus_splits
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        with pytest.raises(ConfigurationError):
            engine.generate([train_tokens[: tiny_weights.config.max_seq_len]])

    def test_budgets_are_per_request(self, tiny_weights, corpus_splits):
        """A short prompt keeps its full budget when batched with a near-max one."""
        train_tokens, _ = corpus_splits
        max_seq_len = tiny_weights.config.max_seq_len
        short = train_tokens[:6]
        near_max = train_tokens[10 : 10 + max_seq_len - 2]
        engine = GenerationEngine(TransformerRunner(tiny_weights))
        config = GenerationConfig(max_new_tokens=8)
        result = engine.generate([short, near_max], config)
        assert len(result.generated[0]) == 8          # full budget for the short prompt
        assert len(result.generated[1]) == 2          # clipped at max_seq_len
        assert len(result.sequences[1]) == max_seq_len
        # The short request's tokens match what it gets when batched alone.
        alone = engine.generate([short], config)
        np.testing.assert_array_equal(alone.generated[0], result.generated[0])
        # Steps past a row's budget are zeroed, not garbage.
        assert not result.step_logits[1, 2:].any()


class TestValidation:
    def test_empty_batch_rejected(self, tiny_weights):
        with pytest.raises(ConfigurationError):
            GenerationEngine(TransformerRunner(tiny_weights)).generate([])

    def test_empty_prompt_rejected(self, tiny_weights, prompts):
        with pytest.raises(ConfigurationError):
            GenerationEngine(TransformerRunner(tiny_weights)).generate([np.array([], dtype=np.int64)])

    def test_out_of_vocab_prompt_rejected(self, tiny_weights):
        bad = np.array([tiny_weights.config.vocab_size + 1])
        with pytest.raises(ConfigurationError):
            GenerationEngine(TransformerRunner(tiny_weights)).generate([bad])

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
        result = GenerationEngine(runner).generate(prompts, GenerationConfig(max_new_tokens=3))
        vocab = outlier_weights.config.vocab_size
        assert result.num_steps == 3
        for continuation in result.generated:
            assert continuation.shape == (3,)
            assert continuation.min() >= 0 and continuation.max() < vocab

    def test_scheme_registry_exposes_generation_candidates(self):
        names = available_schemes()
        assert "Tender" in names and "SmoothQuant" in names
