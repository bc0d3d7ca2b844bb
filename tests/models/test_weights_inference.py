"""Tests of weight extraction, serialization, and the executor-based runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.errors import ConfigurationError
from repro.models import (
    CapturingExecutor,
    FloatExecutor,
    ModelWeights,
    ObservingExecutor,
    TransformerRunner,
    capture_activations,
    extract_weights,
    run_calibration,
)
from repro.nn import TransformerClassifier, TransformerConfig


class TestWeightExtraction:
    def test_runner_matches_autograd_model(self, tiny_trained_model, tiny_weights, eval_tokens):
        """The plain-NumPy inference path must agree with the training model."""
        tokens = eval_tokens[:24][None, :]
        autograd_logits = tiny_trained_model(tokens).numpy()
        runner_logits = TransformerRunner(tiny_weights).logits(tokens)
        np.testing.assert_allclose(runner_logits, autograd_logits, rtol=1e-8, atol=1e-8)

    def test_to_from_arrays_roundtrip(self, tiny_weights, eval_tokens):
        arrays = tiny_weights.to_arrays()
        rebuilt = ModelWeights.from_arrays(tiny_weights.config, arrays)
        tokens = eval_tokens[:16][None, :]
        np.testing.assert_allclose(
            TransformerRunner(rebuilt).logits(tokens), TransformerRunner(tiny_weights).logits(tokens)
        )

    def test_copy_is_independent(self, tiny_weights):
        copy = tiny_weights.copy()
        copy.blocks[0].attn.wq[:] = 0.0
        assert not np.allclose(tiny_weights.blocks[0].attn.wq, 0.0)

    def test_classifier_extraction(self, rng):
        config = TransformerConfig(
            vocab_size=60, d_model=16, num_heads=2, num_layers=1, d_ff=32,
            causal=False, num_classes=2, max_seq_len=16,
        )
        model = TransformerClassifier(config)
        weights = extract_weights(model)
        assert weights.classifier_weight is not None
        tokens = rng.integers(0, 60, size=(2, 8))
        np.testing.assert_allclose(
            TransformerRunner(weights).classify(tokens), model(tokens).numpy(), rtol=1e-8
        )


class TestTransformerRunner:
    def test_log_probs_normalize(self, tiny_weights, eval_tokens):
        log_probs = TransformerRunner(tiny_weights).log_probs(eval_tokens[:16][None, :])
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), 1.0, rtol=1e-9)

    def test_rejects_overlong_sequences(self, tiny_weights):
        runner = TransformerRunner(tiny_weights)
        with pytest.raises(ConfigurationError):
            runner.logits(np.zeros(tiny_weights.config.max_seq_len + 1, dtype=int))

    def test_classify_requires_classifier_head(self, tiny_weights):
        with pytest.raises(ConfigurationError):
            TransformerRunner(tiny_weights).classify(np.array([[1, 2, 3]]))

    def test_1d_tokens_accepted(self, tiny_weights, eval_tokens):
        logits = TransformerRunner(tiny_weights).logits(eval_tokens[:8])
        assert logits.shape[0] == 1

    @pytest.mark.parametrize("shape", [(12, 64), (3, 5, 32), (1, 1, 7)])
    def test_layer_norm_is_bit_identical_to_the_mean_var_formula(self, rng, shape):
        x = rng.normal(size=shape) * 7.0 + 3.0
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5) * gain + bias
        assert np.array_equal(TransformerRunner._layer_norm(x, gain, bias), expected)

    def test_stacked_qkv_is_bit_identical_to_three_projections(
        self, outlier_weights, calibration, eval_tokens, paged_view
    ):
        """Full-sequence and KV-cached forwards, logits and executor counters."""
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)

        def runner(stacked):
            built = TenderQuantizer(config, implicit=True).quantize(outlier_weights, calibration)
            assert built._stacks_qkv
            built._stacks_qkv = stacked
            return built

        stacked, separate = runner(True), runner(False)
        tokens = np.stack([eval_tokens[:40], eval_tokens[60:100]])
        assert np.array_equal(stacked.logits(tokens), separate.logits(tokens))

        model = outlier_weights.config
        lengths = np.array([40, 23])

        def cached_steps(built):
            cache = paged_view(model, capacities=[48, 48])
            steps = [built.prefill(tokens, lengths, cache)]
            for _ in range(3):
                steps.append(built.decode_step(steps[-1].argmax(axis=-1), cache))
            return steps

        for a, b in zip(cached_steps(stacked), cached_steps(separate)):
            assert np.array_equal(a, b)
        assert stacked.executor.stats == separate.executor.stats
        assert any(isinstance(names, tuple) for names in stacked.executor._sites)
        assert not any(isinstance(names, tuple) for names in separate.executor._sites)


class TestExecutors:
    def test_observing_executor_collects_every_projection_site(self, tiny_weights, eval_tokens):
        observer = run_calibration(tiny_weights, [eval_tokens[:16]])
        assert "block0.attn.q_proj" in observer
        assert "block0.ffn.fc1" in observer
        assert "lm_head" in observer
        # Activation-activation operands are recorded with .a / .b suffixes.
        assert "block0.attn.qk.a" in observer
        assert "block0.attn.sv.b" in observer

    def test_observing_executor_does_not_change_results(self, tiny_weights, eval_tokens):
        tokens = eval_tokens[:16][None, :]
        plain = TransformerRunner(tiny_weights, FloatExecutor()).logits(tokens)
        observed = TransformerRunner(tiny_weights, ObservingExecutor()).logits(tokens)
        np.testing.assert_allclose(plain, observed)

    def test_capturing_executor_stores_first_inputs(self, tiny_weights, eval_tokens):
        captured = capture_activations(tiny_weights, eval_tokens[:16])
        activation = captured["block0.attn.q_proj"]
        assert activation.shape == (16, tiny_weights.config.d_model)

    def test_capturing_executor_keeps_first_call_only(self, tiny_weights, eval_tokens):
        executor = CapturingExecutor()
        runner = TransformerRunner(tiny_weights, executor)
        runner.logits(eval_tokens[:8][None, :])
        first = executor.captured["block0.attn.q_proj"].copy()
        runner.logits(eval_tokens[8:24][None, :])
        np.testing.assert_allclose(executor.captured["block0.attn.q_proj"], first)
