"""Tests of the functional ops: embedding, layer norm, cross entropy, helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, cross_entropy, embedding_lookup, layer_norm
from repro.tensor.ops import gelu, log_softmax, relu, softmax
from tests.tensor.test_tensor import numeric_gradient


class TestEmbedding:
    def test_lookup_values(self, rng):
        table = rng.normal(size=(10, 4))
        indices = np.array([[1, 3], [0, 9]])
        result = embedding_lookup(Tensor(table), indices)
        np.testing.assert_allclose(result.numpy(), table[indices])

    def test_lookup_rejects_float_indices(self, rng):
        with pytest.raises(ShapeError):
            embedding_lookup(Tensor(rng.normal(size=(4, 2))), np.array([0.5]))

    def test_lookup_gradient_scatters(self, rng):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        indices = np.array([1, 1, 4])
        embedding_lookup(table, indices).sum().backward()
        expected = np.zeros((6, 3))
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_allclose(table.grad, expected)


class TestLayerNorm:
    def test_output_is_normalized_with_unit_gain(self, rng):
        x = Tensor(rng.normal(size=(5, 8)) * 3 + 2)
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = layer_norm(x, gain, bias).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(5), atol=1e-3)

    def test_gain_scales_specific_channel(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        gain_values = np.ones(6)
        gain_values[2] = 10.0
        out = layer_norm(x, Tensor(gain_values), Tensor(np.zeros(6))).numpy()
        reference = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))).numpy()
        np.testing.assert_allclose(out[:, 2], reference[:, 2] * 10.0)

    def test_input_gradient_matches_numeric(self, rng):
        value = rng.normal(size=(3, 5))
        gain = rng.normal(size=(5,)) + 1.0
        bias = rng.normal(size=(5,))

        def loss_from(array):
            return (layer_norm(Tensor(array), Tensor(gain), Tensor(bias)) ** 2).sum().item()

        x = Tensor(value.copy(), requires_grad=True)
        (layer_norm(x, Tensor(gain), Tensor(bias)) ** 2).sum().backward()
        numeric = numeric_gradient(lambda v: loss_from(v), value.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_gain_bias_gradients_match_numeric(self, rng):
        value = rng.normal(size=(3, 4))
        gain_value = rng.normal(size=(4,)) + 1.0
        bias_value = rng.normal(size=(4,))

        gain = Tensor(gain_value.copy(), requires_grad=True)
        bias = Tensor(bias_value.copy(), requires_grad=True)
        (layer_norm(Tensor(value), gain, bias) ** 2).sum().backward()

        numeric_gain = numeric_gradient(
            lambda g: (layer_norm(Tensor(value), Tensor(g), Tensor(bias_value)) ** 2).sum().item(),
            gain_value.copy(),
        )
        numeric_bias = numeric_gradient(
            lambda b: (layer_norm(Tensor(value), Tensor(gain_value), Tensor(b)) ** 2).sum().item(),
            bias_value.copy(),
        )
        np.testing.assert_allclose(gain.grad, numeric_gain, atol=1e-5)
        np.testing.assert_allclose(bias.grad, numeric_bias, atol=1e-5)


class TestCrossEntropy:
    def test_perfect_prediction_has_low_loss(self):
        logits = np.full((1, 4, 5), -20.0)
        targets = np.array([[1, 2, 3, 0]])
        for position, target in enumerate(targets[0]):
            logits[0, position, target] = 20.0
        loss = cross_entropy(Tensor(logits), targets)
        assert loss.item() < 1e-3

    def test_uniform_prediction_equals_log_vocab(self):
        vocab = 11
        logits = np.zeros((2, 3, vocab))
        targets = np.zeros((2, 3), dtype=int)
        loss = cross_entropy(Tensor(logits), targets)
        np.testing.assert_allclose(loss.item(), np.log(vocab), rtol=1e-6)

    def test_ignore_index_excludes_positions(self):
        logits = np.zeros((1, 2, 4))
        logits[0, 0, 1] = 10.0
        targets = np.array([[1, -1]])
        loss = cross_entropy(Tensor(logits), targets, ignore_index=-1)
        assert loss.item() < 1e-3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros((2, 2), dtype=int))

    def test_gradient_matches_numeric(self, rng):
        logits_value = rng.normal(size=(2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        logits = Tensor(logits_value.copy(), requires_grad=True)
        cross_entropy(logits, targets).backward()
        numeric = numeric_gradient(
            lambda v: cross_entropy(Tensor(v), targets).item(), logits_value.copy()
        )
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-5)


class TestNumpyHelpers:
    def test_log_softmax_normalizes(self, rng):
        logits = rng.normal(size=(3, 7))
        log_probs = log_softmax(logits)
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), np.ones(3))

    def test_softmax_matches_exp_log_softmax(self, rng):
        logits = rng.normal(size=(3, 7))
        np.testing.assert_allclose(softmax(logits), np.exp(log_softmax(logits)))

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax_in_place_is_bitwise_the_allocating_call(self, rng, axis):
        """Masked (-1e9) cells and a fully masked row included: same passes, same order."""
        logits = rng.normal(size=(4, 9, 33)) * 6.0
        logits[:, 2:, 20:] = -1e9
        logits[1, 1] = -1e9
        expected = softmax(logits, axis=axis)
        separate = np.full_like(logits, np.nan)
        assert softmax(logits, axis=axis, out=separate) is separate
        np.testing.assert_array_equal(separate, expected)
        assert softmax(logits, axis=axis, out=logits) is logits
        np.testing.assert_array_equal(logits, expected)
        assert (expected[:, 2:, 20:] == 0.0).all()
        if axis == -1:
            assert (expected[1, 1] == 1.0 / 33).all()

    def test_relu_and_gelu_limits(self):
        x = np.array([-100.0, 0.0, 100.0])
        np.testing.assert_allclose(relu(x), [0.0, 0.0, 100.0])
        gelu_values = gelu(x)
        assert gelu_values[0] == pytest.approx(0.0, abs=1e-6)
        assert gelu_values[2] == pytest.approx(100.0, rel=1e-6)
