"""Functional operations built on top of :class:`repro.tensor.Tensor`.

These helpers implement the handful of composite operations used by the
Transformer stack (embedding lookup, layer normalization, cross-entropy loss)
that are more natural to express as functions than as tensor methods.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` at integer ``indices``.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + (embedding_dim,)``.
    """
    indices = np.asarray(indices)
    if not np.issubdtype(indices.dtype, np.integer):
        raise ShapeError("embedding_lookup expects integer indices")
    out_data = weight.data[indices]
    out = Tensor(out_data, requires_grad=weight.requires_grad, parents=(weight,))

    def backward_fn(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
        weight._accumulate_grad(full)

    out._backward_fn = backward_fn if weight.requires_grad else None
    return out


def layer_norm(
    x: Tensor,
    gain: Tensor,
    bias: Tensor,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalization over the last dimension with affine parameters.

    This is the operation the paper identifies as the source of channel-wise
    outliers: large ``gain`` values in fixed channels amplify the normalized
    activations of those channels across all tokens.
    """
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = (x.data - mean) * inv_std
    out_data = normalized * gain.data + bias.data
    requires = x.requires_grad or gain.requires_grad or bias.requires_grad
    out = Tensor(out_data, requires_grad=requires, parents=(x, gain, bias))

    def backward_fn(grad: np.ndarray) -> None:
        if gain.requires_grad:
            gain._accumulate_grad((grad * normalized).reshape(-1, gain.data.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate_grad(grad.reshape(-1, bias.data.shape[-1]).sum(axis=0))
        if x.requires_grad:
            n = x.data.shape[-1]
            g = grad * gain.data
            term1 = g
            term2 = g.mean(axis=-1, keepdims=True)
            term3 = normalized * (g * normalized).mean(axis=-1, keepdims=True)
            x._accumulate_grad(inv_std * (term1 - term2 - term3))
            del n

    out._backward_fn = backward_fn if requires else None
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean token-level cross entropy between ``logits`` and integer ``targets``.

    ``logits`` has shape ``(..., vocab)`` and ``targets`` has the matching
    leading shape.  Positions equal to ``ignore_index`` do not contribute.
    """
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.data.shape[-1])
    flat_targets = targets.reshape(-1)
    if flat_logits.shape[0] != flat_targets.shape[0]:
        raise ShapeError(
            f"cross_entropy shape mismatch: logits {logits.shape} vs targets {targets.shape}"
        )
    if ignore_index is None:
        valid = np.ones_like(flat_targets, dtype=bool)
    else:
        valid = flat_targets != ignore_index
    count = max(int(valid.sum()), 1)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = log_probs[np.arange(flat_targets.shape[0]), np.where(valid, flat_targets, 0)]
    loss_value = -(picked * valid).sum() / count
    out = Tensor(loss_value, requires_grad=logits.requires_grad, parents=(logits,))

    def backward_fn(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(log_probs)
        probs[np.arange(flat_targets.shape[0]), np.where(valid, flat_targets, 0)] -= 1.0
        probs *= valid[:, None]
        probs /= count
        logits._accumulate_grad(float(grad) * probs.reshape(logits.data.shape))

    out._backward_fn = backward_fn if logits.requires_grad else None
    return out


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax on plain NumPy arrays (inference helper)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax(logits: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Numerically stable softmax on plain NumPy arrays (inference helper).

    With ``out`` (which may be ``logits`` itself) the three elementwise passes
    write there instead of allocating a result each: same operations, same
    order, same bits.
    """
    shifted = np.subtract(logits, logits.max(axis=axis, keepdims=True), out=out)
    exp = np.exp(shifted, out=out)
    return np.divide(exp, exp.sum(axis=axis, keepdims=True), out=out)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation) on plain NumPy arrays."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU activation on plain NumPy arrays."""
    return np.maximum(x, 0.0)
