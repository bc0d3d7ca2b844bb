"""Plain-NumPy weight containers for inference-time models.

Training happens on the autograd modules in :mod:`repro.nn`; all quantization
experiments run on an inference path that operates on plain NumPy arrays.
The containers here hold those arrays in the orientation used by the paper
(activations on the left: ``Y = X @ W``, with ``W`` of shape (in, out)) and
know how to extract themselves from a trained module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.nn.transformer import TransformerClassifier, TransformerConfig, TransformerLM


@dataclass
class LayerNormWeights:
    """Gain and bias of one LayerNorm."""

    gain: np.ndarray
    bias: np.ndarray


@dataclass
class AttentionWeights:
    """Projection matrices of one attention layer (W_Q, W_K, W_V, W_O)."""

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray


@dataclass
class FeedForwardWeights:
    """The two fully-connected layers of the feed-forward network."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class BlockWeights:
    """All weights of one Transformer block."""

    ln_attn: LayerNormWeights
    attn: AttentionWeights
    ln_ffn: LayerNormWeights
    ffn: FeedForwardWeights


@dataclass
class ModelWeights:
    """All weights of a Transformer model in inference layout."""

    config: TransformerConfig
    token_embedding: np.ndarray
    position_embedding: np.ndarray
    blocks: List[BlockWeights]
    ln_final: LayerNormWeights
    lm_head: Optional[np.ndarray] = None
    classifier_weight: Optional[np.ndarray] = None
    classifier_bias: Optional[np.ndarray] = None
    #: Channels where outliers were injected (empty when none); recorded so
    #: experiments can visualise them (Figures 2 and 3).
    outlier_channels: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    def copy(self) -> "ModelWeights":
        """Deep copy, so outlier injection or scheme-side edits never alias."""
        return ModelWeights(
            config=self.config,
            token_embedding=self.token_embedding.copy(),
            position_embedding=self.position_embedding.copy(),
            blocks=[
                BlockWeights(
                    ln_attn=LayerNormWeights(b.ln_attn.gain.copy(), b.ln_attn.bias.copy()),
                    attn=AttentionWeights(
                        b.attn.wq.copy(), b.attn.bq.copy(),
                        b.attn.wk.copy(), b.attn.bk.copy(),
                        b.attn.wv.copy(), b.attn.bv.copy(),
                        b.attn.wo.copy(), b.attn.bo.copy(),
                    ),
                    ln_ffn=LayerNormWeights(b.ln_ffn.gain.copy(), b.ln_ffn.bias.copy()),
                    ffn=FeedForwardWeights(
                        b.ffn.w1.copy(), b.ffn.b1.copy(), b.ffn.w2.copy(), b.ffn.b2.copy()
                    ),
                )
                for b in self.blocks
            ],
            ln_final=LayerNormWeights(self.ln_final.gain.copy(), self.ln_final.bias.copy()),
            lm_head=None if self.lm_head is None else self.lm_head.copy(),
            classifier_weight=None if self.classifier_weight is None else self.classifier_weight.copy(),
            classifier_bias=None if self.classifier_bias is None else self.classifier_bias.copy(),
            outlier_channels=self.outlier_channels.copy(),
        )

    # ------------------------------------------------------------------
    # Flat (de)serialization used by the checkpoint cache
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flatten to a name -> array mapping suitable for ``np.savez``."""
        arrays: Dict[str, np.ndarray] = {
            "token_embedding": self.token_embedding,
            "position_embedding": self.position_embedding,
            "ln_final.gain": self.ln_final.gain,
            "ln_final.bias": self.ln_final.bias,
            "outlier_channels": self.outlier_channels,
        }
        if self.lm_head is not None:
            arrays["lm_head"] = self.lm_head
        if self.classifier_weight is not None:
            arrays["classifier.weight"] = self.classifier_weight
            arrays["classifier.bias"] = self.classifier_bias
        for index, block in enumerate(self.blocks):
            prefix = f"block{index}"
            arrays[f"{prefix}.ln_attn.gain"] = block.ln_attn.gain
            arrays[f"{prefix}.ln_attn.bias"] = block.ln_attn.bias
            arrays[f"{prefix}.attn.wq"] = block.attn.wq
            arrays[f"{prefix}.attn.bq"] = block.attn.bq
            arrays[f"{prefix}.attn.wk"] = block.attn.wk
            arrays[f"{prefix}.attn.bk"] = block.attn.bk
            arrays[f"{prefix}.attn.wv"] = block.attn.wv
            arrays[f"{prefix}.attn.bv"] = block.attn.bv
            arrays[f"{prefix}.attn.wo"] = block.attn.wo
            arrays[f"{prefix}.attn.bo"] = block.attn.bo
            arrays[f"{prefix}.ln_ffn.gain"] = block.ln_ffn.gain
            arrays[f"{prefix}.ln_ffn.bias"] = block.ln_ffn.bias
            arrays[f"{prefix}.ffn.w1"] = block.ffn.w1
            arrays[f"{prefix}.ffn.b1"] = block.ffn.b1
            arrays[f"{prefix}.ffn.w2"] = block.ffn.w2
            arrays[f"{prefix}.ffn.b2"] = block.ffn.b2
        return arrays

    @classmethod
    def from_arrays(cls, config: TransformerConfig, arrays: Dict[str, np.ndarray]) -> "ModelWeights":
        """Rebuild from the mapping produced by :meth:`to_arrays`."""
        blocks = []
        for index in range(config.num_layers):
            prefix = f"block{index}"
            blocks.append(
                BlockWeights(
                    ln_attn=LayerNormWeights(arrays[f"{prefix}.ln_attn.gain"], arrays[f"{prefix}.ln_attn.bias"]),
                    attn=AttentionWeights(
                        arrays[f"{prefix}.attn.wq"], arrays[f"{prefix}.attn.bq"],
                        arrays[f"{prefix}.attn.wk"], arrays[f"{prefix}.attn.bk"],
                        arrays[f"{prefix}.attn.wv"], arrays[f"{prefix}.attn.bv"],
                        arrays[f"{prefix}.attn.wo"], arrays[f"{prefix}.attn.bo"],
                    ),
                    ln_ffn=LayerNormWeights(arrays[f"{prefix}.ln_ffn.gain"], arrays[f"{prefix}.ln_ffn.bias"]),
                    ffn=FeedForwardWeights(
                        arrays[f"{prefix}.ffn.w1"], arrays[f"{prefix}.ffn.b1"],
                        arrays[f"{prefix}.ffn.w2"], arrays[f"{prefix}.ffn.b2"],
                    ),
                )
            )
        return cls(
            config=config,
            token_embedding=arrays["token_embedding"],
            position_embedding=arrays["position_embedding"],
            blocks=blocks,
            ln_final=LayerNormWeights(arrays["ln_final.gain"], arrays["ln_final.bias"]),
            lm_head=arrays.get("lm_head"),
            classifier_weight=arrays.get("classifier.weight"),
            classifier_bias=arrays.get("classifier.bias"),
            outlier_channels=arrays.get("outlier_channels", np.array([], dtype=np.int64)),
        )


def random_weights(
    config: TransformerConfig,
    seed: int = 7,
    scale: float = 0.25,
    position_scale: Optional[float] = None,
    head_scale: Optional[float] = None,
    position_period: Optional[int] = None,
) -> ModelWeights:
    """Untrained ``N(0, scale)`` weights, zero biases, identity norms: the model of tests and gates.

    With ``position_period`` the position embedding repeats its first rows
    with that period; at a ``position_scale`` that dominates ``scale`` the
    greedy next token is a function of ``position mod period``, so generation
    cycles at once: repetition-heavy traffic that cannot drift.
    """
    rng = np.random.default_rng(seed)
    d_model, d_ff = config.d_model, config.d_ff

    def dense(*shape, scale=scale):
        return rng.normal(scale=scale, size=shape)

    def norm():
        return LayerNormWeights(gain=np.ones(d_model), bias=np.zeros(d_model))

    def projection():
        return dense(d_model, d_model), np.zeros(d_model)

    blocks = [
        BlockWeights(
            norm(),
            AttentionWeights(*projection(), *projection(), *projection(), *projection()),
            norm(),
            FeedForwardWeights(dense(d_model, d_ff), np.zeros(d_ff), dense(d_ff, d_model), np.zeros(d_model)),
        )
        for _ in range(config.num_layers)
    ]
    token_embedding = dense(config.vocab_size, d_model)
    position = dense(config.max_seq_len, d_model, scale=position_scale or scale)
    if position_period:
        position = np.resize(position[:position_period], position.shape)
    head = dense(d_model, config.vocab_size, scale=head_scale or scale)
    return ModelWeights(config, token_embedding, position, blocks, norm(), head)


def extract_weights(model) -> ModelWeights:
    """Extract inference weights from a trained :class:`TransformerLM` or classifier."""
    config: TransformerConfig = model.config
    blocks = []
    for block in model.blocks:
        blocks.append(
            BlockWeights(
                ln_attn=LayerNormWeights(block.ln_attn.gain.data.copy(), block.ln_attn.bias.data.copy()),
                attn=AttentionWeights(
                    block.attn.q_proj.weight.data.copy(), block.attn.q_proj.bias.data.copy(),
                    block.attn.k_proj.weight.data.copy(), block.attn.k_proj.bias.data.copy(),
                    block.attn.v_proj.weight.data.copy(), block.attn.v_proj.bias.data.copy(),
                    block.attn.out_proj.weight.data.copy(), block.attn.out_proj.bias.data.copy(),
                ),
                ln_ffn=LayerNormWeights(block.ln_ffn.gain.data.copy(), block.ln_ffn.bias.data.copy()),
                ffn=FeedForwardWeights(
                    block.ffn.fc1.weight.data.copy(), block.ffn.fc1.bias.data.copy(),
                    block.ffn.fc2.weight.data.copy(), block.ffn.fc2.bias.data.copy(),
                ),
            )
        )
    lm_head = None
    classifier_weight = None
    classifier_bias = None
    if isinstance(model, TransformerLM):
        lm_head = model.lm_head.weight.data.copy()
    elif isinstance(model, TransformerClassifier):
        classifier_weight = model.classifier.weight.data.copy()
        classifier_bias = model.classifier.bias.data.copy()
    return ModelWeights(
        config=config,
        token_embedding=model.token_embedding.weight.data.copy(),
        position_embedding=model.position_embedding.weight.data.copy(),
        blocks=blocks,
        ln_final=LayerNormWeights(model.ln_final.gain.data.copy(), model.ln_final.bias.data.copy()),
        lm_head=lm_head,
        classifier_weight=classifier_weight,
        classifier_bias=classifier_bias,
    )
