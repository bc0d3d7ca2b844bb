"""Model zoo: named stand-ins for the checkpoints evaluated in the paper.

The paper's evaluation covers OPT-6.7B/13B/66B, Llama-2-7B/13B/70B,
LLaMA-7B/13B (decoder-only LMs) and BERT-Large (encoder).  The zoo defines a
scaled-down stand-in for each, with three properties preserved:

* relative ordering of sizes within a family (more layers / wider models for
  the larger stand-ins),
* the activation function family (ReLU for OPT-like, GELU for Llama/BERT-like),
* the strength of channel-wise activation outliers (strongest in the OPT
  family, moderate in Llama, weak in BERT — matching the paper's observation
  that BERT-Large outliers "are much smaller").

Every entry also records the training recipe so the checkpoint cache can
(re)produce it deterministically, and the :class:`ModelShape` of the
full-scale model it stands in for — the one GEMM enumeration both cost models
(``repro.accelerator`` and ``repro.gpu``) price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, require_count
from repro.nn.transformer import TransformerConfig


@dataclass(frozen=True)
class ModelShape:
    """The dimensions of a decoder-only model: all a forward's GEMMs depend on.

    Parameters
    ----------
    d_model, d_ff, num_heads, num_layers :
        Hidden width, feed-forward width, attention heads and layer count.
    vocab : int
        Include the LM-head GEMM when > 0 (applied once, outside the layers).
    """

    d_model: int
    d_ff: int
    num_heads: int
    num_layers: int = 1
    vocab: int = 0

    def __post_init__(self) -> None:
        require_count("d_model", self.d_model, 1)
        require_count("d_ff", self.d_ff, 1)
        require_count("num_heads", self.num_heads, 1)
        require_count("num_layers", self.num_layers, 1)
        require_count("vocab", self.vocab, 0)
        if self.d_model % self.num_heads:
            raise ConfigurationError(
                f"d_model must be divisible by num_heads, got {self.d_model} and {self.num_heads}"
            )

    @property
    def d_head(self) -> int:
        """Per-head dimension."""
        return self.d_model // self.num_heads

    def gemms(self, rows: int, context: int) -> Iterator[Tuple[str, int, int, int, int]]:
        """``(site, m, k, n, count)`` of every GEMM of one forward, in execution order.

        ``rows`` token rows attend ``context`` positions: a prefill of
        ``batch`` prompts of ``seq_len`` tokens is ``rows = seq_len x batch,
        context = seq_len``; a decode step ``rows = batch``.  The six layer
        sites run ``count`` times per layer — Q/K/V three projections, the
        two attention matmuls once per head (``m`` is the per-head form the
        systolic model needs) — and every layer repeats them; ``lm_head``
        (when ``vocab > 0``) runs once, after the last layer.
        """
        rows = require_count("rows", rows, 1)
        context = require_count("context", context, 1)
        d_model, d_head, heads = self.d_model, self.d_head, self.num_heads
        yield "qkv_proj", rows, d_model, d_model, 3
        yield "attention_scores", rows, d_head, context, heads
        yield "attention_values", rows, context, d_head, heads
        yield "out_proj", rows, d_model, d_model, 1
        yield "fc1", rows, d_model, self.d_ff, 1
        yield "fc2", rows, self.d_ff, d_model, 1
        if self.vocab:
            yield "lm_head", rows, d_model, self.vocab, 1


@dataclass(frozen=True)
class ZooEntry:
    """One named model in the zoo and how to train it."""

    name: str
    paper_name: str
    family: str
    d_model: int
    num_heads: int
    num_layers: int
    d_ff: int
    vocab_size: int = 512
    max_seq_len: int = 256
    activation: str = "relu"
    causal: bool = True
    seed: int = 0
    #: Training recipe.
    train_steps: int = 200
    train_batch_size: int = 8
    train_seq_len: int = 48
    learning_rate: float = 3e-3
    #: Outlier injection parameters (see repro.models.outliers.OutlierSpec).
    outlier_scale_channels: int = 2
    outlier_scale_magnitude: float = 60.0
    outlier_shift_channels: int = 2
    outlier_shift_magnitude: float = 30.0
    outlier_spread: float = 2.0
    #: The full-scale model this entry stands in for, priced by the
    #: accelerator simulator (Figures 10, 11, 13) and the GPU model (Figure 12).
    paper_shape: ModelShape = ModelShape(4096, 16384, 32, 32)

    def outlier_spec(self) -> "OutlierSpec":
        """Outlier-injection parameters of this model as an :class:`OutlierSpec`."""
        from repro.models.outliers import OutlierSpec

        return OutlierSpec(
            num_scale_channels=self.outlier_scale_channels,
            scale_magnitude=self.outlier_scale_magnitude,
            num_shift_channels=self.outlier_shift_channels,
            shift_magnitude=self.outlier_shift_magnitude,
            spread=self.outlier_spread,
            seed=self.seed,
        )

    def to_transformer_config(self, num_classes: Optional[int] = None) -> TransformerConfig:
        return TransformerConfig(
            vocab_size=self.vocab_size,
            d_model=self.d_model,
            num_heads=self.num_heads,
            num_layers=self.num_layers,
            d_ff=self.d_ff,
            max_seq_len=self.max_seq_len,
            activation=self.activation,
            causal=self.causal,
            num_classes=num_classes,
            seed=self.seed,
            name=self.name,
        )


def _entry(**kwargs) -> ZooEntry:
    return ZooEntry(**kwargs)


#: The zoo.  Names use a ``-sim`` suffix to make the substitution explicit.
MODEL_ZOO: Dict[str, ZooEntry] = {
    entry.name: entry
    for entry in [
        _entry(
            name="opt-6.7b-sim", paper_name="OPT-6.7B", family="opt",
            d_model=64, num_heads=4, num_layers=2, d_ff=192, activation="relu", seed=11,
            outlier_scale_channels=2, outlier_scale_magnitude=80.0,
            outlier_shift_channels=2, outlier_shift_magnitude=40.0,
            paper_shape=ModelShape(4096, 16384, 32, 32),
        ),
        _entry(
            name="opt-13b-sim", paper_name="OPT-13B", family="opt",
            d_model=80, num_heads=4, num_layers=2, d_ff=240, activation="relu", seed=12,
            train_steps=220, outlier_scale_channels=3, outlier_scale_magnitude=90.0,
            outlier_shift_channels=2, outlier_shift_magnitude=45.0,
            paper_shape=ModelShape(5120, 20480, 40, 40),
        ),
        _entry(
            name="opt-66b-sim", paper_name="OPT-66B", family="opt",
            d_model=96, num_heads=4, num_layers=3, d_ff=288, activation="relu", seed=13,
            train_steps=240, outlier_scale_channels=3, outlier_scale_magnitude=100.0,
            outlier_shift_channels=3, outlier_shift_magnitude=50.0,
            paper_shape=ModelShape(9216, 36864, 72, 64),
        ),
        _entry(
            name="llama-2-7b-sim", paper_name="Llama-2-7B", family="llama2",
            d_model=64, num_heads=4, num_layers=2, d_ff=192, activation="gelu", seed=21,
            outlier_scale_channels=2, outlier_scale_magnitude=40.0,
            outlier_shift_channels=2, outlier_shift_magnitude=20.0,
            paper_shape=ModelShape(4096, 11008, 32, 32),
        ),
        _entry(
            name="llama-2-13b-sim", paper_name="Llama-2-13B", family="llama2",
            d_model=80, num_heads=4, num_layers=2, d_ff=240, activation="gelu", seed=22,
            train_steps=220, outlier_scale_channels=2, outlier_scale_magnitude=45.0,
            outlier_shift_channels=2, outlier_shift_magnitude=22.0,
            paper_shape=ModelShape(5120, 13824, 40, 40),
        ),
        _entry(
            name="llama-2-70b-sim", paper_name="Llama-2-70B", family="llama2",
            d_model=96, num_heads=4, num_layers=3, d_ff=288, activation="gelu", seed=23,
            train_steps=240, outlier_scale_channels=3, outlier_scale_magnitude=50.0,
            outlier_shift_channels=2, outlier_shift_magnitude=25.0,
            paper_shape=ModelShape(8192, 28672, 64, 80),
        ),
        _entry(
            name="llama-7b-sim", paper_name="LLaMA-7B", family="llama",
            d_model=64, num_heads=4, num_layers=2, d_ff=192, activation="gelu", seed=31,
            outlier_scale_channels=2, outlier_scale_magnitude=35.0,
            outlier_shift_channels=2, outlier_shift_magnitude=18.0,
            paper_shape=ModelShape(4096, 11008, 32, 32),
        ),
        _entry(
            name="llama-13b-sim", paper_name="LLaMA-13B", family="llama",
            d_model=80, num_heads=4, num_layers=2, d_ff=240, activation="gelu", seed=32,
            train_steps=220, outlier_scale_channels=2, outlier_scale_magnitude=40.0,
            outlier_shift_channels=2, outlier_shift_magnitude=20.0,
            paper_shape=ModelShape(5120, 13824, 40, 40),
        ),
        _entry(
            name="llama-65b-sim", paper_name="LLaMA-65B", family="llama",
            d_model=96, num_heads=4, num_layers=3, d_ff=288, activation="gelu", seed=33,
            train_steps=240, outlier_scale_channels=3, outlier_scale_magnitude=45.0,
            outlier_shift_channels=2, outlier_shift_magnitude=22.0,
            paper_shape=ModelShape(8192, 22016, 64, 80),
        ),
        _entry(
            name="bert-large-sim", paper_name="BERT-Large", family="bert",
            d_model=64, num_heads=4, num_layers=2, d_ff=192, activation="gelu",
            causal=False, seed=41, max_seq_len=64,
            outlier_scale_channels=2, outlier_scale_magnitude=6.0,
            outlier_shift_channels=1, outlier_shift_magnitude=4.0,
            paper_shape=ModelShape(1024, 4096, 16, 24),
        ),
    ]
}

#: The decoder-only language models, in the order Table II lists them.
LANGUAGE_MODEL_NAMES: List[str] = [
    "opt-6.7b-sim",
    "opt-13b-sim",
    "opt-66b-sim",
    "llama-2-7b-sim",
    "llama-2-13b-sim",
    "llama-2-70b-sim",
    "llama-7b-sim",
    "llama-13b-sim",
]


def get_zoo_entry(name: str) -> ZooEntry:
    """Look up a zoo entry by name."""
    if name not in MODEL_ZOO:
        raise ConfigurationError(f"unknown model {name!r}; expected one of {sorted(MODEL_ZOO)}")
    return MODEL_ZOO[name]
