"""Configuration of the Tender quantization algorithm."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, require_count


@dataclass(frozen=True)
class TenderConfig:
    """All knobs of Tender's decomposed quantization (Section III).

    Attributes
    ----------
    bits:
        Integer bit width for both activations and weights (8 or 4 in the
        paper; any width from 2 to 8 is supported, mirroring the paper's note
        that Tender extends to 5/6/7-bit integers).
    num_groups:
        Number of channel groups G used by the power-of-alpha classification.
    alpha:
        Ratio between the scale factors of neighbouring groups.  The paper
        uses 2 so that runtime requantization is a 1-bit shift; other integer
        values are supported through the generalized rescale path.
    row_chunk_size:
        Number of token rows that share calibration parameters (the paper uses
        256 for full-size models; the default here is scaled down with the
        models).
    quantize_attention:
        Whether activation-activation matmuls (X_Q X_K^T and X_S X_V) are also
        quantized.  Table II/III call the enabled variant "Tender (all)".
    subtract_bias:
        Whether the per-channel bias (midpoint) is subtracted before
        quantization.  Disabling it is an ablation.
    """

    bits: int = 8
    num_groups: int = 8
    alpha: int = 2
    row_chunk_size: int = 64
    quantize_attention: bool = False
    subtract_bias: bool = True

    def __post_init__(self) -> None:
        for name, minimum in (("bits", 2), ("num_groups", 1), ("alpha", 2), ("row_chunk_size", 1)):
            object.__setattr__(self, name, require_count(name, getattr(self, name), minimum))
        if self.bits > 8:
            raise ConfigurationError(f"bits must be in [2, 8], got {self.bits}")
