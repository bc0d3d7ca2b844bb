"""The literal Tender equations as an executor: the oracle of :mod:`repro.core.executor`.

:class:`ReferenceExecutor` serves :class:`~repro.core.executor.TenderExecutor`'s
interface with none of its machinery (no packed tables, fused or ordered
kernels, analytic bounds or caches): a projection is a per-row-chunk loop of
:func:`~repro.core.decomposition.quantize_decomposed` and
:func:`~repro.core.requantization.requantized_matmul` (Figure 4, Equations 1
and 2), an activation-activation product one dynamic decomposition per
(batch, head) (Section III-A).  ``TenderExecutor`` must reproduce every
output bit, ``stats`` count and error of it; the parity tests,
``tools/check_perf_smoke.py`` and ``benchmarks/bench_executor_kernels.py``
compare the two.  Nothing serves with it.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.calibration import TenderSiteParams
from repro.core.config import TenderConfig
from repro.core.decomposition import compute_channel_bias, decompose_channels, quantize_decomposed
from repro.core.kernels import ForwardPlan, chunk_row_groups
from repro.core.requantization import requantized_matmul
from repro.errors import CalibrationError, ShapeError
from repro.quant.granularity import Granularity, compute_scale
from repro.quant.quantize import quantize_symmetric


class ReferenceExecutor:
    """Tender's decomposed quantization, one equation at a time (the parity oracle)."""

    #: Calibration is per row chunk, looked up by token position.
    uses_positions = True

    def __init__(
        self, site_params: Dict[str, TenderSiteParams], config: Optional[TenderConfig] = None, implicit: bool = True
    ) -> None:
        self.site_params = site_params
        self.config = config or TenderConfig()
        self.implicit = implicit
        self.stats = {"projections": 0, "attention_matmuls": 0, "rescales": 0}

    @property
    def plain_attention(self):
        """True unless ``quantize_attention``: the runner may then fuse paged attention."""
        return not self.config.quantize_attention

    def project(self, name, x, weight, bias, positions=None):
        """``x @ weight + bias``, every row chunk quantized and requantized by the equations.

        ``name`` may be a tuple of sites whose equal-width column blocks sit
        side by side in ``weight`` and ``bias``; each block is projected alone.
        """
        if x.ndim != 2 or x.shape[1] != weight.shape[0]:
            raise ShapeError(f"activation of shape {x.shape} does not fit a weight of shape {weight.shape}")
        names = name if isinstance(name, tuple) else (name,)
        for site_name in names:
            if site_name not in self.site_params:
                raise CalibrationError(f"no Tender calibration for matmul site {site_name!r}")
        if weight.shape[1] % len(names):
            raise ShapeError(
                f"a stacked weight of {weight.shape[1]} columns does not split into {len(names)} equal site blocks"
            )
        chunks = ForwardPlan.over(positions, x.shape[0]).row_chunks(self.config.row_chunk_size)
        blocks = [weight] if len(names) == 1 else [np.ascontiguousarray(w) for w in np.split(weight, len(names), axis=1)]
        output = np.concatenate(
            [self._project_site(self.site_params[n], x, w, chunks.row_chunk) for n, w in zip(names, blocks)], axis=1
        )
        self.stats["projections"] += len(names)
        self.stats["rescales"] += len(names) * (self.config.num_groups - 1) * chunks.distinct
        if bias is not None:
            output += bias
        return output

    def _project_site(self, params: TenderSiteParams, x, weight, row_chunk) -> np.ndarray:
        """One site: each chunk's rows bias-shifted, decomposed-quantized, requantized, compensated."""
        bits, subtract_bias = self.config.bits, self.config.subtract_bias
        weight_scale = compute_scale(weight, bits, Granularity.PER_COLUMN)
        quantized_weight = quantize_symmetric(weight, weight_scale, bits)
        output = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
        for chunk_index, rows in chunk_row_groups(row_chunk):
            chunk = params.chunk(chunk_index)
            chunk_x = x[rows] - chunk.bias if subtract_bias else x[rows]
            quantized, _ = quantize_decomposed(chunk_x, chunk.decomposition)
            result = requantized_matmul(
                quantized, chunk.decomposition, quantized_weight, weight_scale, implicit=self.implicit
            )
            output[rows] = result + chunk.bias @ weight if subtract_bias else result
        return output

    def attention_matmul(self, name, a, b):
        """``a @ b``; with ``quantize_attention``, one dynamic Tender matmul per (batch, head)."""
        if not self.config.quantize_attention:
            return a @ b
        self.stats["attention_matmuls"] += 1
        output = np.empty(a.shape[:-1] + (b.shape[-1],), dtype=np.float64)
        for head in np.ndindex(a.shape[:-2]):
            output[head] = self._dynamic_tender_matmul(a[head], b[head])
        return output

    def _dynamic_tender_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """One head's product: ``left`` decomposed over its columns at runtime, ``right`` quantized per column."""
        config = self.config
        channel_max = left.max(axis=0)
        channel_min = left.min(axis=0)
        if config.subtract_bias:
            bias = compute_channel_bias(channel_max, channel_min)
            shifted = left - bias
            absmax = (channel_max - channel_min) / 2.0
        else:
            bias = None
            shifted = left
            absmax = np.maximum(np.abs(channel_max), np.abs(channel_min))
        decomposition = decompose_channels(absmax, num_groups=config.num_groups, bits=config.bits, alpha=config.alpha)
        quantized, _ = quantize_decomposed(shifted, decomposition)
        right_scale = compute_scale(right, config.bits, Granularity.PER_COLUMN)
        right_q = quantize_symmetric(right, right_scale, config.bits)
        result = requantized_matmul(quantized, decomposition, right_q, right_scale, implicit=self.implicit)
        if bias is not None:
            result = result + bias @ right
        self.stats["rescales"] += decomposition.num_groups - 1
        return result
