"""The Tender matmul executor: decomposed quantization at every matmul site.

This is the software realisation of Figure 4's computation flow:

1. subtract the calibrated per-channel bias,
2. quantize each channel with its group's scale factor (static, calibrated
   decomposition; groups are powers of ``alpha`` apart),
3. multiply with the per-column-quantized weight using either implicit
   (shift-accumulate, Equation 2) or explicit (per-group FP accumulate,
   Equation 1) requantization,
4. add back the bias contribution ``bias @ W`` and the layer bias.

Activation-activation matmuls (``X_Q X_K^T`` and ``X_S X_V``) are quantized
only when the configuration enables them ("Tender (all)" in Tables II/III and
all BERT results in Table IV); they use dynamic per-head decomposition since
their operands are produced at runtime.

Two implementations back every matmul site.  The *reference* paths follow the
equations literally (per-chunk and per-head Python loops, per-group gathered
products, full-array accumulator overflow scans); the *fast* paths
(:mod:`repro.core.kernels`, on by default via ``fast_kernels=True``) mirror
the accelerator's Index-Buffer dataflow — packed per-chunk calibration
tables, group-contiguous or fused integer matmuls, analytic overflow bounds —
and are bit-identical to the reference, which stays selectable for
regression tests and benchmarking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.calibration import TenderSiteParams, calibrate_tender
from repro.core.config import TenderConfig
from repro.core.decomposition import (
    ChannelDecomposition,
    compute_channel_bias,
    decompose_channels,
    quantize_decomposed,
)
from repro.core.kernels import (
    ForwardPlan,
    PackedSiteParams,
    RowChunks,
    chunk_row_groups,
    fused_implicit_matmul,
    ordered_explicit_matmul,
    ordered_implicit_matmul,
    stacked_explicit_matmul,
    stacked_implicit_bound,
    stacked_implicit_matmul,
)
from repro.core.requantization import requantized_matmul
from repro.errors import CalibrationError, QuantizationError, ShapeError
from repro.models.inference import TransformerRunner
from repro.models.weights import ModelWeights
from repro.quant.granularity import Granularity, compute_scale, integer_range
from repro.quant.quantize import quantize_symmetric

#: Hardware accumulator range (Section IV-B), shared with the requantization kernels.
_ACC_MAX = 2**31 - 1
_ACC_MIN = -(2**31)
#: Packed tables that must agree for sites to share one quantize + one matmul.
_SHARED_TABLES = ("bias", "channel_scales", "alpha_weights", "final_scales", "implicit_bounds")


class _StackedSite:
    """Cached operands of one tuple of sites projected together.

    ``bounds`` are the sites' column ranges in the stacked weight and bias.
    ``packed`` and the column concatenations after it are set only when the
    sites' packed tables are identical — what lets one quantized activation
    serve all of them; they stand in for the per-site float64 weights, which
    are then never cached.  Otherwise ``weights`` keeps the per-site column
    blocks the site-by-site path is handed on every call.
    """

    __slots__ = ("bounds", "weights", "packed", "weight64", "weight_scale", "bias_projection")

    def __init__(self, bounds: List[Tuple[int, int]]) -> None:
        self.bounds = bounds
        self.weights: Optional[List[np.ndarray]] = None
        self.packed: Optional[PackedSiteParams] = None
        self.weight64: Optional[np.ndarray] = None
        self.weight_scale: Optional[np.ndarray] = None
        self.bias_projection: Optional[np.ndarray] = None

    def site_weights(self, weight: np.ndarray) -> List[np.ndarray]:
        """Per-site column blocks of ``weight`` as contiguous arrays.

        Contiguous copies, so each site's caches are derived from exactly
        the array a single-site call would have been handed.
        """
        return self.weights or [np.ascontiguousarray(weight[:, a:b]) for a, b in self.bounds]


class TenderExecutor:
    """Matmul executor implementing Tender's decomposed quantization."""

    #: The inference engine passes per-row token positions when this is set,
    #: so the row-chunk lookup stays consistent between full-sequence forwards
    #: and the incremental (KV-cached) decode path.
    uses_positions = True
    #: ``project`` accepts a tuple of site names over one activation (a
    #: block's Q/K/V) and serves them from one quantize + one matmul.
    stacks_sites = True

    def __init__(
        self,
        site_params: Dict[str, TenderSiteParams],
        config: Optional[TenderConfig] = None,
        implicit: bool = True,
        fast_kernels: bool = True,
    ) -> None:
        self.site_params = site_params
        self.config = config or TenderConfig()
        #: Whether to use implicit (shift-accumulate) or explicit requantization.
        self.implicit = implicit
        #: Whether the Index-Buffer-ordered fast kernels (repro.core.kernels)
        #: serve the hot path.  They are bit-identical to the reference
        #: implementations (pinned by tests/core/test_fast_kernels.py), which
        #: stay selectable for regression testing and benchmarking.
        self.fast_kernels = fast_kernels
        self._weight_cache: Dict[str, tuple] = {}
        self._weight64_cache: Dict[str, np.ndarray] = {}
        self._permuted_weight_cache: Dict[tuple, np.ndarray] = {}
        self._bias_projection_cache: Dict[str, List[np.ndarray]] = {}
        self._bias_projection_stack_cache: Dict[str, np.ndarray] = {}
        self._stacked_cache: Dict[Tuple[str, ...], _StackedSite] = {}
        #: Simple counters useful for tests and the GPU latency model.
        self.stats = {"projections": 0, "attention_matmuls": 0, "rescales": 0}

    # ------------------------------------------------------------------
    # Weight handling
    # ------------------------------------------------------------------
    def _quantized_weight(self, name: str, weight: np.ndarray):
        """Per-column symmetric weight quantization, cached per site."""
        if name not in self._weight_cache:
            scale = compute_scale(weight, self.config.bits, Granularity.PER_COLUMN)
            values = quantize_symmetric(weight, scale, self.config.bits)
            self._weight_cache[name] = (values, scale)
        return self._weight_cache[name]

    def _bias_projection(self, name: str, weight: np.ndarray) -> List[np.ndarray]:
        """Pre-computed ``bias @ W`` per chunk (added back after the int matmul)."""
        if name not in self._bias_projection_cache:
            params = self.site_params[name]
            self._bias_projection_cache[name] = [chunk.bias @ weight for chunk in params.chunks]
        return self._bias_projection_cache[name]

    def _bias_projection_stack(self, name: str, weight: np.ndarray) -> np.ndarray:
        """The per-chunk ``bias @ W`` compensations as one (chunks, out) table.

        Stacks the exact per-chunk products of :meth:`_bias_projection` (same
        1-D BLAS calls, hence bit-identical values) so the fast path can
        gather each row's compensation by chunk index.
        """
        if name not in self._bias_projection_stack_cache:
            self._bias_projection_stack_cache[name] = np.stack(self._bias_projection(name, weight))
        return self._bias_projection_stack_cache[name]

    def _weight_f64(self, name: str, quantized_weight: np.ndarray) -> np.ndarray:
        """The quantized weight as integer-valued float64, cached per site.

        The fast kernels carry exact integers in float64 so their matmuls
        dispatch to BLAS (see the dtype note in :mod:`repro.core.kernels`).
        """
        cached = self._weight64_cache.get(name)
        if cached is None:
            cached = self._weight64_cache[name] = quantized_weight.astype(np.float64)
        return cached

    def _permuted_weight(self, name: str, chunk_index: int, quantized_weight, packed) -> np.ndarray:
        """Weight rows in a chunk's Index-Buffer order, cached per (site, chunk).

        The reference path re-gathers ``G`` row subsets of the weight on
        every call; the hardware instead streams the weight through the
        systolic array already sorted by the Index Buffer.  Caching the
        permuted weight makes every group a contiguous row slice.
        """
        key = (name, chunk_index)
        cached = self._permuted_weight_cache.get(key)
        if cached is None:
            order = packed.channel_order[chunk_index]
            cached = self._permuted_weight_cache[key] = self._weight_f64(name, quantized_weight)[order]
        return cached

    # ------------------------------------------------------------------
    # Projection path (activation x weight)
    # ------------------------------------------------------------------
    def project(self, name, x, weight, bias, positions=None):
        """Decomposed-quantized ``x @ weight + bias``.

        ``positions`` (optional) gives the token position of each row of ``x``
        — as an array, or as the forward's :class:`~repro.core.kernels.ForwardPlan`
        over them; row-chunk calibration parameters are then looked up by
        position rather than by flat row index.  Full-sequence forwards of a
        single sequence are unaffected (row index == position); the
        incremental decode path relies on this so a token's quantization
        parameters do not depend on how its request was batched.  With a
        plan, the row-chunk grouping is the one the forward's first
        projection derived: no division, clipping or ``np.unique`` here.

        ``name`` may be a tuple of site names that consume this same
        activation (a block's Q/K/V), with ``weight`` / ``bias`` their
        equal-width column blocks side by side: ``x`` is then quantized once
        and multiplied by the stacked weight in one matmul whenever the
        sites' calibration tables are identical (see :meth:`_project_stacked`),
        and the result is the per-site outputs side by side, bit for bit.

        With ``fast_kernels`` (the default) the packed Index-Buffer path
        serves the call — one gather of the per-chunk calibration tables
        indexed by ``positions // chunk_size``, one vectorized quantize, and
        a fused or group-contiguous integer matmul; the reference per-chunk
        loop is kept selectable and both produce bit-identical outputs.
        """
        rows = x.shape[0]
        plan = ForwardPlan.of(np.arange(rows, dtype=np.int64) if positions is None else positions)
        chunks = plan.row_chunks(self.config.row_chunk_size)
        if chunks.row_chunk.shape[0] != rows:
            raise CalibrationError(
                f"positions has {chunks.row_chunk.shape[0]} entries for {rows} activation rows"
            )
        if isinstance(name, tuple):
            return self._project_stacked(name, x, weight, bias, chunks)
        return self._project_site(name, x, weight, bias, chunks)

    def _project_site(self, name, x, weight, bias, chunks: RowChunks):
        """One site's projection over rows already grouped by ``chunks``."""
        if name not in self.site_params:
            raise CalibrationError(f"no Tender calibration for matmul site {name!r}")
        self.stats["projections"] += 1
        params = self.site_params[name]
        q_weight, w_scale = self._quantized_weight(name, weight)
        if self.fast_kernels:
            output = self._project_fast(name, params, x, chunks, q_weight, w_scale, weight)
        else:
            output = self._project_reference(
                name, params, x, chunks.row_chunk, q_weight, w_scale, weight
            )
        self.stats["rescales"] += (self.config.num_groups - 1) * chunks.distinct
        if bias is not None:
            output = output + bias
        return output

    def _project_reference(self, name, params, x, row_chunk, q_weight, w_scale, weight):
        """Reference projection: per-chunk loop of gathered-group matmuls."""
        bias_projections = self._bias_projection(name, weight)
        output = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
        for chunk_index, row_indices in chunk_row_groups(row_chunk):
            chunk_params = params.chunk(chunk_index)
            chunk_x = x[row_indices]
            if self.config.subtract_bias:
                chunk_x = chunk_x - chunk_params.bias
            quantized, _ = quantize_decomposed(chunk_x, chunk_params.decomposition)
            result = requantized_matmul(
                quantized,
                chunk_params.decomposition,
                q_weight,
                w_scale,
                implicit=self.implicit,
            )
            if self.config.subtract_bias:
                compensation_index = min(chunk_index, len(bias_projections) - 1)
                result = result + bias_projections[compensation_index]
            output[row_indices] = result
        return output

    def _quantize_rows(self, packed: PackedSiteParams, x, chunk_idx) -> np.ndarray:
        """Bias-subtract and quantize ``x`` against each row's packed tables.

        Returns integer-valued float64 (exact — see the dtype note in
        kernels.py), so every downstream multiply runs on BLAS.  Rounding
        and clipping run in place on the division's own buffer; ``rint`` and
        ``maximum``/``minimum`` are what ``np.round``/``np.clip`` dispatch to.
        """
        shifted = x - packed.bias[chunk_idx] if self.config.subtract_bias else x
        quantized = shifted / packed.channel_scales[chunk_idx]
        np.rint(quantized, out=quantized)
        np.maximum(quantized, -packed.qmax, out=quantized)
        np.minimum(quantized, packed.qmax, out=quantized)
        return quantized

    def _project_fast(self, name, params, x, chunks: RowChunks, q_weight, w_scale, weight):
        """Packed fast projection: gather, quantize, fused/grouped matmul.

        Every row's calibration metadata (bias, per-channel scales, rescale
        weights) is gathered from the packed tables by chunk index in one
        shot, and quantization runs over the whole batch at once.  The
        implicit path then needs no Python loop at all: when the analytic
        overflow bound fits the 32-bit accumulator (the common case), the
        alpha-weighted fused matmul produces the final accumulator directly.
        Otherwise — and for the explicit path, whose per-group FP accumulate
        is inherently ordered — rows are grouped by chunk (the plan's single
        argsort pass) and each chunk runs the group-contiguous ordered kernel
        against its cached Index-Buffer-permuted weight.
        """
        packed = params.packed()
        chunk_idx = chunks.clipped(packed.num_chunks)
        quantized = self._quantize_rows(packed, x, chunk_idx)
        if self.implicit and packed.implicit_bounds[chunk_idx].max(initial=0.0) <= _ACC_MAX:
            result = fused_implicit_matmul(
                quantized,
                packed.alpha_weights[chunk_idx],
                packed.final_scales[chunk_idx],
                self._weight_f64(name, q_weight),
                w_scale,
            )
        else:
            result = np.empty((x.shape[0], weight.shape[1]), dtype=np.float64)
            for chunk_index, row_indices in chunks.groups(packed.num_chunks):
                ordered = quantized[np.ix_(row_indices, packed.channel_order[chunk_index])]
                ordered_weight = self._permuted_weight(name, chunk_index, q_weight, packed)
                if self.implicit:
                    result[row_indices] = ordered_implicit_matmul(
                        ordered,
                        ordered_weight,
                        packed.group_sizes[chunk_index],
                        packed.final_scales[chunk_index],
                        w_scale,
                        packed.alpha,
                        scan_overflow=bool(packed.implicit_bounds[chunk_index] > _ACC_MAX),
                    )
                else:
                    result[row_indices] = ordered_explicit_matmul(
                        ordered,
                        ordered_weight,
                        packed.group_sizes[chunk_index],
                        packed.group_scales[chunk_index],
                        w_scale,
                        scan_groups=packed.explicit_bounds[chunk_index] > _ACC_MAX,
                    )
        if self.config.subtract_bias:
            result = result + self._bias_projection_stack(name, weight)[chunk_idx]
        return result

    # ------------------------------------------------------------------
    # Stacked projection (several sites over one activation)
    # ------------------------------------------------------------------
    def _stacked_site(self, names: Tuple[str, ...], weight) -> _StackedSite:
        """The per-``names`` stack: column blocks split once, tables compared once."""
        stack = self._stacked_cache.get(names)
        if stack is not None:
            return stack
        for name in names:
            if name not in self.site_params:
                raise CalibrationError(f"no Tender calibration for matmul site {name!r}")
        width, remainder = divmod(weight.shape[1], len(names))
        if remainder:
            raise ShapeError(
                f"a stacked weight of {weight.shape[1]} columns does not split into "
                f"{len(names)} equal site blocks"
            )
        stack = _StackedSite([(i * width, (i + 1) * width) for i in range(len(names))])
        weights = stack.site_weights(weight)
        if self.fast_kernels and self.implicit:
            first, *others = [self.site_params[name].packed() for name in names]
            if all(
                other.qmax == first.qmax
                and all(
                    np.array_equal(getattr(first, table), getattr(other, table))
                    for table in _SHARED_TABLES
                )
                for other in others
            ):
                quantized = [self._quantized_weight(n, w) for n, w in zip(names, weights)]
                stack.packed = first
                stack.weight64 = np.concatenate([q for q, _ in quantized], axis=1).astype(np.float64)
                stack.weight_scale = np.concatenate([scale for _, scale in quantized], axis=-1)
                stack.bias_projection = np.concatenate(
                    [self._bias_projection_stack(n, w) for n, w in zip(names, weights)], axis=1
                )
        if stack.packed is None:
            stack.weights = weights
        self._stacked_cache[names] = stack
        return stack

    def _project_stacked(self, names, x, weight, bias, chunks: RowChunks):
        """Several sites over one activation: one quantize, one fused matmul.

        A block's ``q_proj`` / ``k_proj`` / ``v_proj`` consume the same
        activation, so calibration hands them identical packed tables; that
        is verified once per ``names`` by array equality.  ``x`` is then
        bias-subtracted and quantized once and multiplied by the
        column-concatenation of the sites' integer-valued weights.  Integer
        partial sums in float64 are exact and the rescale, the ``bias @ W``
        compensation and the layer bias are elementwise per column, so every
        output column is bit-identical to its own site's :meth:`project`.
        When the tables differ, the analytic overflow bound fails, or the
        executor runs explicit or reference kernels, the sites are projected
        one by one over the shared ``chunks`` instead.  ``stats`` advance as
        for ``len(names)`` separate calls either way.
        """
        stack = self._stacked_site(names, weight)
        packed = stack.packed
        if packed is not None and self.fast_kernels and self.implicit:
            chunk_idx = chunks.clipped(packed.num_chunks)
            if packed.implicit_bounds[chunk_idx].max(initial=0.0) <= _ACC_MAX:
                self.stats["projections"] += len(names)
                self.stats["rescales"] += len(names) * (self.config.num_groups - 1) * chunks.distinct
                result = fused_implicit_matmul(
                    self._quantize_rows(packed, x, chunk_idx),
                    packed.alpha_weights[chunk_idx],
                    packed.final_scales[chunk_idx],
                    stack.weight64,
                    stack.weight_scale,
                )
                if self.config.subtract_bias:
                    result = result + stack.bias_projection[chunk_idx]
                if bias is not None:
                    result = result + bias
                return result
        return np.concatenate(
            [
                self._project_site(name, x, site_weight, None if bias is None else bias[a:b], chunks)
                for name, site_weight, (a, b) in zip(names, stack.site_weights(weight), stack.bounds)
            ],
            axis=1,
        )

    # ------------------------------------------------------------------
    # Activation-activation path (X_Q X_K^T and X_S X_V)
    # ------------------------------------------------------------------
    @property
    def plain_attention(self):
        """True when ``attention_matmul`` is a plain product (QK^T/SV left in
        floating point), so the runner may use the fused paged kernel; with
        ``quantize_attention`` the dynamic per-head statistics need the dense
        operands, so the gather path is kept."""
        return not self.config.quantize_attention

    def attention_matmul(self, name, a, b):
        if not self.config.quantize_attention:
            return a @ b
        self.stats["attention_matmuls"] += 1
        if self.fast_kernels:
            return self._attention_matmul_fast(a, b)
        return self._attention_matmul_loop(a, b)

    def _attention_matmul_loop(self, a, b):
        """Reference implementation: one dynamic Tender matmul per (batch, head)."""
        batch, heads = a.shape[0], a.shape[1]
        output = np.empty(a.shape[:-1] + (b.shape[-1],), dtype=np.float64)
        for batch_index in range(batch):
            for head_index in range(heads):
                left = a[batch_index, head_index]
                right = b[batch_index, head_index]
                output[batch_index, head_index] = self._dynamic_tender_matmul(left, right)
        return output

    def _quantize_attention_operands(self, a, b):
        """Stacked dynamic Tender quantization of both attention operands.

        The preamble of the fast Index-Buffer kernels: per-(batch, head)
        bias subtraction,
        power-of-alpha channel classification (the same rule as
        ``repro.core.decomposition.decompose_channels``, vectorized over
        heads), activation quantization, and per-column quantization of the
        right operand.  Returns ``(quantized, group_index, group_scales,
        right_q, right_scale, bias)``; every operation is elementwise, so
        the values are bit-identical to the per-head reference loop.

        ``quantized`` and ``right_q`` are integer-valued float64 (exact
        integers — see the dtype note in :mod:`repro.core.kernels`): the
        fast kernels consume them directly on BLAS, and the scanning
        overflow fallback widens them to int64 at entry.
        """
        config = self.config
        qmax = integer_range(config.bits)
        num_groups, alpha = config.num_groups, config.alpha

        channel_max = a.max(axis=-2)
        channel_min = a.min(axis=-2)
        if config.subtract_bias:
            bias = compute_channel_bias(channel_max, channel_min)
            shifted = a - bias[..., None, :]
            absmax = (channel_max - channel_min) / 2.0
        else:
            bias = None
            shifted = a
            absmax = np.maximum(np.abs(channel_max), np.abs(channel_min))

        tensor_absmax = absmax.max(axis=-1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = np.where(absmax > 0.0, tensor_absmax[..., None] / absmax, np.inf)
            group_index = np.clip(
                np.floor(np.log(ratios) / np.log(alpha)), 0, num_groups - 1
            ).astype(np.int64)
        # alpha^g * qmax stays an exact small integer in float64, so these
        # vectorized scale constructions match the former per-group Python
        # list comprehensions bit for bit.
        alpha_powers = np.power(alpha, np.arange(num_groups), dtype=np.float64)
        group_scales = np.where(
            tensor_absmax[..., None] > 0.0,
            tensor_absmax[..., None] / (alpha_powers * qmax),
            1e-12 / alpha_powers,
        )
        channel_scales = np.take_along_axis(group_scales, group_index, axis=-1)
        quantized = np.clip(np.round(shifted / channel_scales[..., None, :]), -qmax, qmax)

        # Per-column (per output feature) quantization of the right operand.
        right_scale = np.maximum(np.abs(b).max(axis=-2, keepdims=True) / qmax, 1e-12)
        right_q = np.clip(np.round(b / right_scale), -qmax, qmax)
        return quantized, group_index, group_scales, right_q, right_scale, bias

    def _attention_matmul_fast(self, a, b):
        """Index-Buffer-ordered fast attention path over stacked heads.

        Quantizes every head at once, then multiplies without masked
        full-width products: the implicit path fuses all groups into one
        alpha-weighted integer matmul (falling back to the scanning
        :meth:`_implicit_grouped_matmul` only when the analytic bound says
        the 32-bit accumulator could overflow), and the explicit path
        multiplies per-head group-contiguous segments.  Bit-identical to the
        per-head reference loop (pinned by tests/core/test_fast_kernels.py).
        """
        config = self.config
        num_groups, alpha = config.num_groups, config.alpha
        qmax = integer_range(config.bits)
        lead = a.shape[:-2]
        quantized, group_index, group_scales, right_q, right_scale, bias = (
            self._quantize_attention_operands(a, b)
        )

        if self.implicit:
            if stacked_implicit_bound(group_index, alpha, num_groups, qmax) <= _ACC_MAX:
                result = stacked_implicit_matmul(
                    quantized, group_index, group_scales, right_q, right_scale, alpha, num_groups
                )
            else:
                # The analytic bound says the accumulator could leave the
                # 32-bit range: run the scanning reference kernel, which
                # raises exactly when the hardware would saturate.
                result = self._implicit_grouped_matmul(
                    quantized, group_index, group_scales, right_q, right_scale
                )
        else:
            result = stacked_explicit_matmul(
                quantized, group_index, group_scales, right_q, right_scale, num_groups, qmax
            )

        if bias is not None:
            result = result + bias[..., None, :] @ b
        self.stats["rescales"] += int(np.prod(lead, dtype=np.int64)) * (num_groups - 1)
        return result

    def _implicit_grouped_matmul(self, quantized, group_index, group_scales, right_q, right_scale):
        """Equation 2 over stacked heads: integer accumulate, rescale by alpha."""
        quantized = quantized.astype(np.int64, copy=False)
        right_q = right_q.astype(np.int64, copy=False)
        alpha = self.config.alpha
        lead_mn = quantized.shape[:-1] + (right_q.shape[-1],)
        accumulator = np.zeros(lead_mn, dtype=np.int64)
        for group in range(self.config.num_groups):
            if group > 0:
                accumulator = accumulator * alpha
            mask = group_index == group
            if mask.any():
                accumulator = accumulator + (quantized * mask[..., None, :]) @ right_q
            if accumulator.max(initial=0) > _ACC_MAX or accumulator.min(initial=0) < _ACC_MIN:
                raise QuantizationError(
                    "implicit requantization overflowed the 32-bit accumulator; "
                    "reduce the number of groups or the reduction length"
                )
        final_scale = group_scales[..., -1][..., None, None]
        return accumulator.astype(np.float64) * final_scale * right_scale

    def _dynamic_tender_matmul(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Tender quantization of one head's activation-activation product.

        ``left`` plays the role of the decomposed activation (its columns are
        the reduction channels); ``right`` is quantized per output column like
        a weight.  Decomposition is dynamic because both operands only exist
        at runtime; the paper notes the same algorithm applies to
        activation-activation matmuls (Section III-A).
        """
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
        decomposition = decompose_channels(
            absmax, num_groups=config.num_groups, bits=config.bits, alpha=config.alpha
        )
        quantized, _ = quantize_decomposed(shifted, decomposition)
        right_scale = compute_scale(right, config.bits, Granularity.PER_COLUMN)
        right_q = quantize_symmetric(right, right_scale, config.bits)
        result = requantized_matmul(quantized, decomposition, right_q, right_scale, implicit=self.implicit)
        if bias is not None:
            result = result + bias @ right
        self.stats["rescales"] += decomposition.num_groups - 1
        return result


class TenderQuantizer:
    """High-level API: calibrate a model and return a quantized runner.

    Example
    -------
    >>> quantizer = TenderQuantizer(TenderConfig(bits=8, num_groups=8))
    >>> runner = quantizer.quantize(weights, calibration_samples)
    >>> log_probs = runner.log_probs(tokens)
    """

    def __init__(
        self,
        config: Optional[TenderConfig] = None,
        implicit: bool = True,
        fast_kernels: bool = True,
    ) -> None:
        self.config = config or TenderConfig()
        self.implicit = implicit
        self.fast_kernels = fast_kernels
        self.site_params: Optional[Dict[str, TenderSiteParams]] = None

    def calibrate(
        self, weights: ModelWeights, samples: List[np.ndarray], classify: bool = False
    ) -> Dict[str, TenderSiteParams]:
        """Compute and store calibration parameters for ``weights``."""
        self.site_params = calibrate_tender(weights, samples, self.config, classify=classify)
        return self.site_params

    def build_executor(self) -> TenderExecutor:
        """Build an executor from previously computed calibration parameters."""
        if self.site_params is None:
            raise CalibrationError("call calibrate() before build_executor()")
        return TenderExecutor(
            self.site_params, self.config, implicit=self.implicit, fast_kernels=self.fast_kernels
        )

    def quantize(
        self, weights: ModelWeights, samples: List[np.ndarray], classify: bool = False
    ) -> TransformerRunner:
        """Calibrate and return a :class:`TransformerRunner` using Tender."""
        self.calibrate(weights, samples, classify=classify)
        return TransformerRunner(weights, self.build_executor())
