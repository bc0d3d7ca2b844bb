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

Every site runs the kernels of :mod:`repro.core.kernels`, which mirror the
accelerator's Index-Buffer dataflow — packed per-chunk calibration tables,
group-contiguous or fused integer matmuls, analytic overflow bounds.  Which
kernel serves a call follows from the input alone: the fused implicit
matmul, the ordered per-chunk kernels for explicit requantization or a chunk
over the accumulator bound, stacked attention with its scanning fallback.
Each is bit-identical to the literal equations of
:class:`~repro.core.reference.ReferenceExecutor`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.calibration import TenderSiteParams, calibrate_tender
from repro.core.config import TenderConfig
from repro.core.decomposition import compute_channel_bias
from repro.core.kernels import (
    ForwardPlan,
    PackedSiteParams,
    RowChunks,
    fused_implicit_matmul,
    ordered_explicit_matmul,
    ordered_implicit_matmul,
    stacked_explicit_matmul,
    stacked_implicit_bound,
    stacked_implicit_matmul,
)
from repro.core.requantization import _ACC_MAX, _ACC_MIN, IMPLICIT_OVERFLOW_MESSAGE
from repro.errors import CalibrationError, QuantizationError, ShapeError
from repro.models.inference import TransformerRunner
from repro.models.weights import ModelWeights
from repro.quant.granularity import Granularity, compute_scale, integer_range
from repro.quant.quantize import quantize_symmetric

#: Packed tables that must agree for sites to share one quantize + one matmul.
_SHARED_TABLES = ("bias", "channel_scales", "alpha_weights", "final_scales", "implicit_bounds")


class _Site:
    """What ``project`` knows of one site, or of a tuple of sites over one activation.

    Built by the first ``project`` of ``names``.  ``packed`` holds the
    tables the rows are quantized by: the site's own, for a tuple only when
    the record is fused (its sites' tables are then identical).  ``fused``
    says the one fused implicit matmul serves every call: implicit
    requantization and ``implicit_fits``
    (:class:`~repro.core.kernels.PackedSiteParams`) — decided here, never
    per call.  The weight side is filled by the first ``project``: the
    sites' column ``bounds`` in the (stacked) weight, the per-column
    quantized weight as integer-valued float64, the column scale, the
    per-chunk ``bias @ W`` table (one row per calibrated chunk, columns side
    by side) and the ordered kernels' Index-Buffer-permuted weights by chunk
    (``permuted``, filled as chunks are met).  An unfused tuple keeps only
    its per-site column blocks (``weights``): each site loads its own record.
    """

    __slots__ = (
        "names", "count", "packed", "fused", "bounds", "weights",
        "weight64", "weight_scale", "bias_projection", "permuted",
    )  # fmt: skip

    def __init__(self, names: Tuple[str, ...], packed: Optional[PackedSiteParams], fused: bool) -> None:
        self.names = names
        #: Sites served per call: ``stats`` advance by this much.
        self.count = len(names)
        self.packed = packed
        self.fused = fused
        self.bounds: Optional[List[Tuple[int, int]]] = None
        self.weights: Optional[List[np.ndarray]] = None
        self.weight64: Optional[np.ndarray] = None
        self.weight_scale: Optional[np.ndarray] = None
        self.bias_projection: Optional[np.ndarray] = None
        self.permuted: Dict[int, np.ndarray] = {}


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
    ) -> None:
        self.site_params = site_params
        self.config = config or TenderConfig()
        #: Whether to use implicit (shift-accumulate) or explicit requantization.
        self.implicit = implicit
        #: One :class:`_Site` record per site name, or tuple of site names.
        self._sites: Dict[object, _Site] = {}
        #: Simple counters useful for tests and the GPU latency model.
        self.stats = {"projections": 0, "attention_matmuls": 0, "rescales": 0}

    # ------------------------------------------------------------------
    # Site records
    # ------------------------------------------------------------------
    def _site(self, name) -> _Site:
        """The record of site (or tuple of sites) ``name``, built on first use.

        A tuple's packed tables are compared here, once, by array equality.
        """
        site = self._sites.get(name)
        if site is not None:
            return site
        names = name if isinstance(name, tuple) else (name,)
        for site_name in names:
            if site_name not in self.site_params:
                raise CalibrationError(f"no Tender calibration for matmul site {site_name!r}")
        first, *others = [self.site_params[site_name].packed() for site_name in names]
        fused = self.implicit and first.implicit_fits and all(
            other.qmax == first.qmax
            and all(np.array_equal(getattr(first, table), getattr(other, table)) for table in _SHARED_TABLES)
            for other in others
        )
        site = self._sites[name] = _Site(names, first if fused or not others else None, fused)
        return site

    def _load_weights(self, site: _Site, weight: np.ndarray) -> None:
        """The weight side of ``site``: column blocks split, quantized and concatenated once.

        Per-column symmetric weight quantization and the per-chunk ``bias @ W``
        compensation (added back after the integer matmul), each site's
        derived from exactly the array a single-site call would have been
        handed (a contiguous copy of its column block).  An unfused tuple
        keeps the blocks: its sites load their own records.
        """
        names = site.names
        width, remainder = divmod(weight.shape[1], site.count)
        if remainder:
            raise ShapeError(
                f"a stacked weight of {weight.shape[1]} columns does not split into "
                f"{site.count} equal site blocks"
            )
        site.bounds = [(i * width, (i + 1) * width) for i in range(site.count)]
        weights = [weight] if site.count == 1 else [np.ascontiguousarray(weight[:, a:b]) for a, b in site.bounds]
        if site.count > 1 and not site.fused:
            site.weights = weights
            return
        scales = [compute_scale(w, self.config.bits, Granularity.PER_COLUMN) for w in weights]
        site.weight64 = np.concatenate(
            [quantize_symmetric(w, scale, self.config.bits) for w, scale in zip(weights, scales)], axis=1
        ).astype(np.float64)
        site.weight_scale = np.concatenate(scales, axis=-1)
        site.bias_projection = np.concatenate(
            [np.stack([chunk.bias @ w for chunk in self.site_params[n].chunks]) for n, w in zip(names, weights)],
            axis=1,
        )

    # ------------------------------------------------------------------
    # Projection path (activation x weight)
    # ------------------------------------------------------------------
    def project(self, name, x, weight, bias, positions=None):
        """Decomposed-quantized ``x @ weight + bias``.

        Everything that does not depend on the rows lives in the site's one
        record (:class:`_Site`), built on the first call.  The rows are
        quantized against their chunks' packed tables (:meth:`_quantize_rows`).
        When the record is fused — implicit requantization, every calibrated
        chunk within the 32-bit bound, so no call re-checks it — they are
        weighted by ``alpha^(G-1-g_c)`` and go through one
        :func:`~repro.core.kernels.fused_implicit_matmul` against the
        record's integer weight and column scale; explicit requantization
        and a site with any chunk over the bound take the ordered per-chunk
        kernels (:meth:`_project_ordered`).  Then the ``bias @ W``
        compensation and the layer bias.  ``x`` must be ``(rows, channels)``
        with ``channels == weight.shape[0]``; anything else is a
        :class:`~repro.errors.ShapeError` before any ``stats`` move.

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
        equal-width column blocks side by side.  When the sites' calibration
        tables are identical the record is fused like a single site's: ``x``
        is quantized once and multiplied by the column-concatenation of the
        sites' weights.  Integer partial sums in float64 are exact and the
        rescale, the compensation and the layer bias are elementwise per
        column, so every output column is bit-identical to its own site's
        ``project``; otherwise the sites are projected one by one over the
        raw rows.  ``stats`` advance as for ``len(name)`` separate calls
        either way.
        """
        if x.ndim != 2 or x.shape[1] != weight.shape[0]:
            raise ShapeError(f"activation of shape {x.shape} does not fit a weight of shape {weight.shape}")
        site = self._sites.get(name) or self._site(name)
        if site.bounds is None:
            self._load_weights(site, weight)
        plan = ForwardPlan.over(positions, x.shape[0])
        if site.packed is None:  # an unfused tuple
            return np.concatenate(
                [
                    self.project(site_name, x, site_weight, None if bias is None else bias[a:b], plan)
                    for site_name, site_weight, (a, b) in zip(site.names, site.weights, site.bounds)
                ],
                axis=1,
            )
        packed = site.packed
        chunks = plan.row_chunks(self.config.row_chunk_size)
        chunk_idx = chunks.clipped(packed.num_chunks)
        operand = self._quantize_rows(packed, x, chunk_idx, site.fused)
        if site.fused:
            # ``final_scales`` is 1-D: NumPy's fast path for 1-D fancy indexing beats ``take`` there.
            output = fused_implicit_matmul(operand, packed.final_scales[chunk_idx], site.weight64, site.weight_scale)
        else:
            output = self._project_ordered(site, operand, chunks)
        if self.config.subtract_bias:
            output += site.bias_projection.take(chunk_idx, axis=0)
        self.stats["projections"] += site.count
        self.stats["rescales"] += site.count * (self.config.num_groups - 1) * chunks.distinct
        if bias is not None:
            output += bias
        return output

    def _quantize_rows(self, packed: PackedSiteParams, x, chunk_idx, alpha_weighted: bool) -> np.ndarray:
        """Bias-subtract and quantize ``x`` against each row's packed tables.

        Each row's table rows are gathered by ``chunk_idx`` — the software
        Index Buffer loading a row's calibration once — with
        ``table.take(chunk_idx, axis=0)``: the same copy as
        ``table[chunk_idx]``, bit for bit, at under half of 2-D fancy
        indexing's fixed cost per gather (NumPy 2.4), which a forward of a
        few rows pays dozens of times.  Returns integer-valued float64 (exact —
        see the dtype note in kernels.py), so every downstream multiply runs
        on BLAS; with ``alpha_weighted`` each channel is then multiplied by
        its ``alpha^(G-1-g_c)``, the operand of the fused implicit matmul.
        Rounding, clipping and the weighting run in place on the division's
        own buffer; ``rint`` and ``maximum``/``minimum`` are what
        ``np.round``/``np.clip`` dispatch to.
        """
        shifted = x - packed.bias.take(chunk_idx, axis=0) if self.config.subtract_bias else x
        quantized = shifted / packed.channel_scales.take(chunk_idx, axis=0)
        np.rint(quantized, out=quantized)
        np.maximum(quantized, -packed.qmax, out=quantized)
        np.minimum(quantized, packed.qmax, out=quantized)
        if alpha_weighted:
            quantized *= packed.alpha_weights.take(chunk_idx, axis=0)
        return quantized

    def _project_ordered(self, site: _Site, quantized: np.ndarray, chunks: RowChunks):
        """Quantized rows through the ordered kernels, one row chunk at a time.

        The explicit path's per-group FP accumulate is inherently ordered,
        and so is the implicit path once a chunk's analytic bound says the
        accumulator could overflow (the kernel then scans as it goes).  Each
        chunk's weight is permuted into its Index-Buffer order once and kept
        on the record: the hardware streams the weight already sorted, so
        every group is a contiguous row slice.
        """
        packed = site.packed
        result = np.empty((quantized.shape[0], site.weight64.shape[1]), dtype=np.float64)
        for chunk_index, row_indices in chunks.groups(packed.num_chunks):
            ordered = quantized[np.ix_(row_indices, packed.channel_order[chunk_index])]
            ordered_weight = site.permuted.get(chunk_index)
            if ordered_weight is None:
                ordered_weight = site.permuted[chunk_index] = site.weight64[packed.channel_order[chunk_index]]
            if self.implicit:
                result[row_indices] = ordered_implicit_matmul(
                    ordered,
                    ordered_weight,
                    packed.group_sizes[chunk_index],
                    packed.final_scales[chunk_index],
                    site.weight_scale,
                    packed.alpha,
                    scan_overflow=bool(packed.implicit_bounds[chunk_index] > _ACC_MAX),
                )
            else:
                result[row_indices] = ordered_explicit_matmul(
                    ordered,
                    ordered_weight,
                    packed.group_sizes[chunk_index],
                    packed.group_scales[chunk_index],
                    site.weight_scale,
                    scan_groups=packed.explicit_bounds[chunk_index] > _ACC_MAX,
                )
        return result

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

    def _quantize_attention_operands(self, a, b):
        """Stacked dynamic Tender quantization of both attention operands.

        The preamble of the stacked kernels: per-(batch, head) bias
        subtraction, power-of-alpha channel classification (the same rule as
        ``repro.core.decomposition.decompose_channels``, vectorized over
        heads), activation quantization, and per-column quantization of the
        right operand.  Returns ``(quantized, group_index, group_scales,
        right_q, right_scale, bias)``; every operation is elementwise, so
        the values are bit-identical to the oracle's per-head loop.

        ``quantized`` and ``right_q`` are integer-valued float64 (exact
        integers — see the dtype note in :mod:`repro.core.kernels`): the
        stacked kernels consume them directly on BLAS, and the scanning
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

    def attention_matmul(self, name, a, b):
        """Tender-quantized ``a @ b`` over stacked heads (a plain product without ``quantize_attention``).

        Quantizes every head at once, then multiplies without masked
        full-width products: the implicit path fuses all groups into one
        alpha-weighted integer matmul (falling back to the scanning
        :meth:`_implicit_grouped_matmul` only when the analytic bound says
        the 32-bit accumulator could overflow), and the explicit path
        multiplies per-head group-contiguous segments.
        """
        if not self.config.quantize_attention:
            return a @ b
        self.stats["attention_matmuls"] += 1
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
                # 32-bit range: run the scanning kernel, which raises
                # exactly when the hardware would saturate.
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
                raise QuantizationError(IMPLICIT_OVERFLOW_MESSAGE)
        final_scale = group_scales[..., -1][..., None, None]
        return accumulator.astype(np.float64) * final_scale * right_scale


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
    ) -> None:
        self.config = config or TenderConfig()
        self.implicit = implicit
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
        return TenderExecutor(self.site_params, self.config, implicit=self.implicit)

    def quantize(
        self, weights: ModelWeights, samples: List[np.ndarray], classify: bool = False
    ) -> TransformerRunner:
        """Calibrate and return a :class:`TransformerRunner` using Tender."""
        self.calibrate(weights, samples, classify=classify)
        return TransformerRunner(weights, self.build_executor())
