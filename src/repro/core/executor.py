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


class _Site:
    """What ``project`` knows of one site, or of a tuple of sites over one activation.

    Built by the first :meth:`TenderExecutor.quantize` / ``project`` of
    ``names``.  ``packed`` is the activation side, the tables the rows are
    quantized by: the site's own with fast kernels, for a tuple only when
    the record is fused (its sites' tables are then identical).  ``fused``
    says the one fused implicit matmul serves every call: implicit fast
    kernels and ``implicit_fits`` (:class:`~repro.core.kernels.PackedSiteParams`)
    — decided here, never per call.  The weight side is filled by the first
    ``project``: the sites' column ``bounds`` in the (stacked) weight, the
    per-column quantized weight (the reference kernels' operand) and its
    integer-valued float64 copy, the column scale, the per-chunk ``bias @ W``
    table (one row per calibrated chunk, columns side by side) and the
    ordered kernels' Index-Buffer-permuted weights by chunk (``permuted``,
    filled as chunks are met).  An unfused tuple keeps only its per-site
    column blocks (``weights``): each site loads its own record.
    """

    __slots__ = (
        "names", "count", "packed", "fused", "bounds", "weights",
        "quantized", "weight64", "weight_scale", "bias_projection", "permuted",
    )  # fmt: skip

    def __init__(self, names: Tuple[str, ...], packed: Optional[PackedSiteParams], fused: bool) -> None:
        self.names = names
        #: Sites served per call: ``stats`` advance by this much.
        self.count = len(names)
        self.packed = packed
        self.fused = fused
        self.bounds: Optional[List[Tuple[int, int]]] = None
        self.weights: Optional[List[np.ndarray]] = None
        self.quantized: Optional[np.ndarray] = None
        self.weight64: Optional[np.ndarray] = None
        self.weight_scale: Optional[np.ndarray] = None
        self.bias_projection: Optional[np.ndarray] = None
        self.permuted: Dict[int, np.ndarray] = {}


class QuantizedActivation:
    """The activation side of one projection: everything that does not read the weight.

    Tender's decomposition is a property of the activation, and every weight
    column multiplies the same quantized rows (the MSA streams one tile past
    all PE columns).  :meth:`TenderExecutor.quantize` fills one of these and
    ``project`` consumes it — its own executor's, or one an executor holding
    the same calibration made (``project`` quantizes raw rows itself).

    ``x`` is the raw ``(rows, channels)`` activation (never copied; the
    reference arithmetic consumes it) and ``chunks`` the forward's
    :class:`~repro.core.kernels.RowChunks`.  ``packed`` / ``chunk_idx`` are
    the tables the rows were quantized against and each row's table row, and
    ``operand`` the quantized rows (integer-valued float64) — alpha-weighted
    when the site's record is fused, as the fused matmul takes them;
    ``packed`` is ``None`` when nothing was quantized here (reference
    kernels, or a tuple of sites that cannot share one operand: ``parts``
    then holds one activation side per site).
    """

    # No ``__init__`` (a Python frame per activation): ``quantize`` sets ``x``
    # and ``chunks`` on every instance and whichever of these it derives.
    packed = chunk_idx = operand = parts = None

    @property
    def shape(self) -> Tuple[int, ...]:
        """``(rows, channels)``, as the raw activation would report it."""
        return self.x.shape


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
        packed, fused = None, False
        if self.fast_kernels:
            first, *others = [self.site_params[site_name].packed() for site_name in names]
            fused = self.implicit and first.implicit_fits and all(
                other.qmax == first.qmax
                and all(np.array_equal(getattr(first, table), getattr(other, table)) for table in _SHARED_TABLES)
                for other in others
            )
            packed = first if fused or not others else None
        site = self._sites[name] = _Site(names, packed, fused)
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
        site.quantized = np.concatenate(
            [quantize_symmetric(w, scale, self.config.bits) for w, scale in zip(weights, scales)], axis=1
        )
        site.weight64 = site.quantized.astype(np.float64)
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
        record (:class:`_Site`), built on the first call.  When the record is
        fused — fast implicit kernels, every calibrated chunk within the
        32-bit bound, so no call re-checks it — the call runs straight
        through: quantize the rows against their chunks' tables and weight
        them by ``alpha^(G-1-g_c)`` (the *activation side*, :meth:`quantize`),
        one :func:`~repro.core.kernels.fused_implicit_matmul` against the
        record's integer weight and column scale, the ``bias @ W``
        compensation and the layer bias (the *weight side*).  Explicit
        requantization, a site with any chunk over the bound, and the
        reference kernels (``fast_kernels=False``) take :meth:`_project_unfused`.
        ``x`` is the raw ``(rows, channels)`` activation, or the
        :class:`QuantizedActivation` an executor holding the same calibration
        already made of it (``positions`` is then not read).

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
        ``project``; otherwise the sites are projected one by one.  ``stats``
        advance as for ``len(name)`` separate calls either way.
        """
        site = self._sites.get(name) or self._site(name)
        if site.bounds is None:
            self._load_weights(site, weight)
        if not site.fused:
            activation = x if isinstance(x, QuantizedActivation) else self.quantize(name, x, positions)
            return self._project_unfused(site, activation, bias)
        packed = site.packed
        if isinstance(x, QuantizedActivation):
            chunks, chunk_idx, operand = x.chunks, x.chunk_idx, x.operand
        else:  # quantize()'s fused branch, inline: no activation object, one frame less per call
            chunks = self._plan(x, positions).row_chunks(self.config.row_chunk_size)
            chunk_idx = chunks.clipped(packed.num_chunks)
            operand = self._quantize_rows(packed, x, chunk_idx, True)
        # ``final_scales`` is 1-D: NumPy's fast path for 1-D fancy indexing beats ``take`` there.
        output = fused_implicit_matmul(operand, packed.final_scales[chunk_idx], site.weight64, site.weight_scale)
        if self.config.subtract_bias:
            output += site.bias_projection.take(chunk_idx, axis=0)
        self.stats["projections"] += site.count
        self.stats["rescales"] += site.count * (self.config.num_groups - 1) * chunks.distinct
        if bias is not None:
            output += bias
        return output

    @staticmethod
    def _plan(x, positions) -> ForwardPlan:
        """The forward's plan over ``x``'s rows: ``positions`` itself, or one built from it."""
        rows = x.shape[0]
        if not isinstance(positions, ForwardPlan):
            positions = ForwardPlan(np.arange(rows, dtype=np.int64) if positions is None else positions)
        if positions.positions.shape[0] != rows:
            raise CalibrationError(f"positions has {positions.positions.shape[0]} entries for {rows} activation rows")
        return positions

    def quantize(self, name, x, positions=None) -> QuantizedActivation:
        """The activation side of :meth:`project`, for site(s) ``name`` over ``x``.

        With ``fast_kernels`` (the default) every row's calibration metadata
        is gathered from the packed tables by ``positions // chunk_size`` in
        one shot and the whole batch is quantized at once — alpha-weighted
        when the site's record is fused, for the fused matmul, else as the
        ordered per-chunk kernels take it.  A tuple of sites shares one
        operand when its record is fused, and otherwise carries one
        activation side per site.  The reference arithmetic
        (``fast_kernels=False``) takes the raw activation untouched.  Nothing
        here reads a weight, so the result serves every executor built on
        the same ``site_params``, configuration and kernel choice.
        """
        site = self._site(name)
        plan = self._plan(x, positions)
        activation = QuantizedActivation()
        activation.x = x
        activation.chunks = chunks = plan.row_chunks(self.config.row_chunk_size)
        packed = site.packed
        if packed is not None:
            activation.packed, activation.chunk_idx = packed, chunks.clipped(packed.num_chunks)
            activation.operand = self._quantize_rows(packed, x, activation.chunk_idx, site.fused)
        elif site.count > 1:
            activation.parts = [self.quantize(site_name, x, plan) for site_name in site.names]
        return activation

    def _project_unfused(self, site: _Site, activation: QuantizedActivation, bias):
        """The weight side of a record the fused matmul does not serve.

        A tuple projects its sites one by one over their own activation
        sides.  A quantized activation is grouped by chunk (the plan's single
        argsort pass) and each chunk runs the group-contiguous ordered kernel
        against its Index-Buffer-permuted weight; a raw one (reference
        kernels) runs the per-chunk loop of gathered-group matmuls.
        """
        if activation.parts is not None:
            return np.concatenate(
                [
                    self.project(name, part, site_weight, None if bias is None else bias[a:b])
                    for name, part, site_weight, (a, b) in zip(
                        site.names, activation.parts, site.weights, site.bounds
                    )
                ],
                axis=1,
            )
        self.stats["projections"] += 1
        chunks = activation.chunks
        if site.packed is None:
            output = self._project_reference(site, activation.x, chunks.row_chunk)
        else:
            output = self._project_ordered(site, activation)
            if self.config.subtract_bias:
                output += site.bias_projection.take(activation.chunk_idx, axis=0)
        self.stats["rescales"] += (self.config.num_groups - 1) * chunks.distinct
        if bias is not None:
            output += bias
        return output

    def _project_reference(self, site: _Site, x, row_chunk):
        """Reference projection: per-chunk loop of gathered-group matmuls."""
        (name,) = site.names
        params, compensations = self.site_params[name], site.bias_projection
        output = np.empty((x.shape[0], site.quantized.shape[1]), dtype=np.float64)
        for chunk_index, row_indices in chunk_row_groups(row_chunk):
            chunk_params = params.chunk(chunk_index)
            chunk_x = x[row_indices]
            if self.config.subtract_bias:
                chunk_x = chunk_x - chunk_params.bias
            quantized, _ = quantize_decomposed(chunk_x, chunk_params.decomposition)
            result = requantized_matmul(
                quantized,
                chunk_params.decomposition,
                site.quantized,
                site.weight_scale,
                implicit=self.implicit,
            )
            if self.config.subtract_bias:
                result = result + compensations[min(chunk_index, len(compensations) - 1)]
            output[row_indices] = result
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

    def _project_ordered(self, site: _Site, activation: QuantizedActivation):
        """Quantized rows through the ordered kernels, one row chunk at a time.

        The explicit path's per-group FP accumulate is inherently ordered,
        and so is the implicit path once a chunk's analytic bound says the
        accumulator could overflow (the kernel then scans as it goes).  Each
        chunk's weight is permuted into its Index-Buffer order once and kept
        on the record: the hardware streams the weight already sorted, so
        every group is a contiguous row slice.
        """
        packed, quantized = activation.packed, activation.operand
        result = np.empty((quantized.shape[0], site.weight64.shape[1]), dtype=np.float64)
        for chunk_index, row_indices in activation.chunks.groups(packed.num_chunks):
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
