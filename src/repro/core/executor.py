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


class _StackedSite:
    """Cached state of one tuple of sites projected together.

    ``packed`` is the activation side: the tables every site quantizes by
    when they are identical — what lets one quantized activation serve all
    of them — else ``None``.  The rest is the weight side, filled by the
    first ``project``: ``bounds`` are the sites' column ranges in the
    stacked weight and bias; with shared tables the column concatenations
    after it stand in for the per-site float64 weights, which are then never
    cached; otherwise ``weights`` keeps the per-site column blocks the
    site-by-site path is handed on every call.
    """

    __slots__ = ("packed", "bounds", "weights", "weight64", "weight_scale", "bias_projection")

    def __init__(self, packed: Optional[PackedSiteParams]) -> None:
        self.packed = packed
        self.bounds: Optional[List[Tuple[int, int]]] = None
        self.weights: Optional[List[np.ndarray]] = None
        self.weight64: Optional[np.ndarray] = None
        self.weight_scale: Optional[np.ndarray] = None
        self.bias_projection: Optional[np.ndarray] = None

    def site_weights(self, weight: np.ndarray) -> List[np.ndarray]:
        """Per-site column blocks of ``weight`` as contiguous arrays.

        Contiguous copies, so each site's caches are derived from exactly
        the array a single-site call would have been handed.
        """
        return self.weights or [np.ascontiguousarray(weight[:, a:b]) for a, b in self.bounds]


class QuantizedActivation:
    """The activation side of one projection: everything that does not read the weight.

    Tender's decomposition is a property of the activation, and every weight
    column multiplies the same quantized rows (the MSA streams one tile past
    all PE columns).  :meth:`TenderExecutor.quantize` fills one of these per
    site per forward and ``project`` consumes it — its own, or one an
    executor holding the same calibration made.

    ``x`` is the raw ``(rows, channels)`` activation (never copied; the
    reference arithmetic consumes it) and ``chunks`` the forward's
    :class:`~repro.core.kernels.RowChunks`.  ``packed`` / ``chunk_idx`` are
    the tables the rows were quantized against and each row's table row, and
    ``operand`` the quantized rows (integer-valued float64); ``packed`` is
    ``None`` when nothing was quantized here.  ``final_scales`` is set when
    the overflow bound lets one fused implicit matmul serve the rows:
    ``operand`` is then already alpha-weighted, else it goes to the ordered
    per-chunk kernels as it is.  ``stacked`` says the activation serves a
    tuple of sites, and ``parts`` then holds one activation side per site
    when they cannot share one fused operand.
    """

    # No ``__init__`` (a Python frame per projection): ``quantize`` sets ``x``
    # and ``chunks`` on every instance and whichever of these it derives.
    packed = chunk_idx = operand = final_scales = parts = None
    stacked = False

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

        Two halves: the *activation side* (:meth:`quantize`) and the *weight
        side* — the integer matmul against this executor's cached quantized
        ``weight``, the column scale, the ``bias @ W`` compensation, the
        layer bias, ``stats``.  ``x`` is the raw ``(rows, channels)``
        activation, quantized here, or the :class:`QuantizedActivation` an
        executor holding the same calibration already made of it
        (``positions`` is then not read); both run the same code from there.

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
        """
        activation = x if isinstance(x, QuantizedActivation) else self.quantize(name, x, positions)
        if activation.stacked:
            return self._project_stacked(name, activation, weight, bias)
        return self._project_site(name, activation, weight, bias)

    def quantize(self, name, x, positions=None) -> QuantizedActivation:
        """The activation side of :meth:`project`, for site(s) ``name`` over ``x``.

        With ``fast_kernels`` (the default) every row's calibration metadata
        is gathered from the packed tables by ``positions // chunk_size`` in
        one shot and the whole batch is quantized at once.  When the
        analytic overflow bound fits the 32-bit accumulator (the common
        case) the implicit path needs only the alpha-weighted rows and the
        per-row final scale: one fused matmul per weight then produces the
        final accumulator.  Otherwise, and for explicit requantization, the
        quantized rows go to the ordered per-chunk kernels as they are.  A
        tuple of sites shares one fused operand, or carries one activation
        side per site (see :meth:`_project_stacked`).  The reference
        arithmetic (``fast_kernels=False``) takes the raw activation
        untouched.  Nothing here reads a weight, so the result serves every
        executor built on the same ``site_params``, configuration and
        kernel choice.
        """
        rows = x.shape[0]
        plan = ForwardPlan.of(np.arange(rows, dtype=np.int64) if positions is None else positions)
        chunks = plan.row_chunks(self.config.row_chunk_size)
        if chunks.row_chunk.shape[0] != rows:
            raise CalibrationError(
                f"positions has {chunks.row_chunk.shape[0]} entries for {rows} activation rows"
            )
        activation = QuantizedActivation()
        activation.x, activation.chunks = x, chunks
        if name in self.site_params:
            packed = self.site_params[name].packed() if self.fast_kernels else None
        elif isinstance(name, tuple):
            activation.stacked = True
            packed = (self._stacked_cache.get(name) or self._stacked_site(name)).packed
        else:
            raise CalibrationError(f"no Tender calibration for matmul site {name!r}")
        if packed is not None:
            chunk_idx = chunks.clipped(packed.num_chunks)
            fused = self.implicit and packed.implicit_bounds[chunk_idx].max(initial=0.0) <= _ACC_MAX
            if fused or not activation.stacked:
                operand = self._quantize_rows(packed, x, chunk_idx)
                if fused:
                    operand *= packed.alpha_weights[chunk_idx]
                    activation.final_scales = packed.final_scales[chunk_idx]
                activation.packed, activation.chunk_idx, activation.operand = packed, chunk_idx, operand
                return activation
        if activation.stacked:
            activation.parts = [self.quantize(site, x, plan) for site in name]
        return activation

    def _project_site(self, name, activation: QuantizedActivation, weight, bias):
        """One site's weight side over an activation :meth:`quantize` prepared.

        A fused activation is one matmul; an unfused one is grouped by chunk
        (the plan's single argsort pass) and each chunk runs the
        group-contiguous ordered kernel against its cached
        Index-Buffer-permuted weight; a raw one (reference kernels) runs the
        per-chunk loop of gathered-group matmuls.
        """
        self.stats["projections"] += 1
        q_weight, w_scale = self._quantized_weight(name, weight)
        packed, chunks = activation.packed, activation.chunks
        if packed is None:
            output = self._project_reference(
                name, self.site_params[name], activation.x, chunks.row_chunk, q_weight, w_scale, weight
            )
        else:
            if activation.final_scales is not None:
                output = fused_implicit_matmul(
                    activation.operand, activation.final_scales, self._weight_f64(name, q_weight), w_scale
                )
            else:
                output = self._project_ordered(name, activation, q_weight, w_scale)
            if self.config.subtract_bias:
                output = output + self._bias_projection_stack(name, weight)[activation.chunk_idx]
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

    def _project_ordered(self, name, activation: QuantizedActivation, q_weight, w_scale):
        """Quantized rows through the ordered kernels, one row chunk at a time.

        The explicit path's per-group FP accumulate is inherently ordered,
        and so is the implicit path once the analytic bound says the
        accumulator could overflow (the kernel then scans as it goes).
        """
        packed, quantized = activation.packed, activation.operand
        result = np.empty((quantized.shape[0], q_weight.shape[1]), dtype=np.float64)
        for chunk_index, row_indices in activation.chunks.groups(packed.num_chunks):
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
        return result

    # ------------------------------------------------------------------
    # Stacked projection (several sites over one activation)
    # ------------------------------------------------------------------
    def _stacked_site(self, names: Tuple[str, ...]) -> _StackedSite:
        """The per-``names`` stack, tables compared once (weights join in :meth:`_stack_weights`)."""
        for name in names:
            if name not in self.site_params:
                raise CalibrationError(f"no Tender calibration for matmul site {name!r}")
        shared = None
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
                shared = first
        stack = self._stacked_cache[names] = _StackedSite(shared)
        return stack

    def _stack_weights(self, stack: _StackedSite, names: Tuple[str, ...], weight) -> None:
        """The weight side of ``stack``: column blocks split and concatenated once."""
        width, remainder = divmod(weight.shape[1], len(names))
        if remainder:
            raise ShapeError(
                f"a stacked weight of {weight.shape[1]} columns does not split into "
                f"{len(names)} equal site blocks"
            )
        stack.bounds = [(i * width, (i + 1) * width) for i in range(len(names))]
        weights = stack.site_weights(weight)
        if stack.packed is None:
            stack.weights = weights
            return
        quantized = [self._quantized_weight(n, w) for n, w in zip(names, weights)]
        stack.weight64 = np.concatenate([q for q, _ in quantized], axis=1).astype(np.float64)
        stack.weight_scale = np.concatenate([scale for _, scale in quantized], axis=-1)
        stack.bias_projection = np.concatenate(
            [self._bias_projection_stack(n, w) for n, w in zip(names, weights)], axis=1
        )

    def _project_stacked(self, names, activation: QuantizedActivation, weight, bias):
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
        executor runs explicit or reference kernels, the activation carries
        one part per site and the sites are projected one by one instead.
        ``stats`` advance as for ``len(names)`` separate calls either way.
        """
        stack = self._stacked_cache.get(names) or self._stacked_site(names)
        if stack.bounds is None:
            self._stack_weights(stack, names, weight)
        if activation.parts is None:
            self.stats["projections"] += len(names)
            self.stats["rescales"] += (
                len(names) * (self.config.num_groups - 1) * activation.chunks.distinct
            )
            result = fused_implicit_matmul(
                activation.operand, activation.final_scales, stack.weight64, stack.weight_scale
            )
            if self.config.subtract_bias:
                result = result + stack.bias_projection[activation.chunk_idx]
            if bias is not None:
                result = result + bias
            return result
        return np.concatenate(
            [
                self._project_site(name, part, site_weight, None if bias is None else bias[a:b])
                for name, part, site_weight, (a, b) in zip(
                    names, activation.parts, stack.site_weights(weight), stack.bounds
                )
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
