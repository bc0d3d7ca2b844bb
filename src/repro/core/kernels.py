"""Index-Buffer-ordered fast kernels for the Tender hot path.

The accelerator never multiplies a masked full-width tile: its Index Buffer
streams channels into the systolic array *sorted by scale group* (Section
IV-B), so each group occupies a contiguous slice of the channel stream and
the only per-group work is the one-cycle rescale bubble between groups.
This module is the software mirror of that dataflow:

* :func:`pack_site_params` turns a site's per-chunk calibration data
  (:class:`~repro.core.calibration.ChunkParams`) into dense arrays indexed
  by ``positions // chunk_size`` — the software Index Buffer.  Biases,
  per-channel scales, channel permutations, group boundaries, and analytic
  overflow bounds are all precomputed once.
* :func:`fused_implicit_matmul` collapses implicit (Equation 2)
  requantization into a *single* integer matmul: scaling channel ``c`` by
  ``alpha^(G-1-g_c)`` up front is exactly the accumulator rescaling the
  per-PE shifter performs, so the fused product equals the reference
  accumulator bit for bit — with no Python loop over row chunks *or*
  groups.
* :func:`ordered_implicit_matmul` / :func:`ordered_explicit_matmul` multiply
  contiguous per-group column slices of operands permuted once by
  ``ChannelDecomposition.channel_order`` (no masks, no full-width
  products) — the static projection kernels.
* :func:`stacked_implicit_matmul` / :func:`stacked_explicit_matmul` serve
  the dynamic per-head attention path, where every (batch, head) pair
  carries its own channel-to-group map: the implicit kernel fuses all
  groups into one product (strictly better than contiguity), while the
  explicit kernel keeps the group-masked structure on BLAS because the
  ragged per-head boundaries make gather-based contiguity a measured net
  loss (see its docstring).
* :func:`paged_attention` is the serving-side expression of the same
  principle: instead of fancy-indexing paged KV blocks into a dense copy
  before attention (a materialised operand reorder), it multiplies
  zero-copy strided views of consecutive-block runs straight out of
  :class:`~repro.serve.PagedKVCache` storage and assembles the scores the
  dense path would have produced, bit for bit.
* :class:`ForwardPlan` is the Index Buffer's "load once, reuse across the
  array" applied to a whole forward: what depends only on the token
  positions — the row-chunk grouping every projection site looks its
  tables up by, the KV scatter targets, the attention run segments and
  visibility mask — is derived once per forward and handed to every site
  and every layer instead of being re-derived by each.

Every kernel is bit-identical to the literal equations of
:mod:`repro.core.requantization` and
:class:`~repro.core.reference.ReferenceExecutor`: integer partial
sums are exact regardless of evaluation order, and the floating-point
rescale/accumulate sequence is kept operation-for-operation the same.  The
per-group ``accumulator.max()`` scans of the reference are replaced by
analytic bounds (``qmax^2`` times the alpha-weighted reduction length,
computed at pack time); a scan only runs when the bound shows the 32-bit
accumulator could actually overflow, and callers fall back to a scanning
kernel when it can.

A note on dtypes: the kernels here carry integer-valued operands in
*float64* so the multiplies dispatch to BLAS instead of NumPy's slow
generic integer loops.  This is still exact integer arithmetic, not an
approximation: operand magnitudes are at most ``qmax * alpha^(G-1)``
(~2^14 for INT8/G=8), every accumulator state is bounded by the analytic
overflow bound (checked against 2^31) or scanned group by group, and IEEE
float64 represents every integer up to 2^53 exactly — so no product or
partial sum can ever round, regardless of BLAS's reduction order, and the
results match the reference int64 pipeline bit for bit (pinned by the
parity tests against ``ReferenceExecutor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.requantization import (
    _ACC_MAX,
    _ACC_MIN,
    EXPLICIT_OVERFLOW_MESSAGE,
    IMPLICIT_OVERFLOW_MESSAGE,
)
from repro.errors import CalibrationError, QuantizationError
from repro.quant.granularity import integer_range
from repro.tensor.ops import softmax


@dataclass(frozen=True)
class PackedSiteParams:
    """A matmul site's calibration tables as dense, chunk-indexed arrays.

    This is the software analogue of the hardware Index Buffer contents:
    everything the runtime needs to quantize and multiply a row is looked up
    by ``chunk = position // row_chunk_size`` with one gather — no Python
    loop over chunks.  All arrays share the leading ``num_chunks`` axis.

    Attributes
    ----------
    bias:
        ``(num_chunks, channels)`` per-channel midpoints to subtract.
    channel_scales:
        ``(num_chunks, channels)`` per-channel quantization scales (each
        channel's group scale, in original channel order).
    alpha_weights:
        ``(num_chunks, channels)`` integer weights ``alpha^(G-1-g_c)``: the
        total rescale each channel's contribution receives by the end of
        implicit requantization.  Multiplying quantized channels by these
        fuses Equation 2 into one integer matmul.
    channel_order:
        ``(num_chunks, channels)`` the Index Buffer order (channels sorted
        by group, stable).
    group_sizes:
        ``(num_chunks, num_groups)`` contiguous slice widths of each group
        in the ordered channel stream.
    group_scales:
        ``(num_chunks, num_groups)`` per-group scale factors.
    final_scales:
        ``(num_chunks,)`` the last (finest) group's scale — the single
        dequantization factor of the implicit path.
    implicit_bounds:
        ``(num_chunks,)`` analytic worst-case accumulator magnitude of the
        implicit path: ``qmax^2 * sum_c alpha^(G-1-g_c)``.  Bounds every
        intermediate accumulator state, so when it fits in 32 bits no
        overflow scan is needed at all.
    implicit_fits:
        Whether *every* chunk's ``implicit_bounds`` fits the 32-bit
        accumulator.  Decided once here, so a site that fits runs the fused
        implicit matmul for any rows with no per-call bound check; a site
        with one chunk over the bound runs the ordered kernels for all rows.
    explicit_bounds:
        ``(num_chunks, num_groups)`` analytic worst-case per-group partial
        product magnitude ``qmax^2 * group_size`` — the explicit kernel
        scans a group only when its bound can actually overflow.
    qmax / alpha / num_groups / num_chunks:
        Scalar metadata shared by every chunk.
    """

    bias: np.ndarray
    channel_scales: np.ndarray
    alpha_weights: np.ndarray
    channel_order: np.ndarray
    group_sizes: np.ndarray
    group_scales: np.ndarray
    final_scales: np.ndarray
    implicit_bounds: np.ndarray
    explicit_bounds: np.ndarray
    implicit_fits: bool
    qmax: int
    alpha: int
    num_groups: int
    num_chunks: int


def pack_site_params(chunks: Sequence) -> PackedSiteParams:
    """Pack a site's list of :class:`ChunkParams` into dense arrays.

    ``chunks`` must be non-empty and agree on channel count, group count,
    bit width, and alpha (guaranteed by calibration, which derives every
    chunk from one config).  All metadata is taken from the chunks' own
    decompositions — exactly the values the reference per-chunk loop uses —
    so the packed tables stay bit-faithful even if an executor is built
    with a config that disagrees with the calibration.  Called once per
    site; the executor caches the result.
    """
    if not chunks:
        raise QuantizationError("cannot pack a site with no calibrated chunks")
    reference = chunks[0].decomposition
    qmax = integer_range(reference.bits)
    alpha = reference.alpha
    num_groups = reference.num_groups
    bias = np.stack([np.asarray(chunk.bias, dtype=np.float64) for chunk in chunks])
    channel_scales = np.stack([chunk.decomposition.channel_scales() for chunk in chunks])
    group_of_channel = np.stack([chunk.decomposition.group_of_channel for chunk in chunks])
    channel_order = np.stack([chunk.decomposition.channel_order for chunk in chunks])
    group_sizes = np.stack([chunk.decomposition.group_sizes for chunk in chunks]).astype(np.int64)
    group_scales = np.stack([chunk.decomposition.group_scales for chunk in chunks])
    # Float64 so the fused matmul runs on BLAS; the powers are exact integers.
    alpha_weights = np.power(alpha, num_groups - 1 - group_of_channel).astype(np.float64)
    implicit_bounds = float(qmax) ** 2 * alpha_weights.sum(axis=1)
    explicit_bounds = float(qmax) ** 2 * group_sizes.astype(np.float64)
    return PackedSiteParams(
        bias=bias,
        channel_scales=channel_scales,
        alpha_weights=alpha_weights,
        channel_order=channel_order,
        group_sizes=group_sizes,
        group_scales=group_scales,
        final_scales=group_scales[:, -1].copy(),
        implicit_bounds=implicit_bounds,
        explicit_bounds=explicit_bounds,
        implicit_fits=bool(implicit_bounds.max() <= _ACC_MAX),
        qmax=qmax,
        alpha=alpha,
        num_groups=num_groups,
        num_chunks=len(chunks),
    )


# ----------------------------------------------------------------------
# The per-forward plan
# ----------------------------------------------------------------------
def chunk_row_groups(row_chunk: np.ndarray):
    """Yield ``(chunk_index, row_indices)`` from one stable argsort pass.

    Replaces the former O(chunks x rows) pattern of rescanning every row
    with ``np.nonzero(row_chunk == chunk)`` per chunk; the stable sort
    keeps each chunk's row indices ascending, exactly as ``nonzero``
    produced them.
    """
    order = np.argsort(row_chunk, kind="stable")
    unique_chunks, first = np.unique(row_chunk[order], return_index=True)
    boundaries = np.append(first, row_chunk.size)
    for position, chunk_index in enumerate(unique_chunks):
        yield int(chunk_index), order[boundaries[position] : boundaries[position + 1]]


class RowChunks:
    """The row-chunk grouping of one forward's rows, for one chunk size.

    Every Tender projection of a forward looks its calibration tables up by
    ``position // row_chunk_size``; the positions are the same at every site
    and every layer, so the division, the per-table clipping, the
    distinct-chunk count behind ``stats["rescales"]`` and the per-chunk row
    groups of the ordered kernels are derived here once.
    """

    __slots__ = ("chunk_size", "row_chunk", "distinct", "_clipped", "_groups")

    def __init__(self, flat_positions: np.ndarray, chunk_size: int) -> None:
        self.chunk_size = chunk_size
        #: Calibrated chunk of every row, unclipped (the reference path's key).
        self.row_chunk = flat_positions // chunk_size
        #: Distinct chunks touched: one rescale sequence each (a set: a forward has few rows).
        self.distinct = len(set(self.row_chunk.tolist()))
        self._clipped: dict = {}
        self._groups: dict = {}

    def clipped(self, num_chunks: int) -> np.ndarray:
        """Packed-table row of every activation row (past the calibrated range: the last)."""
        chunk_idx = self._clipped.get(num_chunks)
        if chunk_idx is None:
            chunk_idx = self._clipped[num_chunks] = np.minimum(self.row_chunk, num_chunks - 1)
        return chunk_idx

    def groups(self, num_chunks: int) -> List[Tuple[int, np.ndarray]]:
        """``(table row, ascending activation rows)`` pairs: the ordered kernels' work list."""
        groups = self._groups.get(num_chunks)
        if groups is None:
            groups = self._groups[num_chunks] = list(chunk_row_groups(self.clipped(num_chunks)))
        return groups


def _row_layout(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sequence of every flat row, (batch + 1,) row offsets)`` for per-sequence ``lengths``."""
    bounds = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    lengths.cumsum(out=bounds[1:])
    return np.arange(lengths.shape[0]).repeat(lengths), bounds


class ForwardPlan:
    """What one runner forward derives from its token rows, held once.

    A forward's rows are *flat*: the concatenation of each sequence's new
    tokens, sequence after sequence, with no padding — ``positions[r]`` is
    row ``r``'s absolute token position and ``lengths[b]`` the number of
    consecutive rows sequence ``b`` contributes.  Tender looks quantization
    tables up by position and requantizes by exact shifts, so a row's result
    does not depend on which rows share its forward: a decode step (one row
    per sequence), a prefill chunk, a rectangular verify and a ragged verify
    are all this one shape.  Without ``lengths`` a ``(batch, new_len)``
    positions array is a rectangle (``new_len`` rows per sequence) and a 1-D
    array is one row per sequence.

    ``TransformerRunner`` builds one plan at the top of ``prefill`` /
    ``decode_step`` / ``verify`` (and the full-sequence backbone) and hands
    it on wherever it used to hand the positions array: to
    ``TenderExecutor.project``, ``PagedKVCache.write`` and
    :func:`paged_attention`.  Each of those accepts a plain positions array
    as well and wraps it with :meth:`of`, so a planned and an unplanned call
    run the same code; the plan only makes the second and later consumers of
    a forward find the work done.  Each part is filled by the layer that
    owns the knowledge, on first use:

    * :meth:`row_chunks` — the executor's row-chunk grouping (and the one
      place negative positions are rejected for it);
    * :attr:`scatter` — the paged pool's validated, forked and de-indexed
      ``(physical block, offset)`` write targets, set by the first layer's
      ``PagedKVCache.write`` and dropped when the pool's topology moves;
    * :meth:`attention_layout` — the run segments and visibility mask of
      :func:`paged_attention`, rebuilt when the run table is.

    A plan describes one forward: build a new one when the positions change.
    """

    __slots__ = (
        "positions", "lengths", "batch", "negative", "attended", "parent_rows",
        "_layout", "_row_chunks", "scatter", "_attention", "parts",
    )  # fmt: skip

    def __init__(self, positions, lengths=None) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        if lengths is None:
            batch = positions.shape[0] if positions.ndim else 1
            lengths = np.empty(batch, dtype=np.int64)
            lengths.fill(positions.size // batch if batch else 0)
        #: Rows each sequence owns, ``(batch,)``; they are consecutive.
        self.lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        #: Sequences in the forward.
        self.batch = self.lengths.shape[0]
        #: Token position of every flat row.
        self.positions = positions.reshape(-1)
        self.negative = bool(self.positions.size) and bool(np.minimum.reduce(self.positions) < 0)
        #: Cache slots a query of this forward can see: the highest position + 1.
        self.attended = int(np.maximum.reduce(self.positions, initial=-1)) + 1
        #: On a sub-plan (:meth:`select`): its rows' flat indices in the plan it was cut from.
        self.parent_rows: Optional[np.ndarray] = None
        self._layout: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._row_chunks: Optional[RowChunks] = None
        #: ``(block index, table version, targets, offsets)`` — owned by ``PagedKVCache.write``.
        self.scatter: Optional[tuple] = None
        self._attention: Optional[tuple] = None
        #: Set by :meth:`split`: ``(flat rows, sequences, sub-plan)`` per part.
        self.parts: Optional[List[tuple]] = None

    @classmethod
    def of(cls, positions) -> "ForwardPlan":
        """``positions`` itself when it already is a plan, else a plan over it."""
        return positions if isinstance(positions, cls) else cls(positions)

    @classmethod
    def over(cls, positions, rows: int) -> "ForwardPlan":
        """:meth:`of` over ``rows`` activation rows (``None``: positions ``0 .. rows - 1``), checking the count."""
        if not isinstance(positions, cls):
            positions = cls(np.arange(rows, dtype=np.int64) if positions is None else positions)
        if positions.positions.shape[0] != rows:
            raise CalibrationError(f"positions has {positions.positions.shape[0]} entries for {rows} activation rows")
        return positions

    @classmethod
    def ragged(cls, starts: np.ndarray, lengths: np.ndarray) -> "ForwardPlan":
        """Sequence ``b`` contributes rows at ``starts[b] .. starts[b] + lengths[b] - 1``."""
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        rows, bounds = _row_layout(lengths)
        plan = cls(np.asarray(starts)[rows] + np.arange(bounds[-1]) - bounds[rows], lengths)
        plan._layout = (rows, bounds)
        return plan

    def select(self, rows: np.ndarray) -> "ForwardPlan":
        """The sub-plan over flat rows ``rows`` (ascending): what a forward narrows to.

        Same sequences, each owning its kept rows (maybe none).  A row's
        position — so its calibration chunk, causal window and run segments —
        is its own and the score buffer keeps this plan's width: no bit of a
        kept row depends on the rows that left.
        """
        kept = ForwardPlan(self.positions[rows], np.bincount(self.rows[rows], minlength=self.batch))
        kept.parent_rows, kept.attended = rows, self.attended
        return kept

    def split(self, apart: np.ndarray) -> "ForwardPlan":
        """Give the sequences ``apart`` (a mask) a :func:`paged_attention` score buffer of their own; return the rest's plan.

        Each part attends as a forward of its own would, bit for bit, padded to no other part's reach.
        """
        starts = self.positions[self.bounds[:-1]]
        self.parts = [
            (group[self.rows].nonzero()[0], group.nonzero()[0], ForwardPlan.ragged(starts[group], self.lengths[group]))
            for group in (~apart, apart)
        ]
        return self.parts[0][2]

    @property
    def rows(self) -> np.ndarray:
        """The sequence (batch row of the cache view) every flat row belongs to."""
        if self._layout is None:
            self._layout = _row_layout(self.lengths)
        return self._layout[0]

    @property
    def bounds(self) -> np.ndarray:
        """``(batch + 1,)`` offsets: sequence ``b`` owns flat rows ``bounds[b]:bounds[b + 1]``."""
        if self._layout is None:
            self._layout = _row_layout(self.lengths)
        return self._layout[1]

    @property
    def reach(self) -> np.ndarray:
        """``(batch,)`` cache slots each sequence's rows can see: its highest position + 1 (0 without rows)."""
        reach = np.zeros(self.batch, dtype=np.int64)
        owners = self.lengths.nonzero()[0]
        reach[owners] = np.maximum.reduceat(self.positions, self.bounds[owners]) + 1
        return reach

    def row_chunks(self, chunk_size: int) -> RowChunks:
        """The rows grouped by calibrated chunk (one plan serves every projection site)."""
        chunks = self._row_chunks
        if chunks is None or chunks.chunk_size != chunk_size:
            if self.negative:
                raise CalibrationError(
                    f"token positions must be >= 0, got {int(self.positions.min())}"
                )
            chunks = self._row_chunks = RowChunks(self.positions, chunk_size)
        return chunks

    def attention_layout(self, runs, block_size: int) -> Tuple[list, np.ndarray]:
        """Run segments and visibility mask for :func:`paged_attention`.

        Segments are ``(lo, hi, start, stop, first, last)``: scores columns
        ``[start, stop)`` of flat query rows ``[lo, hi)`` — one sequence's
        rows — come from slots ``[first, last)`` of the pool flattened to
        ``(num_heads, num_blocks * block_size, d_head)``.  ``runs`` is the
        block index's run table — a new list after every refresh, so its
        identity is the freshness check.  The mask hides slot ``s`` from a
        query at position ``p`` when ``s > p``, so a sequence's segments stop
        at *its own* :attr:`reach`, not the forward's: every column past it
        is masked to an exactly-zero probability for all of that sequence's
        rows, and skipping it changes no bit.  A sequence with no rows has
        reach 0: no segments.
        """
        layout = self._attention
        if layout is None or layout[0] is not runs:
            bounds = self.bounds.tolist()
            segments = []
            for lo, hi, reach, row_runs in zip(bounds, bounds[1:], self.reach.tolist(), runs):
                for first_index, first_physical, count in row_runs:
                    start = first_index * block_size
                    if start >= reach:
                        break
                    stop = min(start + count * block_size, reach)
                    first = first_physical * block_size
                    segments.append((lo, hi, start, stop, first, first + stop - start))
            hidden_slots = np.arange(self.attended)[None, None, :] > self.positions[None, :, None]
            layout = self._attention = (runs, segments, hidden_slots)
        return layout[1], layout[2]


# ----------------------------------------------------------------------
# Static projection kernels (activation x weight)
# ----------------------------------------------------------------------
def fused_implicit_matmul(
    scaled: np.ndarray,
    final_scales: np.ndarray,
    quantized_weight: np.ndarray,
    weight_scale: np.ndarray,
) -> np.ndarray:
    """Implicit requantization (Equation 2) as one fused integer matmul.

    ``scaled`` is the ``(rows, channels)`` quantized activation already
    multiplied by its per-row gathered ``alpha^(G-1-g_c)`` table (both
    integer-valued float64, so the product is too), ``final_scales`` the
    per-row final group scale, ``quantized_weight`` the
    per-column-quantized weight (also integer-valued float64).  The
    alpha-weighted product equals the reference implicit accumulator exactly
    (integer arithmetic is exact, and each channel's contribution is
    rescaled ``G-1-g_c`` times in both formulations), so the result is
    bit-identical with zero Python loops — and ``scaled`` does not depend on
    the weight, so one activation serves any number of column blocks.
    Callers must have verified the analytic overflow bound first — it also
    guarantees every BLAS partial sum stays far below 2^53, where float64
    integer arithmetic is exact.  Both rescales run in place on the
    product's own buffer, in the order the allocating expression
    ``accumulator * final_scales[:, None] * weight_scale`` evaluates them.
    """
    accumulator = scaled @ quantized_weight
    accumulator *= final_scales[:, None]
    accumulator *= weight_scale
    return accumulator


def ordered_implicit_matmul(
    ordered_activation: np.ndarray,
    ordered_weight: np.ndarray,
    group_sizes: np.ndarray,
    final_scale: float,
    weight_scale: np.ndarray,
    alpha: int,
    scan_overflow: bool,
) -> np.ndarray:
    """Implicit requantization over group-contiguous column slices.

    Operands are already permuted into Index-Buffer order, so each group is
    the contiguous slice ``[start, start+size)`` — no masks, no gathers, no
    full-width products.  With ``scan_overflow`` the accumulator is checked
    after every group exactly like the reference (its states are identical
    integers), so overflow raises in precisely the same cases.
    """
    rows = ordered_activation.shape[0]
    out_features = ordered_weight.shape[1]
    accumulator = np.zeros((rows, out_features), dtype=np.float64)
    start = 0
    for group, size in enumerate(group_sizes):
        if group > 0:
            accumulator = accumulator * alpha
        if size:
            stop = start + size
            accumulator = accumulator + ordered_activation[:, start:stop] @ ordered_weight[start:stop, :]
            start = stop
        if scan_overflow and (
            accumulator.max(initial=0.0) > _ACC_MAX or accumulator.min(initial=0.0) < _ACC_MIN
        ):
            raise QuantizationError(IMPLICIT_OVERFLOW_MESSAGE)
    return accumulator * final_scale * weight_scale


def ordered_explicit_matmul(
    ordered_activation: np.ndarray,
    ordered_weight: np.ndarray,
    group_sizes: np.ndarray,
    group_scales: np.ndarray,
    weight_scale: np.ndarray,
    scan_groups: np.ndarray,
) -> np.ndarray:
    """Explicit requantization (Equation 1) over group-contiguous slices.

    Floating-point accumulation runs group by group in the reference order
    (empty groups skipped), so results match
    :func:`repro.core.requantization.explicit_requantized_matmul` bit for
    bit; ``scan_groups`` marks the groups whose pack-time analytic bound
    (``PackedSiteParams.explicit_bounds``) shows the 32-bit accumulator is
    actually reachable — only those partial products are scanned.
    """
    rows = ordered_activation.shape[0]
    out_features = ordered_weight.shape[1]
    result = np.zeros((rows, out_features), dtype=np.float64)
    start = 0
    for group, size in enumerate(group_sizes):
        if not size:
            continue
        stop = start + size
        partial = ordered_activation[:, start:stop] @ ordered_weight[start:stop, :]
        start = stop
        if scan_groups[group] and (
            partial.max(initial=0.0) > _ACC_MAX or partial.min(initial=0.0) < _ACC_MIN
        ):
            raise QuantizationError(EXPLICIT_OVERFLOW_MESSAGE)
        result += partial * group_scales[group] * weight_scale
    return result


# ----------------------------------------------------------------------
# Stacked per-head attention kernels (activation x activation)
# ----------------------------------------------------------------------
def stacked_implicit_bound(group_index: np.ndarray, alpha: int, num_groups: int, qmax: int) -> float:
    """Worst-case implicit accumulator magnitude across all stacked heads.

    ``qmax^2 * sum_c alpha^(G-1-g_c)`` bounds every intermediate accumulator
    state of the reference group loop as well as the fused product, because
    a channel's rescale weight only grows as later groups are processed.
    """
    weights = np.power(float(alpha), (num_groups - 1 - group_index).astype(np.float64))
    return float(qmax) ** 2 * float(weights.sum(axis=-1).max(initial=0.0))


def stacked_implicit_matmul(
    quantized: np.ndarray,
    group_index: np.ndarray,
    group_scales: np.ndarray,
    right_q: np.ndarray,
    right_scale: np.ndarray,
    alpha: int,
    num_groups: int,
) -> np.ndarray:
    """Fused implicit requantization over stacked (batch, head) pairs.

    One alpha-weighted integer matmul per call replaces ``G`` masked
    full-width products and ``G`` accumulator scans; the caller must have
    checked :func:`stacked_implicit_bound` (falling back to the scanning
    reference otherwise), which also guarantees the fused product cannot
    overflow — and keeps every float64 partial sum exact (below 2^53).
    ``quantized`` and ``right_q`` are integer-valued float64.
    """
    weights = np.power(alpha, num_groups - 1 - group_index).astype(np.float64)
    accumulator = (quantized * weights[..., None, :]) @ right_q
    final_scale = group_scales[..., -1][..., None, None]
    return accumulator * final_scale * right_scale


def stacked_explicit_matmul(
    quantized: np.ndarray,
    group_index: np.ndarray,
    group_scales: np.ndarray,
    right_q: np.ndarray,
    right_scale: np.ndarray,
    num_groups: int,
    qmax: int,
) -> np.ndarray:
    """Explicit requantization (Equation 1) over stacked heads on BLAS.

    Every (batch, head) pair has its own channel-to-group map with ragged
    per-head group boundaries, so — unlike the static projection path, whose
    permutations are precomputed per chunk — gathering each head into
    Index-Buffer order costs more than it saves here: fancy-indexing both
    operands per call is strictly slower than BLAS-dispatched zero-masked
    products at every decode and prefill shape we measured.  This kernel
    therefore keeps the reference's group-masked structure but carries the
    integer operands in float64 (exact: partial sums are bounded by
    ``qmax^2 * channels``, far below 2^53) so every product runs on dgemm,
    and replaces the reference's unconditional per-group overflow scans
    with one analytic gate.  FP accumulation order matches the reference
    exactly; ``quantized`` and ``right_q`` are integer-valued float64.
    """
    channels = quantized.shape[-1]
    scan_overflow = float(qmax) ** 2 * channels > _ACC_MAX
    lead_mn = quantized.shape[:-1] + (right_q.shape[-1],)
    result = np.zeros(lead_mn, dtype=np.float64)
    for group in range(num_groups):
        mask = group_index == group
        if not mask.any():
            continue
        partial = (quantized * mask[..., None, :]) @ right_q
        if scan_overflow and (
            partial.max(initial=0.0) > _ACC_MAX or partial.min(initial=0.0) < _ACC_MIN
        ):
            raise QuantizationError(EXPLICIT_OVERFLOW_MESSAGE)
        group_scale = group_scales[..., group][..., None, None]
        result = result + partial * group_scale * right_scale
    return result


def paged_attention(
    queries: np.ndarray,
    key_pool: np.ndarray,
    value_pool: np.ndarray,
    runs: Sequence[Sequence[Tuple[int, int, int]]],
    block_size: int,
    positions: np.ndarray,
) -> np.ndarray:
    """Blocked attention reading K/V straight from paged-pool storage.

    The serving reference path fancy-indexes every slot's blocks into a
    dense per-view K/V copy (``PagedKVCache.gather``) before two dense
    matmuls — the software equivalent of materialising a reordered operand
    the Index Buffer exists to avoid.  This kernel consumes the pool arrays
    directly: with the pool laid out heads-outermost as
    ``(num_heads, num_blocks, block_size, d_head)``, a run of ``k``
    *consecutive* physical blocks reshapes into a zero-copy
    ``(num_heads, k * block_size, d_head)`` strided view, so each run costs
    one QK^T slice and one SV product with no KV bytes moved (the key view
    is transposed once per call, and each run slices it).

    Query rows are *flat* (see :class:`ForwardPlan`): each sequence's rows
    are scored against that sequence's own block runs, so a forward mixing
    one-row decode sequences with long draft runs computes exactly its real
    rows — there are no padding queries to neutralise.

    Bit-exactness contract (pinned by ``tests/core/test_paged_attention.py``
    and the serving parity sweeps): every run's product is written straight
    into its own columns of the call's one ``(heads, rows, attended)`` score
    buffer, whose rows are the dense path's — each column is the same
    length-``d_head`` dot product, untouched columns hold the same zeros the
    dense reader's reach mask puts there
    (:func:`repro.models.inference.dense_cached_attention`) — and the scale,
    the ``-1e9`` causal mask and the shared :func:`repro.tensor.ops.softmax`
    then rewrite that buffer where it stands: the elementwise operations of
    the dense path's allocating expressions, in their order, so the attention
    probabilities match the reference bit for bit while the call holds one
    score-sized array instead of six (``tracemalloc`` peak 1.19x score
    buffer + context on a 64-row chunk, where the buffer is past the
    allocator's large-block threshold).  The SV products land in a
    heads-major ``(heads, rows, d_head)`` context: a sequence's first run
    writes its rows (``out=``), each later run adds to them, and one
    ``np.add(context.transpose(1, 0, 2), 0.0, out=...)`` hands the context
    back row-major.  That ``+ 0.0`` keeps every bit of the retired ``zeros
    += product`` form: ``0.0 + p`` is ``p`` except that it turns ``-0.0``
    into ``+0.0``, a running sum started at ``+0.0`` never becomes ``-0.0``,
    and so the only thing writing the first run directly can change — the
    sign of a zero — is what the final add normalises.  Masked columns carry
    exactly-zero probabilities (their scores underflow ``exp``), so
    skipping them — each sequence's segments stop at its own reach — is an
    exact no-op and single-run rows are bitwise identical to the dense
    product.  Whether a row *is* a single run is the allocator's doing, not
    a given: every run costs a matmul pair (``tools/time_sites.py attention``
    fits a warm decode call at ≈ 13-14 µs + 7 µs/sequence + 10 µs per further
    run + 19-21 ns/score cell on a 2-core Xeon with one BLAS thread — 8-9
    µs/sequence while each run transposed its own key view and allocated its
    SV product; about double in situ), the one-block-at-a-time LRU
    pop left 2.1-7.2 runs per sequence on the ``BENCHMARK.json`` workloads,
    and ``PagedKVCache``'s extent-aware pick — with cached blocks relocated
    out of a reservation's way under eviction pressure — brings them to
    1.0-1.6, except 3.9 on ``prefix_prefill``, where the relocation windows
    cut cached chains and most of a table is a matched prefix (table in
    ``docs/architecture.md``).  Multi-run rows can differ
    from the dense product only in the final-sum rounding of the context
    vector (~1e-15 relative); under Tender both operands of every
    *subsequent* matmul are statically requantized, which rounds that
    residue away, so Tender logits and tokens stay bit-identical (the FP
    executor's documented parity bar is tokens-identical,
    logits-to-1e-15, same as its other fast paths).

    Parameters
    ----------
    queries : ndarray
        ``(num_heads, rows, d_head)`` query heads, flat rows.
    key_pool, value_pool : ndarray
        One layer's pool storage, ``(num_heads, num_blocks, block_size,
        d_head)``.
    runs : sequence of sequence of (int, int, int)
        Per sequence, maximal consecutive physical-block runs as
        ``(first_block_index, first_physical_block, count)`` — the
        ``_BlockIndex.runs`` table.
    block_size : int
        Positions per block.
    positions : ndarray or ForwardPlan
        The forward's plan — every layer of a forward then shares one set
        of run segments and one visibility mask — or a positions array it
        is built from (``(batch, q_len)``: ``q_len`` rows per sequence).

    Returns
    -------
    ndarray
        ``(rows, num_heads, d_head)`` attention context — row-major, so the
        caller's ``reshape(rows, num_heads * d_head)`` moves nothing.
    """
    plan = ForwardPlan.of(positions)
    num_heads, rows, d_head = queries.shape
    if plan.parts is not None:  # sequences that attend apart (ForwardPlan.split)
        context = np.empty((rows, num_heads, d_head))
        for part_rows, members, part in plan.parts:
            part_runs = [runs[member] for member in members]
            context[part_rows] = paged_attention(queries[:, part_rows], key_pool, value_pool, part_runs, block_size, part)
        return context
    segments, hidden_slots = plan.attention_layout(runs, block_size)
    # Zero-copy: the pools are C-contiguous with heads outermost.  The key
    # view is transposed once; each run slices it.
    keys_t = key_pool.reshape(num_heads, -1, d_head).transpose(0, 2, 1)
    flat_values = value_pool.reshape(num_heads, -1, d_head)
    # The call's one score-sized array: products, scale, mask and softmax all write it.
    scores = np.zeros((num_heads, rows, plan.attended), dtype=np.float64)
    for lo, hi, start, stop, first, last in segments:
        np.matmul(queries[:, lo:hi], keys_t[:, :, first:last], out=scores[:, lo:hi, start:stop])
    scores /= np.sqrt(d_head)
    np.copyto(scores, -1e9, where=hidden_slots)
    attention = softmax(scores, axis=-1, out=scores)
    context = np.zeros((num_heads, rows, d_head), dtype=np.float64)
    sequence_lo = -1
    for lo, hi, start, stop, first, last in segments:
        weights, values = attention[:, lo:hi, start:stop], flat_values[:, first:last]
        if lo != sequence_lo:  # a sequence's first run writes its rows, later runs add to them
            np.matmul(weights, values, out=context[:, lo:hi])
            sequence_lo = lo
        else:
            context[:, lo:hi] += weights @ values
    return np.add(context.transpose(1, 0, 2), 0.0, out=np.empty((rows, num_heads, d_head)))
