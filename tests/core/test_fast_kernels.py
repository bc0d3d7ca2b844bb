"""Bit-exactness sweep: fast Index-Buffer kernels vs the reference paths.

The fast kernels (``repro.core.kernels``, default via ``fast_kernels=True``)
must match the reference implementations *exactly* (``np.array_equal``, not
allclose) across requantization modes, bias subtraction, ragged decode
positions, empty groups, and degenerate inputs — and must raise the same
``QuantizationError`` on 32-bit accumulator overflow.  These tests pin the
tentpole guarantee that making the software mirror the hardware dataflow
changes performance only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderExecutor, pack_site_params
from repro.core.calibration import _ChunkedStatistics
from repro.core.kernels import ForwardPlan
from repro.errors import CalibrationError, QuantizationError, ShapeError

CHANNELS, OUT = 48, 24


def calibrated_site(rng, config, channels=CHANNELS, chunks=5, outliers=True):
    """Site params calibrated from synthetic statistics (several row chunks)."""
    calibration = rng.normal(size=(chunks * config.row_chunk_size, channels))
    if outliers:
        calibration[:, 3] *= 50.0
        calibration[:, 11] *= 9.0
        calibration[:, 29] *= 3.0
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {"site": statistics.finalize("site", config)}


def make_pair(rng, implicit=True, **config_kwargs):
    """(fast, reference) executors sharing one calibrated site."""
    defaults = dict(bits=8, num_groups=8, row_chunk_size=16, quantize_attention=True)
    defaults.update(config_kwargs)
    config = TenderConfig(**defaults)
    params = calibrated_site(rng, config)
    fast = TenderExecutor(params, config, implicit=implicit, fast_kernels=True)
    reference = TenderExecutor(params, config, implicit=implicit, fast_kernels=False)
    return fast, reference, config


def project_split(executor, name, x, weight, bias, positions=None):
    """``project`` in its two halves: the activation side from another
    executor over the same calibration, the weight side from ``executor``."""
    donor = TenderExecutor(
        executor.site_params, executor.config, implicit=executor.implicit, fast_kernels=executor.fast_kernels
    )
    activation = donor.quantize(name, x, positions)
    assert activation.shape == x.shape
    return executor.project(name, activation, weight, bias)


class TestProjectionBitExact:
    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_full_sequence(self, rng, implicit, subtract_bias, alpha):
        fast, reference, _ = make_pair(rng, implicit, subtract_bias=subtract_bias, alpha=alpha)
        weight = rng.normal(size=(CHANNELS, OUT))
        layer_bias = rng.normal(size=OUT)
        x = rng.normal(size=(40, CHANNELS))
        x[:, 3] *= 40.0
        assert np.array_equal(
            fast.project("site", x, weight, layer_bias),
            reference.project("site", x, weight, layer_bias),
        )
        assert fast.stats == reference.stats

    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_ragged_decode_positions(self, rng, implicit, subtract_bias):
        """Batched decode rows at scattered, duplicated, and out-of-range positions."""
        fast, reference, _ = make_pair(rng, implicit, subtract_bias=subtract_bias)
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(9, CHANNELS))
        # Positions span several chunks, repeat, arrive unsorted, and reach
        # beyond the calibrated range (which must reuse the last chunk).
        positions = np.array([90, 0, 17, 31, 33, 5, 64, 200, 17])
        assert np.array_equal(
            fast.project("site", x, weight, None, positions=positions),
            reference.project("site", x, weight, None, positions=positions),
        )
        assert fast.stats == reference.stats

    @pytest.mark.parametrize("rows", [1, 3, 11, 64])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_fused_rows_across_chunks_and_past_the_last(self, rng, rows, subtract_bias):
        """The fused call gathers every row's tables by its chunk: rows spread
        over the calibrated chunks and past ``num_chunks`` (clipped to the
        last) project bit-identically to the reference loop, through a plan
        as a forward passes it, alone and stacked as Q/K/V."""
        fast, reference, config = make_pair(rng, subtract_bias=subtract_bias)
        num_chunks = fast.site_params["site"].packed().num_chunks
        positions = rng.integers(0, (num_chunks + 3) * config.row_chunk_size, size=rows)
        positions[0] = (num_chunks + 1) * config.row_chunk_size  # past the last calibrated chunk
        positions[1 : num_chunks + 1] = np.arange(num_chunks)[: rows - 1] * config.row_chunk_size
        weight, layer_bias = rng.normal(size=(CHANNELS, OUT)), rng.normal(size=OUT)
        x = rng.normal(size=(rows, CHANNELS))
        x[:, 3] *= 40.0
        expected = reference.project("site", x, weight, layer_bias, positions=positions)
        assert np.array_equal(fast.project("site", x, weight, layer_bias, positions=ForwardPlan(positions)), expected)
        assert fast._site("site").fused, "the fixture must take the fused path"
        assert fast.stats == reference.stats
        params = {name: fast.site_params["site"] for name in "qkv"}
        weights = [weight, 2 * weight, -weight]
        executor = TenderExecutor(params, config)
        stacked = executor.project(
            tuple("qkv"), x, np.concatenate(weights, axis=1), np.tile(layer_bias, 3), positions=ForwardPlan(positions)
        )
        assert executor._site(tuple("qkv")).fused
        for index, (name, site_weight) in enumerate(zip("qkv", weights)):
            alone = TenderExecutor(params, config, fast_kernels=False).project(
                name, x, site_weight, layer_bias, positions=positions
            )
            assert np.array_equal(stacked[:, index * OUT : (index + 1) * OUT], alone)

    @pytest.mark.parametrize("implicit", [True, False])
    def test_lowbit_and_few_groups(self, rng, implicit):
        fast, reference, _ = make_pair(rng, implicit, bits=4, num_groups=3)
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(20, CHANNELS))
        assert np.array_equal(
            fast.project("site", x, weight, None), reference.project("site", x, weight, None)
        )

    def test_single_group_degenerates_to_plain_int_matmul(self, rng):
        fast, reference, _ = make_pair(rng, implicit=True, num_groups=1)
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(8, CHANNELS))
        assert np.array_equal(
            fast.project("site", x, weight, None), reference.project("site", x, weight, None)
        )

    @pytest.mark.parametrize("implicit", [True, False])
    def test_empty_groups_from_outlier_gap(self, rng, implicit):
        """A huge outlier pushes all other channels past several empty groups."""
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16, quantize_attention=True)
        calibration = rng.normal(size=(32, CHANNELS))
        calibration[:, 0] *= 500.0  # groups 1..5 end up empty
        statistics = _ChunkedStatistics(16)
        statistics.update(calibration)
        params = {"site": statistics.finalize("site", config)}
        fast = TenderExecutor(params, config, implicit=implicit, fast_kernels=True)
        reference = TenderExecutor(params, config, implicit=implicit, fast_kernels=False)
        decomposition = params["site"].chunks[0].decomposition
        assert (decomposition.group_sizes == 0).any(), "fixture should produce empty groups"
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(12, CHANNELS))
        x[:, 0] *= 400.0
        assert np.array_equal(
            fast.project("site", x, weight, None), reference.project("site", x, weight, None)
        )


QKV = ("q_proj", "k_proj", "v_proj")
#: Rows scattered over several chunks, repeated, unsorted, and past the
#: calibrated range (5 chunks of 16 rows: 200 reuses the last chunk).
SCATTERED = np.array([90, 0, 17, 31, 33, 5, 64, 200, 17])


def qkv_sites(rng, config, channels=CHANNELS):
    """Three sites calibrated from the same activation, as a block's Q/K/V are."""
    calibration = rng.normal(size=(5 * config.row_chunk_size, channels))
    calibration[:, 3] *= 50.0
    calibration[:, 11] *= 9.0
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {name: statistics.finalize(name, config) for name in QKV}


class TestForwardPlan:
    """A planned call is the unplanned call with the position work already done."""

    @pytest.mark.parametrize("fast_kernels", [True, False])
    @pytest.mark.parametrize("implicit", [True, False])
    def test_planned_equals_unplanned(self, rng, implicit, fast_kernels):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = calibrated_site(rng, config)
        weight = rng.normal(size=(CHANNELS, OUT))
        layer_bias = rng.normal(size=OUT)
        x = rng.normal(size=(SCATTERED.size, CHANNELS))
        x[:, 3] *= 40.0
        planned = TenderExecutor(params, config, implicit=implicit, fast_kernels=fast_kernels)
        unplanned = TenderExecutor(params, config, implicit=implicit, fast_kernels=fast_kernels)
        plan = ForwardPlan(SCATTERED.reshape(3, 3))  # the runner's (batch, new_len) shape
        expected = unplanned.project("site", x, weight, layer_bias, positions=SCATTERED)
        for _ in range(2):  # the second call finds every derived part cached
            assert np.array_equal(
                planned.project("site", x, weight, layer_bias, positions=plan), expected
            )
        unplanned.project("site", x, weight, layer_bias, positions=SCATTERED)
        assert planned.stats == unplanned.stats
        # Quantized ahead of the call, by another executor: the same bits and counters again.
        assert np.array_equal(project_split(planned, "site", x, weight, layer_bias, plan), expected)
        unplanned.project("site", x, weight, layer_bias, positions=SCATTERED)
        assert planned.stats == unplanned.stats

    def test_planned_equals_unplanned_on_the_overflow_fallback(self, rng):
        channels = 1100
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = overflow_site(channels, config)
        assert params["site"].packed().implicit_bounds.max() > 2**31 - 1
        weight = np.ones((channels, 3))
        x = rng.normal(size=(4, channels)) * 0.01
        positions = np.array([40, 3, 15, 16])
        outputs = [
            TenderExecutor(params, config, implicit=True, fast_kernels=fk).project(
                "site", x, weight, None, positions=given
            )
            for fk in (True, False)
            for given in (positions, ForwardPlan(positions))
        ]
        outputs += [
            project_split(
                TenderExecutor(params, config, implicit=True, fast_kernels=fk), "site", x, weight, None, positions
            )
            for fk in (True, False)
        ]
        assert all(np.array_equal(outputs[0], other) for other in outputs[1:])

    @pytest.mark.parametrize("fast_kernels", [True, False])
    @pytest.mark.parametrize("planned", [True, False])
    def test_negative_positions_are_rejected(self, rng, planned, fast_kernels):
        """They used to wrap to the last chunk silently, on both paths."""
        fast, reference, _ = make_pair(rng)
        executor = fast if fast_kernels else reference
        weight = rng.normal(size=(CHANNELS, OUT))
        x = rng.normal(size=(3, CHANNELS))
        positions = np.array([-5, 0, 20])
        with pytest.raises(CalibrationError, match="positions must be >= 0, got -5"):
            executor.project(
                "site", x, weight, None, positions=ForwardPlan(positions) if planned else positions
            )
        assert executor.stats["projections"] == 0

    @pytest.mark.parametrize("rows", [0, 1, 9, 64])
    def test_distinct_chunks_count_every_chunk_once(self, rng, rows):
        """Against ``np.unique``, on positions reaching past the calibrated chunks."""
        positions = rng.integers(0, 12 * 16, size=rows)
        chunks = ForwardPlan(positions).row_chunks(16)
        assert chunks.distinct == np.unique(positions // 16).size
        assert np.array_equal(chunks.clipped(5), np.minimum(positions // 16, 4))

    def test_row_count_mismatch_is_rejected_with_a_plan(self, rng):
        fast, _, _ = make_pair(rng)
        x = rng.normal(size=(3, CHANNELS))
        with pytest.raises(CalibrationError, match="positions has 4 entries for 3"):
            fast.project("site", x, rng.normal(size=(CHANNELS, OUT)), None, positions=ForwardPlan(np.arange(4)))


class TestStackedProjection:
    """A tuple of sites over one activation equals the per-site calls, column for column."""

    @staticmethod
    def operands(rng):
        weights = [rng.normal(size=(CHANNELS, OUT)) for _ in QKV]
        biases = [rng.normal(size=OUT) for _ in QKV]
        x = rng.normal(size=(SCATTERED.size, CHANNELS))
        x[:, 3] *= 40.0
        return x, weights, biases

    @staticmethod
    def one_by_one(executor, x, weights, biases, positions):
        return np.concatenate(
            [
                executor.project(name, x, weight, bias, positions=positions)
                for name, weight, bias in zip(QKV, weights, biases)
            ],
            axis=1,
        )

    @pytest.mark.parametrize("fast_kernels", [True, False])
    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_stacked_equals_three_calls(self, rng, subtract_bias, implicit, fast_kernels):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16, subtract_bias=subtract_bias)
        params = qkv_sites(rng, config)
        x, weights, biases = self.operands(rng)
        stacked = TenderExecutor(params, config, implicit=implicit, fast_kernels=fast_kernels)
        separate = TenderExecutor(params, config, implicit=implicit, fast_kernels=fast_kernels)
        plan = ForwardPlan(SCATTERED)
        out = stacked.project(
            QKV, x, np.concatenate(weights, axis=1), np.concatenate(biases), positions=plan
        )
        assert np.array_equal(out, self.one_by_one(separate, x, weights, biases, plan))
        assert stacked.stats == separate.stats
        assert stacked.stats["projections"] == 3
        # One fused matmul serves the three sites exactly when the kernels allow it.
        assert stacked._sites[QKV].fused == (fast_kernels and implicit)
        split = project_split(
            stacked, QKV, x, np.concatenate(weights, axis=1), np.concatenate(biases), plan
        )
        assert np.array_equal(split, out)
        assert stacked.stats["projections"] == 6

    def test_stacked_without_layer_bias(self, rng):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = qkv_sites(rng, config)
        x, weights, _ = self.operands(rng)
        none = [None] * 3
        out = TenderExecutor(params, config).project(
            QKV, x, np.concatenate(weights, axis=1), None, positions=SCATTERED
        )
        assert np.array_equal(
            out, self.one_by_one(TenderExecutor(params, config), x, weights, none, SCATTERED)
        )

    def test_perturbed_table_falls_back_to_per_site_calls(self, rng):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = qkv_sites(rng, config)
        params["k_proj"].chunks[2].bias = params["k_proj"].chunks[2].bias + 0.125
        x, weights, biases = self.operands(rng)
        stacked = TenderExecutor(params, config)
        separate = TenderExecutor(params, config)
        out = stacked.project(
            QKV, x, np.concatenate(weights, axis=1), np.concatenate(biases), positions=SCATTERED
        )
        assert not stacked._sites[QKV].fused, "differing tables must not be stacked"
        assert np.array_equal(out, self.one_by_one(separate, x, weights, biases, SCATTERED))
        assert stacked.stats == separate.stats
        split = project_split(
            stacked, QKV, x, np.concatenate(weights, axis=1), np.concatenate(biases), SCATTERED
        )
        assert np.array_equal(split, out)

    def test_overflow_bound_falls_back_to_per_site_calls(self, rng):
        channels = 1100
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        site = overflow_site(channels, config)["site"]
        params = {name: site for name in QKV}
        weights = [np.ones((channels, 3)) * scale for scale in (1.0, 0.5, 2.0)]
        x = rng.normal(size=(4, channels)) * 0.01
        out = TenderExecutor(params, config).project(QKV, x, np.concatenate(weights, axis=1), None)
        reference = TenderExecutor(params, config, fast_kernels=False)
        assert np.array_equal(out, self.one_by_one(reference, x, weights, [None] * 3, None))
        split = project_split(TenderExecutor(params, config), QKV, x, np.concatenate(weights, axis=1), None)
        assert np.array_equal(split, out)

    def test_unknown_site_and_ragged_stack_are_rejected(self, rng):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        executor = TenderExecutor(qkv_sites(rng, config), config)
        x = rng.normal(size=(2, CHANNELS))
        with pytest.raises(CalibrationError, match="no Tender calibration for matmul site 'o_proj'"):
            executor.project(("q_proj", "o_proj"), x, rng.normal(size=(CHANNELS, 8)), None)
        with pytest.raises(ShapeError, match="does not split into 3 equal site blocks"):
            executor.project(QKV, x, rng.normal(size=(CHANNELS, 10)), None)


def overflow_site(channels, config):
    """Calibration whose quantized activations can saturate the accumulator."""
    calibration = np.ones((config.row_chunk_size, channels)) * 10.0
    calibration[::2] *= -1.0  # symmetric range: zero bias, absmax 10 everywhere
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {"site": statistics.finalize("site", config)}



def straddling_site(channels, config):
    """Two calibrated chunks, one on each side of the implicit bound.

    Chunk 0 has one 1000x outlier channel, which sends every other channel to
    the finest group (rescale weight 1): its bound fits the accumulator.
    Chunk 1 is flat, so every channel sits in group 0 (weight
    ``alpha^(G-1)``): its bound does not.
    """
    calibration = np.ones((2 * config.row_chunk_size, channels)) * 10.0
    calibration[::2] *= -1.0
    calibration[: config.row_chunk_size, 0] *= 1000.0
    statistics = _ChunkedStatistics(config.row_chunk_size)
    statistics.update(calibration)
    return {"site": statistics.finalize("site", config)}


class TestStraddlingBound:
    """A site with chunks on both sides of the bound is not fused for any rows:
    every call takes the ordered kernels, which scan only the over-bound
    chunks.  Whatever chunks the rows land in, fast equals reference — the
    output, ``stats``, and the overflow error when the data does overflow."""

    CHANNELS = 1100
    #: Decode positions: chunk 0 only, chunk 1 only (and past it, clipped to it), both.
    PLACEMENTS = {"fitting": [0, 7, 3, 15], "over": [16, 31, 40, 22], "both": [5, 16, 0, 99]}

    def executors(self):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = straddling_site(self.CHANNELS, config)
        bounds = params["site"].packed().implicit_bounds
        assert bounds[0] <= 2**31 - 1 < bounds[1], "fixture must straddle the bound"
        return [TenderExecutor(params, config, implicit=True, fast_kernels=fast) for fast in (True, False)]

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_rows_in_any_chunks_match_the_reference(self, rng, placement):
        fast, reference = self.executors()
        positions = np.array(self.PLACEMENTS[placement])
        weight = rng.normal(size=(self.CHANNELS, 5))
        x = rng.normal(size=(positions.size, self.CHANNELS)) * 0.01
        outputs = [e.project("site", x, weight, None, positions=positions) for e in (fast, reference)]
        assert np.array_equal(*outputs)
        assert fast.stats == reference.stats
        assert not fast._sites["site"].fused and fast._sites["site"].packed.implicit_fits is False

    @pytest.mark.parametrize("placement", ["over", "both"])
    def test_overflowing_rows_raise_the_same_error(self, placement):
        fast, reference = self.executors()
        positions = np.array(self.PLACEMENTS[placement])
        weight = np.ones((self.CHANNELS, 3))
        x = np.ones((positions.size, self.CHANNELS)) * 10.0
        errors = []
        for executor in (fast, reference):
            with pytest.raises(QuantizationError, match="implicit requantization overflowed") as error:
                executor.project("site", x, weight, None, positions=positions)
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        assert fast.stats == reference.stats

    def test_fitting_rows_cannot_overflow(self):
        fast, reference = self.executors()
        positions = np.array(self.PLACEMENTS["fitting"])
        weight = np.ones((self.CHANNELS, 3))
        x = np.ones((positions.size, self.CHANNELS)) * 10.0
        outputs = [e.project("site", x, weight, None, positions=positions) for e in (fast, reference)]
        assert np.array_equal(*outputs)
        assert fast.stats == reference.stats

class TestOverflowGuard:
    def test_implicit_overflow_raises_on_both_paths(self):
        """Rescaled accumulation past 2^31 must still raise on the fast path."""
        channels = 1100  # qmax^2 * channels * alpha^(G-1) > 2^31
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = overflow_site(channels, config)
        weight = np.ones((channels, 3))
        x = np.ones((2, channels)) * 10.0
        for fast_kernels in (True, False):
            executor = TenderExecutor(params, config, implicit=True, fast_kernels=fast_kernels)
            with pytest.raises(QuantizationError, match="implicit requantization overflowed"):
                executor.project("site", x, weight, None)

    def test_explicit_overflow_raises_on_both_paths(self):
        channels = 140_000  # qmax^2 * channels > 2^31 in a single group
        config = TenderConfig(bits=8, num_groups=4, row_chunk_size=16)
        params = overflow_site(channels, config)
        weight = np.ones((channels, 2))
        x = np.ones((1, channels)) * 10.0
        for fast_kernels in (True, False):
            executor = TenderExecutor(params, config, implicit=False, fast_kernels=fast_kernels)
            with pytest.raises(QuantizationError, match="integer matmul overflowed"):
                executor.project("site", x, weight, None)

    def test_fallback_path_is_bit_identical_when_bound_exceeds(self, rng):
        """Bound can overflow but the data does not: fast falls back, stays exact."""
        channels = 1100
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = overflow_site(channels, config)
        packed = params["site"].packed()
        assert packed.implicit_bounds.max() > 2**31 - 1, "fixture must trip the bound"
        weight = np.ones((channels, 3))
        x = rng.normal(size=(4, channels)) * 0.01
        outputs = [
            TenderExecutor(params, config, implicit=True, fast_kernels=fk).project(
                "site", x, weight, None
            )
            for fk in (True, False)
        ]
        assert np.array_equal(outputs[0], outputs[1])

    def test_attention_overflow_parity(self):
        """Stacked implicit attention saturating 2^31 raises on every path."""
        channels = 1100
        config = TenderConfig(
            bits=8, num_groups=8, quantize_attention=True, subtract_bias=False
        )
        a = np.ones((1, 1, 2, channels)) * 10.0
        b = np.ones((1, 1, channels, 3))
        for fast_kernels in (True, False):
            executor = TenderExecutor({}, config, implicit=True, fast_kernels=fast_kernels)
            with pytest.raises(QuantizationError, match="implicit requantization overflowed"):
                executor.attention_matmul("qk", a, b)

    def test_attention_rescale_overflow_raises_alike(self):
        """An enormous outlier channel leaves ~19 empty groups between it and
        the rest; the rescale at each boundary overflows INT32.  Constant
        rows keep the decomposition deterministic, so bias subtraction is off
        (the midpoint shift would otherwise zero the tensor)."""
        config = TenderConfig(
            bits=8, num_groups=40, quantize_attention=True, subtract_bias=False
        )
        a = np.full((1, 1, 2, 4), 1000.0)
        a[..., 0] = 1e9
        b = np.full((1, 1, 4, 2), 1000.0)
        for fast_kernels in (True, False):
            executor = TenderExecutor({}, config, implicit=True, fast_kernels=fast_kernels)
            with pytest.raises(QuantizationError):
                executor.attention_matmul("qk", a, b)


def attention_operands(rng, batch=3, heads=4, rows=7, channels=16, out=9, outlier=50.0):
    a = rng.normal(size=(batch, heads, rows, channels))
    a[..., 1] *= outlier
    b = rng.normal(size=(batch, heads, channels, out))
    return a, b


def _zero_head(a):
    a[0, 1] = 0.0  # one head entirely zero -> degenerate decomposition


def _ragged_heads(a):
    a[0, 0, :, 2] *= 400.0  # extreme outlier -> empty middle groups in head (0, 0)
    a[1, 2] *= 0.01  # head (1, 2): uniformly tiny values


#: Operand cases of the fast-vs-loop parity test: (config overrides, operand
#: shape overrides, in-place edit of the left operand).
ATTENTION_CASES = {
    "decode_single_row_queries": (
        dict(num_groups=8), dict(batch=8, heads=4, rows=1, channels=16, out=40), None
    ),
    "all_zero_head": (
        dict(num_groups=4), dict(batch=2, heads=2, rows=5, channels=8, out=3), _zero_head
    ),
    "ragged_group_assignments": (
        dict(num_groups=8), dict(batch=2, heads=3, rows=6, channels=12), _ragged_heads
    ),
}


class TestAttentionBitExact:
    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("subtract_bias", [True, False])
    def test_fast_equals_loop(self, rng, implicit, alpha, bits, subtract_bias):
        config = TenderConfig(
            bits=bits, num_groups=6, alpha=alpha, subtract_bias=subtract_bias,
            quantize_attention=True,
        )
        fast = TenderExecutor({}, config, implicit=implicit, fast_kernels=True)
        loop = TenderExecutor({}, config, implicit=implicit, fast_kernels=False)
        a, b = attention_operands(rng)
        for _ in range(2):
            assert np.array_equal(
                fast.attention_matmul("qk", a, b), loop.attention_matmul("qk", a, b)
            )
        assert fast.stats == loop.stats
        assert fast.stats["attention_matmuls"] == 2
        # (G - 1) rescales per (batch, head) pair per call.
        assert fast.stats["rescales"] == 2 * 3 * 4 * 5

    @pytest.mark.parametrize("implicit", [True, False])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_fast_equals_loop_on_degenerate_operands(self, rng, case, implicit):
        overrides, shape, edit = ATTENTION_CASES[case]
        config = TenderConfig(bits=8, quantize_attention=True, **overrides)
        fast = TenderExecutor({}, config, implicit=implicit, fast_kernels=True)
        loop = TenderExecutor({}, config, implicit=implicit, fast_kernels=False)
        a, b = attention_operands(rng, **shape)
        if edit is not None:
            edit(a)
        assert np.array_equal(fast.attention_matmul("qk", a, b), loop.attention_matmul("qk", a, b))

    def test_unquantized_attention_untouched(self, rng):
        executor = TenderExecutor({}, TenderConfig(bits=8, num_groups=6, quantize_attention=False))
        a, b = attention_operands(rng)
        np.testing.assert_array_equal(executor.attention_matmul("qk", a, b), a @ b)
        assert executor.stats["attention_matmuls"] == 0


class TestPackedTables:
    def test_packed_tables_are_consistent_with_decompositions(self, rng):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = calibrated_site(rng, config)["site"]
        packed = pack_site_params(params.chunks)
        assert packed.num_chunks == len(params.chunks)
        # Scalar metadata comes from the decompositions, not the executor config.
        assert packed.qmax == 127
        assert packed.alpha == config.alpha
        assert packed.num_groups == config.num_groups
        for index, chunk in enumerate(params.chunks):
            decomposition = chunk.decomposition
            assert np.array_equal(packed.channel_order[index], decomposition.channel_order)
            assert np.array_equal(packed.group_sizes[index], decomposition.group_sizes)
            assert np.array_equal(packed.group_scales[index], decomposition.group_scales)
            assert np.array_equal(packed.channel_scales[index], decomposition.channel_scales())
            assert packed.final_scales[index] == decomposition.group_scales[-1]
            # Rescale weights are alpha^(G-1-g) per channel, straight from
            # the chunk's own decomposition metadata.
            expected = np.power(
                float(decomposition.alpha),
                decomposition.num_groups - 1 - decomposition.group_of_channel,
            )
            assert np.array_equal(packed.alpha_weights[index], expected)

    def test_packed_is_cached_on_site_params(self, rng):
        config = TenderConfig(bits=8, num_groups=4, row_chunk_size=16)
        params = calibrated_site(rng, config)["site"]
        assert params.packed() is params.packed()
