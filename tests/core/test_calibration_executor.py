"""Tests of Tender calibration and the Tender matmul executor."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import TenderConfig, TenderExecutor, TenderQuantizer, calibrate_tender
from repro.errors import CalibrationError, ConfigurationError
from repro.models import TransformerRunner
from repro.quant import Granularity, compute_scale
from repro.quant.quantize import fake_quantize


class TestTenderConfig:
    def test_defaults_valid(self):
        config = TenderConfig()
        assert config.bits == 8 and config.alpha == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bits": 1},
            {"bits": 16},
            {"num_groups": 0},
            {"alpha": 1},
            {"row_chunk_size": 0},
            {"bits": 7.5},
            {"bits": "8"},
            {"num_groups": 2.5},
            {"alpha": 2.5},
            {"row_chunk_size": 8.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        ((field, value),) = kwargs.items()
        with pytest.raises(ConfigurationError, match=rf"^{field} must .*, got {re.escape(repr(value))}$"):
            TenderConfig(**kwargs)

    def test_integer_counts_are_stored_as_int(self):
        config = TenderConfig(bits=np.int64(4), num_groups=np.int32(3), alpha=np.int64(2), row_chunk_size=np.int16(8))
        counts = (config.bits, config.num_groups, config.alpha, config.row_chunk_size)
        assert counts == (4, 3, 2, 8) and all(type(count) is int for count in counts)


class TestCalibration:
    def test_covers_all_projection_sites(self, outlier_weights, calibration):
        params = calibrate_tender(outlier_weights, calibration, TenderConfig(row_chunk_size=16))
        expected_sites = {"lm_head"}
        for layer in range(outlier_weights.num_layers):
            for proj in ("q_proj", "k_proj", "v_proj", "out_proj"):
                expected_sites.add(f"block{layer}.attn.{proj}")
            for proj in ("fc1", "fc2"):
                expected_sites.add(f"block{layer}.ffn.{proj}")
        assert expected_sites == set(params)

    def test_row_chunking_creates_multiple_chunks(self, outlier_weights, calibration):
        params = calibrate_tender(outlier_weights, calibration, TenderConfig(row_chunk_size=16))
        site = params["block0.attn.q_proj"]
        # Calibration sequences are 48 tokens, so 3 chunks of 16 rows.
        assert len(site.chunks) == 3

    def test_chunk_index_clamps_to_last(self, outlier_weights, calibration):
        params = calibrate_tender(outlier_weights, calibration, TenderConfig(row_chunk_size=16))
        site = params["block0.attn.q_proj"]
        assert site.chunk(999) is site.chunks[-1]

    def test_empty_samples_rejected(self, outlier_weights):
        with pytest.raises(CalibrationError):
            calibrate_tender(outlier_weights, [], TenderConfig())

    def test_bias_disabled_gives_zero_bias(self, outlier_weights, calibration):
        params = calibrate_tender(
            outlier_weights, calibration, TenderConfig(subtract_bias=False, row_chunk_size=32)
        )
        chunk = params["block0.attn.q_proj"].chunks[0]
        np.testing.assert_allclose(chunk.bias, 0.0)

    def test_decomposition_identifies_outlier_channels(self, outlier_weights, calibration):
        params = calibrate_tender(outlier_weights, calibration, TenderConfig(num_groups=8, row_chunk_size=32))
        chunk = params["block0.attn.q_proj"].chunks[0]
        outlier_channels = outlier_weights.outlier_channels
        groups = chunk.decomposition.group_of_channel
        normal_channels = np.setdiff1d(np.arange(groups.shape[0]), outlier_channels)
        assert groups[outlier_channels].mean() < groups[normal_channels].mean()


class TestTenderExecutor:
    def test_projection_close_to_float_reference(self, outlier_weights, calibration, eval_tokens):
        from repro.models import capture_activations

        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        params = calibrate_tender(outlier_weights, calibration, config)
        executor = TenderExecutor(params, config)
        block = outlier_weights.blocks[0]
        # Static calibration only applies to in-distribution activations, so
        # probe with the model's actual attention input.
        x = capture_activations(outlier_weights, eval_tokens[:32])["block0.attn.q_proj"]
        result = executor.project("block0.attn.q_proj", x, block.attn.wq, block.attn.bq)
        reference = x @ block.attn.wq + block.attn.bq
        relative = np.linalg.norm(result - reference) / np.linalg.norm(reference)
        # Tender should track the (impractical-in-hardware) dynamic per-column
        # reference and clearly beat per-row quantization on this outlier site.
        per_column = fake_quantize(x, 8, Granularity.PER_COLUMN) @ fake_quantize(
            block.attn.wq, 8, Granularity.PER_COLUMN
        ) + block.attn.bq
        per_row = fake_quantize(x, 8, Granularity.PER_ROW) @ fake_quantize(
            block.attn.wq, 8, Granularity.PER_COLUMN
        ) + block.attn.bq
        per_column_rel = np.linalg.norm(per_column - reference) / np.linalg.norm(reference)
        per_row_rel = np.linalg.norm(per_row - reference) / np.linalg.norm(reference)
        assert relative < per_column_rel * 1.5
        assert relative < per_row_rel * 0.6

    def test_unknown_site_raises(self, outlier_weights, calibration, rng):
        config = TenderConfig()
        params = calibrate_tender(outlier_weights, calibration, config)
        executor = TenderExecutor(params, config)
        with pytest.raises(CalibrationError):
            executor.project("not.a.site", rng.normal(size=(4, 8)), rng.normal(size=(8, 4)), None)

    def test_implicit_and_explicit_paths_match(self, outlier_weights, calibration, eval_tokens):
        config = TenderConfig(bits=8, num_groups=8, row_chunk_size=16)
        quantizer = TenderQuantizer(config, implicit=True)
        implicit_runner = quantizer.quantize(outlier_weights, calibration)
        explicit_runner = TransformerRunner(
            outlier_weights, TenderQuantizer(config, implicit=False).quantize(outlier_weights, calibration).executor
        )
        tokens = eval_tokens[:32]
        np.testing.assert_allclose(
            implicit_runner.logits(tokens[None, :]),
            explicit_runner.logits(tokens[None, :]),
            rtol=1e-9, atol=1e-9,
        )

    def test_attention_matmuls_not_quantized_by_default(self, outlier_weights, calibration, rng):
        config = TenderConfig(bits=8)
        params = calibrate_tender(outlier_weights, calibration, config)
        executor = TenderExecutor(params, config)
        a = rng.normal(size=(1, 2, 4, 8))
        b = rng.normal(size=(1, 2, 8, 4))
        np.testing.assert_allclose(executor.attention_matmul("block0.attn.qk", a, b), a @ b)
        assert executor.stats["attention_matmuls"] == 0

    def test_attention_matmuls_quantized_when_enabled(self, outlier_weights, calibration, rng):
        config = TenderConfig(bits=8, quantize_attention=True, num_groups=6)
        params = calibrate_tender(outlier_weights, calibration, config)
        executor = TenderExecutor(params, config)
        a = rng.normal(size=(1, 2, 6, 8))
        b = rng.normal(size=(1, 2, 8, 6))
        result = executor.attention_matmul("block0.attn.qk", a, b)
        reference = a @ b
        assert executor.stats["attention_matmuls"] == 1
        relative = np.linalg.norm(result - reference) / np.linalg.norm(reference)
        assert 0 < relative < 0.05

    def test_rescale_counter_tracks_groups(self, outlier_weights, calibration, rng):
        config = TenderConfig(bits=8, num_groups=5, row_chunk_size=64)
        params = calibrate_tender(outlier_weights, calibration, config)
        executor = TenderExecutor(params, config)
        block = outlier_weights.blocks[0]
        x = rng.normal(size=(16, outlier_weights.config.d_model))
        executor.project("block0.attn.q_proj", x, block.attn.wq, block.attn.bq)
        assert executor.stats["rescales"] == 4  # one chunk, num_groups - 1


class TestTenderQuantizer:
    def test_build_executor_requires_calibration(self):
        with pytest.raises(CalibrationError):
            TenderQuantizer().build_executor()

    def test_quantize_returns_runner_with_reasonable_outputs(self, outlier_weights, calibration, eval_tokens):
        runner = TenderQuantizer(TenderConfig(bits=8, num_groups=8, row_chunk_size=16)).quantize(
            outlier_weights, calibration
        )
        fp_runner = TransformerRunner(outlier_weights)
        tokens = eval_tokens[:48]
        quantized_probs = runner.log_probs(tokens[None, :])
        fp_probs = fp_runner.log_probs(tokens[None, :])
        # Average per-token log-prob difference should be small for INT8.
        assert np.abs(quantized_probs - fp_probs).mean() < 0.1

    def test_int8_tender_beats_per_tensor_int8(self, outlier_weights, calibration, eval_tokens):
        """Core accuracy claim at the matmul level: Tender error << per-tensor error."""
        from repro.models import capture_activations

        config = TenderConfig(bits=4, num_groups=10, row_chunk_size=16)
        params = calibrate_tender(outlier_weights, calibration, config)
        executor = TenderExecutor(params, config)
        block = outlier_weights.blocks[0]
        x = capture_activations(outlier_weights, eval_tokens[:32])["block0.attn.q_proj"]
        reference = x @ block.attn.wq
        tender_result = executor.project("block0.attn.q_proj", x, block.attn.wq, None)
        per_tensor = fake_quantize(x, 4, Granularity.PER_TENSOR) @ fake_quantize(
            block.attn.wq, 4, Granularity.PER_COLUMN
        )
        tender_error = np.linalg.norm(tender_result - reference)
        per_tensor_error = np.linalg.norm(per_tensor - reference)
        assert tender_error < per_tensor_error / 3
