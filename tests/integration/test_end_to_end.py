"""End-to-end integration tests spanning training, quantization, and evaluation."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import SchemeRequest, build_runner
from repro.core import TenderConfig, TenderQuantizer
from repro.eval import evaluate_perplexity
from repro.models import TransformerRunner


class TestQuantizedInferencePipeline:
    def test_tender_int8_matches_fp_perplexity(self, outlier_weights, calibration, eval_tokens):
        """The paper's headline INT8 claim, end to end on the tiny checkpoint."""
        fp_ppl = evaluate_perplexity(TransformerRunner(outlier_weights), eval_tokens, 48, 4)
        runner = TenderQuantizer(TenderConfig(bits=8, num_groups=8, row_chunk_size=16)).quantize(
            outlier_weights, calibration
        )
        tender_ppl = evaluate_perplexity(runner, eval_tokens, 48, 4)
        assert tender_ppl < fp_ppl * 1.06

    def test_tender_all_quantizes_attention_with_small_penalty(self, outlier_weights, calibration, eval_tokens):
        fp_ppl = evaluate_perplexity(TransformerRunner(outlier_weights), eval_tokens, 48, 4)
        runner = TenderQuantizer(
            TenderConfig(bits=8, num_groups=8, row_chunk_size=16, quantize_attention=True)
        ).quantize(outlier_weights, calibration)
        tender_all_ppl = evaluate_perplexity(runner, eval_tokens, 48, 4)
        assert tender_all_ppl < fp_ppl * 1.15

    def test_group_sweep_monotone_improvement(self, outlier_weights, calibration, eval_tokens):
        """Figure 9's trend: more groups help INT4 markedly."""
        perplexities = {}
        for groups in (1, 2, 8):
            runner = build_runner(
                "Tender",
                SchemeRequest(
                    weights=outlier_weights,
                    calibration=calibration,
                    bits=4,
                    options={"num_groups": groups, "row_chunk_size": 16},
                ),
            )
            perplexities[groups] = evaluate_perplexity(runner, eval_tokens, 48, 3)
        assert perplexities[8] < perplexities[2] < perplexities[1]

    def test_bias_subtraction_matters_for_shifted_channels(self, outlier_weights, calibration, eval_tokens):
        """Ablation: disabling the channel bias hurts on one-sided outlier channels."""
        with_bias = build_runner(
            "Tender",
            SchemeRequest(
                weights=outlier_weights, calibration=calibration, bits=4,
                options={"num_groups": 10, "row_chunk_size": 16, "subtract_bias": True},
            ),
        )
        without_bias = build_runner(
            "Tender",
            SchemeRequest(
                weights=outlier_weights, calibration=calibration, bits=4,
                options={"num_groups": 10, "row_chunk_size": 16, "subtract_bias": False},
            ),
        )
        ppl_with = evaluate_perplexity(with_bias, eval_tokens, 48, 3)
        ppl_without = evaluate_perplexity(without_bias, eval_tokens, 48, 3)
        assert ppl_with < ppl_without

    def test_alpha_two_no_worse_than_alpha_four(self, outlier_weights, calibration, eval_tokens):
        """Ablation on the threshold base: alpha=2 (finer) should not lose to alpha=4."""
        perplexities = {}
        for alpha in (2, 4):
            runner = build_runner(
                "Tender",
                SchemeRequest(
                    weights=outlier_weights, calibration=calibration, bits=4,
                    options={"num_groups": 10, "row_chunk_size": 16, "alpha": alpha},
                ),
            )
            perplexities[alpha] = evaluate_perplexity(runner, eval_tokens, 48, 3)
        assert perplexities[2] <= perplexities[4] * 1.02


@pytest.mark.slow
class TestZooPipeline:
    def test_zoo_checkpoint_trains_caches_and_quantizes(self, tmp_path, monkeypatch):
        """Full path: zoo entry -> cached training -> Tender INT8 close to FP."""
        from repro.data import load_corpus
        from repro.models import get_language_model
        from repro.models.checkpoints import clear_memory_cache

        clear_memory_cache()
        weights = get_language_model("opt-6.7b-sim")
        again = get_language_model("opt-6.7b-sim")
        np.testing.assert_allclose(weights.blocks[0].attn.wq, again.blocks[0].attn.wq)
        assert weights.outlier_channels.size > 0

        _, eval_tokens = load_corpus("wiki").split()
        from repro.data import calibration_samples

        pile_train, _ = load_corpus("pile").split()
        samples = calibration_samples(pile_train, 64, 8)
        fp_ppl = evaluate_perplexity(TransformerRunner(weights), eval_tokens, 64, 4)
        tender = TenderQuantizer(TenderConfig(bits=8, num_groups=8, row_chunk_size=32)).quantize(
            weights, samples
        )
        assert evaluate_perplexity(tender, eval_tokens, 64, 4) < fp_ppl * 1.06
        assert fp_ppl < 200  # the zoo model genuinely learned the corpus


class TestExamples:
    def test_serve_speculative_runs_and_both_drafters_keep_parity(self):
        """The speculative-serving tour end to end: it exits 0 and prints both parity lines."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, str(root / "examples" / "serve_speculative.py")],
            capture_output=True, text=True, cwd=root, env=env, timeout=600,
        )  # fmt: skip
        assert result.returncode == 0, result.stdout + result.stderr
        lines = result.stdout.splitlines()
        for drafter in ("prompt lookup", "model draft"):
            assert any(line.startswith(drafter) and line.endswith("(parity OK)") for line in lines), result.stdout
