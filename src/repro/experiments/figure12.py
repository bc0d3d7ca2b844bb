"""Figure 12: Tender in software on GPUs — latency and MSE.

The paper measures, on an RTX 3090 (OPT-6.7B) and an A100 80GB (OPT-66B), the
latency of the query-projection GEMM of layer 16 under FP16, INT8 per-tensor,
per-row, per-channel, and Tender SW, together with the mean squared error of
each scheme's output.  Latency comes from the analytical GPU model in
:mod:`repro.gpu`; MSE is measured on the scaled-down stand-in checkpoints with
the same scheme implementations used everywhere else in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import UniformQuantExecutor
from repro.core.calibration import calibrate_tender
from repro.core.config import TenderConfig
from repro.core.executor import TenderExecutor
from repro.data.corpus import load_corpus
from repro.data.datasets import calibration_samples
from repro.eval.mse import projection_mse
from repro.experiments.report import current_profile, format_table
from repro.gpu.latency import figure12_latencies
from repro.models.checkpoints import get_language_model
from repro.models.inference import capture_activations
from repro.models.zoo import get_zoo_entry
from repro.quant.granularity import Granularity


@dataclass
class Figure12Row:
    device: str
    scheme: str
    normalized_latency: float
    mse: float


#: (device, model stand-in) pairs used by the paper.
FIGURE12_SETUPS = (("rtx3090", "opt-6.7b-sim"), ("a100", "opt-66b-sim"))


def _scheme_mse(model_name: str, bits: int = 8, num_groups: int = 8) -> Dict[str, float]:
    """MSE of each scheme on the query-projection GEMM of the middle layer."""
    weights = get_language_model(model_name)
    layer = weights.num_layers // 2
    site = f"block{layer}.attn.q_proj"
    _, eval_tokens = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    activation = capture_activations(weights, eval_tokens[:64])[site]
    weight = weights.blocks[layer].attn.wq

    pile_train, _ = load_corpus("pile", vocab_size=weights.config.vocab_size).split()
    samples = calibration_samples(pile_train, 64, 8)
    tender_config = TenderConfig(bits=bits, num_groups=num_groups, row_chunk_size=32)
    site_params = calibrate_tender(weights, samples, tender_config)
    tender = TenderExecutor(site_params, tender_config)

    def uniform(granularity: Granularity) -> float:
        executor = UniformQuantExecutor(bits=bits, activation_granularity=granularity)
        return projection_mse(executor, activation, weight)

    return {
        "FP16": 0.0,
        "INT8 (per-tensor)": uniform(Granularity.PER_TENSOR),
        "INT8 (per-row)": uniform(Granularity.PER_ROW),
        "INT8 (per-channel)": uniform(Granularity.PER_COLUMN),
        "Tender SW": projection_mse(tender, activation, weight, name=site),
    }


def run_figure12(
    setups=None,
    num_groups: int = 8,
    batch_tokens: int = 2048,
) -> List[Figure12Row]:
    """Latency (normalized to FP16) and MSE per scheme and device."""
    if setups is None:
        # Smoke mode skips the A100/OPT-66B setup (the 66B stand-in is the
        # most expensive checkpoint to train and calibrate).
        setups = FIGURE12_SETUPS[:1] if current_profile().smoke else FIGURE12_SETUPS
    rows: List[Figure12Row] = []
    for device, model_name in setups:
        d_model = get_zoo_entry(model_name).paper_shape.d_model
        latencies = figure12_latencies(
            m=batch_tokens, k=d_model, n=d_model, device_name=device, num_groups=num_groups,
        )
        mses = _scheme_mse(model_name, bits=8, num_groups=num_groups)
        for scheme, latency in latencies.items():
            rows.append(
                Figure12Row(
                    device=device,
                    scheme=scheme,
                    normalized_latency=latency.normalized_to_fp16,
                    mse=mses.get(scheme, float("nan")),
                )
            )
    return rows


def render_figure12(rows: List[Figure12Row]) -> str:
    headers = ["Device", "Scheme", "Normalized latency", "MSE"]
    body = [[r.device, r.scheme, r.normalized_latency, r.mse] for r in rows]
    return format_table(headers, body, title="Figure 12: GPU latency and MSE of Tender SW")
