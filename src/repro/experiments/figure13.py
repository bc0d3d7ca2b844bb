"""Figure 13: implicit vs explicit requantization on the Tender hardware.

The paper compares end-to-end execution time when Tender uses implicit
(shift-in-PE) requantization against explicit (per-group dequantize and
accumulate) requantization, normalized to per-tensor quantization without
decomposition, for 8 and 16 channel groups.  Explicit requantization shortens
the reduction axis and adds FP work, slowing execution by up to ~1.7x, while
implicit requantization tracks the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.accelerator.simulator import simulate_on
from repro.experiments.report import format_table
from repro.models.zoo import get_zoo_entry

FIGURE13_MODELS = ("opt-6.7b-sim", "llama-2-13b-sim", "llama-2-70b-sim")
FIGURE13_GROUP_COUNTS = (8, 16)


@dataclass
class Figure13Row:
    model: str
    num_groups: int
    base_latency: float
    explicit_latency: float
    implicit_latency: float

    @property
    def explicit_normalized(self) -> float:
        return self.explicit_latency / self.base_latency

    @property
    def implicit_normalized(self) -> float:
        return self.implicit_latency / self.base_latency


def run_figure13(
    models: Sequence[str] = FIGURE13_MODELS,
    group_counts: Sequence[int] = FIGURE13_GROUP_COUNTS,
    seq_len: int = 2048,
) -> List[Figure13Row]:
    """Normalized latency of explicit vs implicit requantization on Tender."""
    rows: List[Figure13Row] = []
    for num_groups in group_counts:
        for model in models:
            prefill = (get_zoo_entry(model).paper_shape, seq_len, seq_len)
            base = simulate_on("Tender", *prefill, num_groups=1).seconds
            explicit = simulate_on("Tender", *prefill, num_groups=num_groups, implicit=False).seconds
            implicit = simulate_on("Tender", *prefill, num_groups=num_groups, implicit=True).seconds
            rows.append(
                Figure13Row(
                    model=model,
                    num_groups=num_groups,
                    base_latency=base,
                    explicit_latency=explicit,
                    implicit_latency=implicit,
                )
            )
    return rows


def render_figure13(rows: List[Figure13Row]) -> str:
    headers = ["Model", "Groups", "Base", "Explicit (norm.)", "Tender implicit (norm.)"]
    body = [
        [r.model, r.num_groups, 1.0, r.explicit_normalized, r.implicit_normalized] for r in rows
    ]
    return format_table(headers, body, title="Figure 13: implicit vs explicit requantization latency")
