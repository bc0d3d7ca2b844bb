"""Figure 10: speedup of the accelerators over ANT.

Prefill workloads (batch 1, 2048:1 input/output split) of the six large models
are simulated on the iso-area ANT, OLAccel, OliVe, and Tender configurations;
speedups are normalized to ANT, and the geometric mean is reported like the
paper's rightmost bar group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from typing import Dict, List, Sequence

from repro.accelerator.simulator import speedup_table
from repro.experiments.report import format_table
from repro.models.zoo import get_zoo_entry

FIGURE10_MODELS = (
    "opt-6.7b-sim",
    "opt-13b-sim",
    "opt-66b-sim",
    "llama-2-7b-sim",
    "llama-2-13b-sim",
    "llama-2-70b-sim",
)
ACCELERATORS = ("ANT", "OLAccel", "OliVe", "Tender")


@dataclass
class SpeedupRow:
    model: str
    speedups: Dict[str, float]


def run_figure10(
    models: Sequence[str] = FIGURE10_MODELS,
    seq_len: int = 2048,
    tender_num_groups: int = 8,
) -> List[SpeedupRow]:
    """Speedup of every accelerator over ANT for every model, plus the geomean."""
    shapes = {model: get_zoo_entry(model).paper_shape for model in models}
    table = speedup_table(shapes, seq_len, seq_len, baseline="ANT", tender_num_groups=tender_num_groups)
    rows = [SpeedupRow(model=model, speedups=table[model]) for model in models]
    geomean = {
        name: exp(sum(log(table[model][name]) for model in models) / len(models))
        for name in ACCELERATORS
    }
    rows.append(SpeedupRow(model="Geomean", speedups=geomean))
    return rows


def render_figure10(rows: List[SpeedupRow]) -> str:
    headers = ["Model"] + list(ACCELERATORS)
    body = [[row.model] + [row.speedups[name] for name in ACCELERATORS] for row in rows]
    return format_table(headers, body, title="Figure 10: speedup over ANT")
