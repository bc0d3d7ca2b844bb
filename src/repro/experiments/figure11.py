"""Figure 11: energy efficiency of the accelerators (normalized to ANT)."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from typing import Dict, List, Sequence

from repro.accelerator.simulator import simulate_on
from repro.experiments.figure10 import ACCELERATORS, FIGURE10_MODELS
from repro.experiments.report import format_table
from repro.models.zoo import get_zoo_entry


@dataclass
class EnergyRow:
    model: str
    #: Energy efficiency relative to ANT (higher is better).
    efficiency: Dict[str, float]


def run_figure11(
    models: Sequence[str] = FIGURE10_MODELS,
    seq_len: int = 2048,
    tender_num_groups: int = 8,
) -> List[EnergyRow]:
    """Relative energy efficiency (ANT energy / scheme energy) per model."""
    rows: List[EnergyRow] = []
    per_model: Dict[str, Dict[str, float]] = {}
    for model in models:
        shape = get_zoo_entry(model).paper_shape
        energies = {
            name: simulate_on(
                name, shape, seq_len, seq_len, num_groups=tender_num_groups if name == "Tender" else 1
            ).energy_j
            for name in ACCELERATORS
        }
        efficiency = {name: energies["ANT"] / energies[name] for name in ACCELERATORS}
        per_model[model] = efficiency
        rows.append(EnergyRow(model=model, efficiency=efficiency))
    geomean = {
        name: exp(sum(log(per_model[model][name]) for model in models) / len(models))
        for name in ACCELERATORS
    }
    rows.append(EnergyRow(model="Geomean", efficiency=geomean))
    return rows


def render_figure11(rows: List[EnergyRow]) -> str:
    headers = ["Model"] + list(ACCELERATORS)
    body = [[row.model] + [row.efficiency[name] for name in ACCELERATORS] for row in rows]
    return format_table(headers, body, title="Figure 11: energy efficiency relative to ANT")
