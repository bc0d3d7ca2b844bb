"""End-to-end accelerator simulation: one forward of a model shape -> cycles, runtime, energy.

The simulator walks every GEMM of :meth:`repro.models.ModelShape.gemms`, asks
the systolic-array cycle model how long the compute takes on the given
accelerator, asks the HBM model how long the operand/result transfers take,
and overlaps the two (double buffering).  The per-GEMM maximum of compute and
memory time therefore decides whether a layer is compute- or memory-bound,
which is what differentiates the models in Figures 10/11 (e.g. the attention
score/value GEMMs of the larger Llama models are closer to memory-bound than
the wide FC layers).  Section V-A's workloads are forwards at two ``(rows,
context)`` points: a prefill of ``batch`` prompts of ``seq_len`` tokens is
``(seq_len x batch, seq_len)``, one generated token ``(batch, context_len)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.accelerator.accelerators import AcceleratorModel, build_accelerator
from repro.accelerator.energy import EnergyBreakdown, workload_energy
from repro.accelerator.memory import HBMModel
from repro.accelerator.systolic import gemm_cycles
from repro.errors import ConfigurationError, require_count
from repro.models.zoo import ModelShape


@dataclass
class GemmSimResult:
    """Timing of one GEMM (all of its repeated instances)."""

    name: str
    compute_cycles: int
    memory_cycles: int
    total_cycles: int
    macs: int


@dataclass
class SimulationResult:
    """Timing and energy of one forward on one accelerator."""

    accelerator: str
    cycles: int
    seconds: float
    energy: EnergyBreakdown
    gemms: List[GemmSimResult] = field(default_factory=list)

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    @property
    def total_macs(self) -> int:
        return sum(g.macs for g in self.gemms)

    def throughput_tops(self) -> float:
        """Achieved tera-MACs per second."""
        if self.seconds == 0:
            return 0.0
        return self.total_macs / self.seconds / 1e12


class AcceleratorSimulator:
    """Simulates forwards on one accelerator model."""

    def __init__(self, accelerator: AcceleratorModel) -> None:
        self.accelerator = accelerator
        self.hbm = HBMModel(accelerator.config.memory)

    def simulate(
        self,
        shape: ModelShape,
        rows: int,
        context: int,
        num_groups: int = 1,
        implicit: bool = True,
    ) -> SimulationResult:
        """Simulate one forward of ``shape``: ``rows`` token rows attending ``context``."""
        num_groups = require_count("num_groups", num_groups, 1)
        config = self.accelerator.config
        operand_bits = int(round(self.accelerator.effective_activation_bits))
        gemm_results, dram_bytes = [], 0
        for site, m, k, n, count in shape.gemms(rows, context):
            instances = count if site == "lm_head" else count * shape.num_layers
            breakdown = gemm_cycles(
                m, k, n, config.systolic, operand_bits=config.precision_bits, num_groups=num_groups,
                implicit_requantization=implicit, decode_cycles_per_tile=config.decode_cycles_per_tile,
            )  # fmt: skip
            # ANT-style designs run a fraction of the work at 8-bit precision,
            # which quarters the 4-bit array throughput (4 PEs per MAC) and moves
            # twice the bytes for that fraction.
            compute = int(breakdown.total * config.control_overhead * self.accelerator.compute_multiplier)
            compute *= instances
            # Operands and result of every instance, moved in one transfer: the
            # HBM model rounds up to whole cycles, so splitting it would round more.
            moved = sum(elements * operand_bits // 8 for elements in (m * k, k * n, m * n)) * instances
            memory = self.hbm.transfer_cycles(moved, frequency_ghz=config.systolic.frequency_ghz)
            gemm_results.append(GemmSimResult(site, compute, memory, max(compute, memory), m * k * n * instances))
            dram_bytes += moved
        cycles = sum(g.total_cycles for g in gemm_results)
        seconds = cycles / (config.systolic.frequency_ghz * 1e9)
        # Every DRAM byte is staged through the scratchpad, and outputs pass
        # through the output buffer once more on their way to the VPU.
        sram_bytes = 2 * dram_bytes
        energy = workload_energy(
            self.accelerator,
            total_macs=sum(g.macs for g in gemm_results),
            dram_bytes=dram_bytes,
            sram_bytes=sram_bytes,
            runtime_seconds=seconds,
            compute_cycles=sum(g.compute_cycles for g in gemm_results),
        )
        return SimulationResult(self.accelerator.name, cycles, seconds, energy, gemm_results)


def simulate_on(
    accelerator_name: str, shape: ModelShape, rows: int, context: int, num_groups: int = 1, implicit: bool = True
) -> SimulationResult:
    """Convenience wrapper: build the named accelerator and simulate one forward."""
    model = build_accelerator(accelerator_name)
    return AcceleratorSimulator(model).simulate(shape, rows, context, num_groups=num_groups, implicit=implicit)


def speedup_table(
    shapes: Dict[str, ModelShape],
    rows: int,
    context: int,
    accelerator_names: Optional[List[str]] = None,
    baseline: str = "ANT",
    tender_num_groups: int = 8,
) -> Dict[str, Dict[str, float]]:
    """Speedup of each accelerator over ``baseline`` for one forward of each shape.

    Tender's decomposition bubbles are included via ``tender_num_groups``;
    the baselines do not decompose channels, so they run with one group.
    """
    names = accelerator_names or ["ANT", "OLAccel", "OliVe", "Tender"]
    if baseline not in names:
        raise ConfigurationError(f"baseline {baseline!r} is not among the simulated accelerators {names}")
    table: Dict[str, Dict[str, float]] = {}
    for label, shape in shapes.items():
        results = {}
        for name in names:
            groups = tender_num_groups if name == "Tender" else 1
            results[name] = simulate_on(name, shape, rows, context, num_groups=groups).seconds
        base_seconds = results[baseline]
        table[label] = {name: base_seconds / seconds for name, seconds in results.items()}
    return table
