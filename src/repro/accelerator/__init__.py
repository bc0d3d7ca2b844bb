"""Cycle-level accelerator simulator: Tender MSA and baseline accelerators."""

from repro.accelerator.accelerators import (
    ACCELERATOR_BUILDERS,
    AcceleratorModel,
    all_accelerators,
    build_accelerator,
    build_ant_accelerator,
    build_olaccel_accelerator,
    build_olive_accelerator,
    build_tender_accelerator,
)
from repro.accelerator.area import (
    ComponentArea,
    iso_area_pe_count,
    tender_area_table,
    total_area_power,
)
from repro.accelerator.config import AcceleratorConfig, MemoryConfig, SystolicConfig, VPUConfig
from repro.accelerator.energy import EnergyBreakdown, workload_energy
from repro.accelerator.memory import HBMModel, IndexBuffer, MemoryTraffic, ScratchpadModel
from repro.accelerator.simulator import (
    AcceleratorSimulator,
    GemmSimResult,
    SimulationResult,
    simulate_on,
    speedup_table,
)
from repro.accelerator.systolic import (
    GemmCycleBreakdown,
    MultiScaleSystolicArray,
    ProcessingElement,
    gemm_cycles,
)

__all__ = [
    "AcceleratorConfig",
    "SystolicConfig",
    "MemoryConfig",
    "VPUConfig",
    "AcceleratorModel",
    "ACCELERATOR_BUILDERS",
    "build_accelerator",
    "build_tender_accelerator",
    "build_ant_accelerator",
    "build_olaccel_accelerator",
    "build_olive_accelerator",
    "all_accelerators",
    "ComponentArea",
    "tender_area_table",
    "total_area_power",
    "iso_area_pe_count",
    "EnergyBreakdown",
    "workload_energy",
    "HBMModel",
    "ScratchpadModel",
    "IndexBuffer",
    "MemoryTraffic",
    "gemm_cycles",
    "GemmCycleBreakdown",
    "ProcessingElement",
    "MultiScaleSystolicArray",
    "AcceleratorSimulator",
    "SimulationResult",
    "GemmSimResult",
    "simulate_on",
    "speedup_table",
]
