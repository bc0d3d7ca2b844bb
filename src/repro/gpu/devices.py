"""GPU device specifications shared by all latency models in this package.

Originally introduced for the Figure 12 reproduction; the priced forward
and the serving closed forms over it (``repro.gpu.latency``) price their
GEMMs against the same specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class GPUSpec:
    """Throughput/bandwidth envelope of a GPU for GEMM kernels."""

    name: str
    fp16_tflops: float
    int8_tops: float
    memory_bandwidth_gbps: float
    #: Fixed per-kernel launch/epilogue overhead (microseconds).
    kernel_launch_us: float
    #: GEMM FLOP count below which the device is underutilized; kernels of
    #: this size or smaller achieve roughly half of peak (captures the paper's
    #: observation that small-model INT8 GEMMs on A100 show no gain over FP16).
    saturation_gflop: float


#: Published peak numbers for the two GPUs used in Figure 12.
GPU_SPECS: Dict[str, GPUSpec] = {
    "rtx3090": GPUSpec(
        name="RTX 3090",
        fp16_tflops=71.0,
        int8_tops=142.0,
        memory_bandwidth_gbps=936.0,
        kernel_launch_us=8.0,
        saturation_gflop=15.0,
    ),
    "a100": GPUSpec(
        name="A100 80GB",
        fp16_tflops=312.0,
        int8_tops=624.0,
        memory_bandwidth_gbps=2039.0,
        kernel_launch_us=8.0,
        saturation_gflop=120.0,
    ),
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by short name ('rtx3090' or 'a100')."""
    key = name.lower()
    if key not in GPU_SPECS:
        raise ConfigurationError(f"unknown GPU {name!r}; expected one of {sorted(GPU_SPECS)}")
    return GPU_SPECS[key]
