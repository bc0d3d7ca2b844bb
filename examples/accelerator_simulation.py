"""Accelerator case study: speedup, energy, and requantization overhead.

Reproduces the hardware side of the paper on the full-scale model dimensions:

* Table V  — area/power of the Tender accelerator,
* Figure 10 — speedup of ANT / OLAccel / OliVe / Tender (normalized to ANT),
* Figure 11 — energy efficiency,
* Figure 13 — implicit vs explicit requantization,

plus a peek at the functional Multi-Scale Systolic Array, showing that the
1-bit-shifter hardware computes exactly the same integers as the algorithmic
implicit-requantization reference.

Run:  python examples/accelerator_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.accelerator import MultiScaleSystolicArray, simulate_on
from repro.core import decompose_channels, implicit_requantized_matmul, quantize_decomposed
from repro.experiments import (
    render_figure10,
    render_figure11,
    render_figure13,
    render_table5,
    run_figure10,
    run_figure11,
    run_figure13,
    run_table5,
)
from repro.models import get_zoo_entry
from repro.quant import Granularity, compute_scale, quantize_symmetric


def functional_msa_demo() -> None:
    """Show bit-exact agreement between the MSA model and the algorithm."""
    rng = np.random.default_rng(0)
    activation = rng.normal(size=(8, 24))
    activation[:, 3] *= 50.0  # one outlier channel
    cmax = np.abs(activation).max(axis=0)
    decomposition = decompose_channels(cmax, num_groups=6, bits=8)
    quantized, _ = quantize_decomposed(activation, decomposition)
    weight = rng.normal(size=(24, 8))
    w_scale = compute_scale(weight, 8, Granularity.PER_COLUMN)
    q_weight = quantize_symmetric(weight, w_scale, 8)

    msa = MultiScaleSystolicArray(rows=8, cols=8)
    order = decomposition.channel_order
    accumulators = msa.run_tile(quantized[:, order], q_weight[order], decomposition.group_sizes.tolist())
    hardware = accumulators * decomposition.group_scales[-1] * w_scale
    reference = implicit_requantized_matmul(quantized, decomposition, q_weight, w_scale)
    print("functional MSA vs algorithmic reference: max abs difference =",
          float(np.abs(hardware - reference).max()))
    print(f"  cycles: {msa.cycles} (including {msa.rescale_bubbles} one-cycle rescale bubbles)\n")


def main() -> None:
    print(render_table5(run_table5()), "\n")

    models = ("opt-6.7b-sim", "opt-66b-sim", "llama-2-7b-sim", "llama-2-70b-sim")
    print(render_figure10(run_figure10(models=models)), "\n")
    print(render_figure11(run_figure11(models=models)), "\n")
    print(render_figure13(run_figure13(models=("opt-6.7b-sim", "llama-2-70b-sim"))), "\n")

    functional_msa_demo()

    # A single-workload drill-down: where does the time go?
    shape = get_zoo_entry("opt-6.7b-sim").paper_shape
    result = simulate_on("Tender", shape, 2048, 2048, num_groups=8)  # a 2048-token prefill
    print(f"Tender on the OPT-6.7B prefill: {result.seconds * 1e3:.2f} ms, "
          f"{result.throughput_tops():.1f} TMAC/s, {result.energy_j:.3f} J")
    for gemm in result.gemms:
        bound = "memory" if gemm.memory_cycles > gemm.compute_cycles else "compute"
        print(f"  {gemm.name:18s} {gemm.total_cycles:>12d} cycles ({bound}-bound)")


if __name__ == "__main__":
    main()
