"""Tests of the paper shapes, memory models, area/energy, and the end-to-end simulator."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.accelerator import (
    AcceleratorSimulator,
    HBMModel,
    IndexBuffer,
    MemoryConfig,
    ScratchpadModel,
    all_accelerators,
    build_accelerator,
    iso_area_pe_count,
    simulate_on,
    speedup_table,
    tender_area_table,
    total_area_power,
)
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.figure13 import run_figure13
from repro.models import ModelShape, get_zoo_entry

OPT_6_7B = get_zoo_entry("opt-6.7b-sim").paper_shape
#: Section V-A's workloads as ``(rows, context)``: a 2048-token prefill and one token after it.
PREFILL, GENERATE = (2048, 2048), (1, 2048)


class TestPaperShapes:
    def test_a_forward_covers_all_matmuls(self):
        sites = [site for site, *_ in OPT_6_7B.gemms(*PREFILL)]
        assert sites == ["qkv_proj", "attention_scores", "attention_values", "out_proj", "fc1", "fc2"]

    def test_prefill_macs_scale_with_model(self):
        small = simulate_on("Tender", OPT_6_7B, *PREFILL).total_macs
        large = simulate_on("Tender", get_zoo_entry("opt-66b-sim").paper_shape, *PREFILL).total_macs
        assert large > small * 3

    def test_generation_much_smaller_than_prefill(self):
        prefill = simulate_on("Tender", OPT_6_7B, *PREFILL).total_macs
        generation = simulate_on("Tender", OPT_6_7B, *GENERATE).total_macs
        assert generation < prefill / 100

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            get_zoo_entry("gpt-5-sim")

    def test_operand_bytes_scale_with_precision(self):
        four_bit = build_accelerator("Tender")
        eight_bit = dataclasses.replace(four_bit, int8_fraction=1.0)  # every operand 8 bits wide
        four, eight = (AcceleratorSimulator(model).simulate(OPT_6_7B, 256, 256) for model in (four_bit, eight_bit))
        assert eight.energy.dram_j == pytest.approx(2 * four.energy.dram_j)

    def test_the_lm_head_runs_once_per_forward(self):
        """The layer sites repeat ``num_layers`` times, the LM head does not."""
        bare = ModelShape(64, 128, 4, num_layers=3)
        with_head = ModelShape(64, 128, 4, num_layers=3, vocab=100)
        result = simulate_on("Tender", with_head, 5, 7)
        head = result.gemms[-1]
        assert (head.name, head.macs) == ("lm_head", 5 * 64 * 100)
        assert result.total_macs == simulate_on("Tender", bare, 5, 7).total_macs + head.macs

    def test_pricing_never_imports_into_serving(self):
        """``repro.serve`` and ``repro.models`` stay free of both cost models."""
        source = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {source!r}); import repro.serve, repro.models; "
            "print(sorted(m for m in sys.modules if m.startswith(('repro.gpu', 'repro.accelerator'))))"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestMemoryModels:
    def test_hbm_transfer_cycles_proportional_to_bytes(self):
        hbm = HBMModel(MemoryConfig())
        assert hbm.transfer_cycles(2_000_000) > hbm.transfer_cycles(1_000_000)
        assert hbm.transfer_cycles(0) == 0

    def test_hbm_rejects_negative_bytes(self):
        with pytest.raises(SimulationError):
            HBMModel(MemoryConfig()).transfer_cycles(-1)

    def test_scratchpad_capacity_check(self):
        scratchpad = ScratchpadModel(MemoryConfig(scratchpad_kib=512))
        assert scratchpad.fits(200 * 1024)
        assert not scratchpad.fits(400 * 1024)

    def test_index_buffer_holds_model_channel_indices(self):
        index_buffer = IndexBuffer(MemoryConfig())
        assert index_buffer.fits(8192)  # largest paper d_model
        assert not index_buffer.fits(10_000_000)


class TestAreaPower:
    def test_table5_totals_match_paper(self):
        totals = total_area_power(tender_area_table())
        assert totals["area_mm2"] == pytest.approx(3.98, abs=0.02)
        assert totals["power_w"] == pytest.approx(1.60, abs=0.02)

    def test_component_names(self):
        names = [row.component for row in tender_area_table()]
        assert "Systolic Array" in names and "Index Buffer" in names

    def test_iso_area_pe_count_inverse_to_pe_size(self):
        assert iso_area_pe_count(4096, 1.0, 2.0) == 2048
        with pytest.raises(ValueError):
            iso_area_pe_count(4096, 1.0, 0.0)


class TestAccelerators:
    def test_all_four_designs_build(self):
        names = [model.name for model in all_accelerators()]
        assert names == ["ANT", "OLAccel", "OliVe", "Tender"]

    def test_unknown_accelerator_rejected(self):
        with pytest.raises(ConfigurationError):
            build_accelerator("TPUv4")

    def test_baselines_have_fewer_pes_than_tender(self):
        tender = build_accelerator("Tender").config.systolic
        for name in ("ANT", "OLAccel", "OliVe"):
            other = build_accelerator(name).config.systolic
            assert other.rows * other.cols < tender.rows * tender.cols

    def test_ant_precision_mix_properties(self):
        ant = build_accelerator("ANT")
        assert ant.compute_multiplier > 1.0
        assert 4.0 < ant.effective_activation_bits < 8.0
        assert ant.mac_energy_pj() > build_accelerator("Tender").mac_energy_pj()


class TestSimulator:
    def test_tender_is_fastest(self):
        seconds = {
            name: simulate_on(name, OPT_6_7B, *PREFILL, num_groups=8 if name == "Tender" else 1).seconds
            for name in ("ANT", "OLAccel", "OliVe", "Tender")
        }
        assert seconds["Tender"] < seconds["OliVe"] < seconds["OLAccel"] < seconds["ANT"]

    def test_speedup_table_matches_paper_shape(self):
        table = speedup_table({"opt": OPT_6_7B}, *PREFILL)["opt"]
        assert table["ANT"] == pytest.approx(1.0)
        assert 1.2 < table["OLAccel"] < 2.0
        assert 1.5 < table["OliVe"] < 2.5
        assert 2.0 < table["Tender"] < 3.5

    def test_tender_energy_lowest(self):
        energies = {
            name: simulate_on(name, OPT_6_7B, *PREFILL, num_groups=8 if name == "Tender" else 1).energy_j
            for name in ("ANT", "OLAccel", "OliVe", "Tender")
        }
        assert energies["Tender"] < min(energies["ANT"], energies["OLAccel"], energies["OliVe"])

    def test_group_count_barely_affects_implicit_runtime(self):
        one = simulate_on("Tender", OPT_6_7B, *PREFILL, num_groups=1).seconds
        many = simulate_on("Tender", OPT_6_7B, *PREFILL, num_groups=16).seconds
        assert many < one * 1.02

    def test_explicit_requantization_slows_down(self):
        implicit = simulate_on("Tender", OPT_6_7B, *PREFILL, num_groups=16, implicit=True).seconds
        explicit = simulate_on("Tender", OPT_6_7B, *PREFILL, num_groups=16, implicit=False).seconds
        assert explicit > implicit * 1.2

    def test_throughput_reported(self):
        result = simulate_on("Tender", OPT_6_7B, *PREFILL, num_groups=8)
        assert result.throughput_tops() > 0
        assert result.total_macs == sum(m * k * n * count for _, m, k, n, count in OPT_6_7B.gemms(*PREFILL)) * 32

    #: ``(accelerator, model, (rows, context), num_groups, implicit, cycles, energy_j, total_macs,
    #: memory_cycles)`` — the last the sum of every GEMM's ``memory_cycles``.
    GOLDEN = [
        ("ANT", "opt-6.7b-sim", (2048, 2048), 1, True, 10361113824, 3.782191745047169, 14293651161088, 63939230),
        ("Tender", "opt-6.7b-sim", (2048, 2048), 8, True, 3719692288, 1.8420131587686401, 14293651161088, 42626155),
        ("ANT", "llama-2-70b-sim", (1, 2048), 1, True, 2523739040, 0.7791943637676801, 61740154880, 188640816),
        ("Tender", "llama-2-70b-sim", (1, 2048), 8, True, 999941120, 0.4060690120704, 61740154880, 125760546),
        ("Tender", "llama-2-13b-sim", (1024, 1024), 16, False, 4374855680, 1.635455598592, 10522669875200, 35180241),
        ("OliVe", "opt-66b-sim", (1024, 512), 1, True, 24348157120, 9.742026040410881, 67413806678016, 168455274),
        ("OLAccel", "opt-6.7b-sim", (4, 2048), 1, True, 176592192, 0.058904272535040006, 27917287424, 14264222),
    ]  # fmt: skip

    @pytest.mark.parametrize(
        "accelerator, model, workload, num_groups, implicit, expected", [(*row[:5], row[5:]) for row in GOLDEN]
    )
    def test_golden_outputs(self, accelerator, model, workload, num_groups, implicit, expected):
        """Exact output of the per-workload simulator this one replaced, measured before the move.

        The HBM model rounds each transfer up to whole cycles, so the bytes of
        all ``count x num_layers`` instances of a GEMM move in one transfer.
        No GEMM here is memory-bound, so pricing them layer by layer would
        leave ``cycles`` and ``energy_j`` alone and move only ``memory_cycles``.
        """
        shape = get_zoo_entry(model).paper_shape
        result = simulate_on(accelerator, shape, *workload, num_groups=num_groups, implicit=implicit)
        memory_cycles = sum(gemm.memory_cycles for gemm in result.gemms)
        assert (result.cycles, result.energy_j, result.total_macs, memory_cycles) == expected

    @pytest.mark.parametrize("num_groups", [0, -1, 2.5])
    def test_rejects_a_bad_group_count(self, num_groups):
        """Used to price 0 and -1 as one group, and 2.5 as a real number of groups."""
        with pytest.raises(ConfigurationError, match=f"num_groups must be an integer >= 1, got {num_groups}"):
            simulate_on("Tender", OPT_6_7B, *PREFILL, num_groups=num_groups)

    @pytest.mark.parametrize(
        "rows, context, bad", [(2.5, 16, "rows"), (0, 16, "rows"), (4, 16.5, "context"), (4, 0, "context")]
    )
    def test_rejects_a_bad_forward(self, rows, context, bad):
        """A fractional ``seq_len`` used to be priced."""
        with pytest.raises(ConfigurationError, match=f"{bad} must be an integer >= 1"):
            simulate_on("Tender", OPT_6_7B, rows, context)

    @pytest.mark.parametrize("group_count", [0, 1.5])
    def test_figure13_rejects_a_bad_group_count(self, group_count):
        """``group_counts=(0,)`` used to report explicit requantization at 1.00x, ``(1.5,)`` at 1.027x."""
        with pytest.raises(ConfigurationError, match=f"num_groups must be an integer >= 1, got {group_count}"):
            run_figure13(models=("opt-6.7b-sim",), group_counts=(group_count,))

    def test_speedup_table_needs_its_baseline(self):
        """Used to die with a bare ``KeyError: 'ANT'``."""
        with pytest.raises(ConfigurationError, match="baseline 'ANT'"):
            speedup_table({"opt": OPT_6_7B}, *PREFILL, accelerator_names=["Tender"], baseline="ANT")
