"""Tests for the area, power and energy accounting models."""

import pytest

from repro.core.config import AcceleratorConfig, PEConfig, bfloat16_config, paper_default_config
from repro.energy.accounting import EnergyAccountant, EnergyBreakdown
from repro.energy.area_model import AreaModel
from repro.energy.energy_model import (
    DRAM_PJ_PER_BYTE,
    SCRATCHPAD_PJ_PER_BYTE,
    SRAM_PJ_PER_BYTE,
    ComputeEnergyModel,
)
from repro.energy.power_model import PowerModel
from repro.memory.traffic import MemoryTraffic


class TestAreaModel:
    def test_fp32_component_breakdown_matches_table3(self):
        model = AreaModel(paper_default_config())
        tensordash = model.tensordash()
        assert tensordash.compute_cores == pytest.approx(30.41, rel=0.01)
        assert tensordash.transposers == pytest.approx(0.38, rel=0.01)
        assert tensordash.schedulers_and_b_muxes == pytest.approx(0.91, rel=0.01)
        assert tensordash.a_muxes == pytest.approx(1.73, rel=0.01)
        assert tensordash.compute_total == pytest.approx(33.44, rel=0.01)

    def test_fp32_baseline_total_matches_table3(self):
        model = AreaModel(paper_default_config())
        assert model.baseline().compute_total == pytest.approx(30.80, rel=0.01)

    def test_fp32_compute_overhead_is_about_nine_percent(self):
        overhead = AreaModel(paper_default_config()).compute_overhead()
        assert overhead == pytest.approx(1.09, abs=0.01)

    def test_bfloat16_compute_overhead_is_larger_but_small(self):
        fp32 = AreaModel(paper_default_config()).compute_overhead()
        bf16 = AreaModel(bfloat16_config()).compute_overhead()
        assert bf16 > fp32
        assert 1.10 <= bf16 <= 1.20

    def test_chip_overhead_is_negligible_with_memories(self):
        overhead = AreaModel(paper_default_config()).chip_overhead()
        assert 1.0 <= overhead <= 1.01

    def test_baseline_has_no_tensordash_components(self):
        baseline = AreaModel().baseline()
        assert baseline.schedulers_and_b_muxes == 0.0
        assert baseline.a_muxes == 0.0

    def test_area_scales_with_pe_count(self):
        small = AreaModel(AcceleratorConfig(num_tiles=8)).baseline().compute_cores
        large = AreaModel(AcceleratorConfig(num_tiles=16)).baseline().compute_cores
        assert large == pytest.approx(2 * small)

    def test_as_dict_lists_all_components(self):
        breakdown = AreaModel().tensordash()
        assert set(breakdown.as_dict()) == {
            "compute_cores",
            "transposers",
            "schedulers_and_b_muxes",
            "a_muxes",
            "on_chip_sram",
            "scratchpads",
        }


class TestPowerModel:
    def test_fp32_component_breakdown_matches_table3(self):
        model = PowerModel(paper_default_config())
        tensordash = model.tensordash()
        assert tensordash.compute_cores == pytest.approx(13910, rel=0.01)
        assert tensordash.transposers == pytest.approx(47.3, rel=0.01)
        assert tensordash.schedulers_and_b_muxes == pytest.approx(102.8, rel=0.01)
        assert tensordash.a_muxes == pytest.approx(145.3, rel=0.01)
        assert tensordash.total == pytest.approx(14205, rel=0.01)

    def test_fp32_power_overhead_is_about_two_percent(self):
        overhead = PowerModel(paper_default_config()).power_overhead()
        assert overhead == pytest.approx(1.02, abs=0.01)

    def test_bfloat16_power_overhead_is_modest(self):
        overhead = PowerModel(bfloat16_config()).power_overhead()
        assert 1.02 <= overhead <= 1.08

    def test_power_scales_with_frequency(self):
        slow = PowerModel(AcceleratorConfig(frequency_mhz=250)).baseline().total
        fast = PowerModel(AcceleratorConfig(frequency_mhz=500)).baseline().total
        assert fast == pytest.approx(2 * slow)


class TestComputeEnergy:
    def test_energy_proportional_to_cycles(self):
        model = ComputeEnergyModel()
        assert model.baseline_core_energy_pj(2000) == pytest.approx(
            2 * model.baseline_core_energy_pj(1000)
        )

    def test_core_efficiency_matches_speedup_over_power_overhead(self):
        """With a speedup of S, core energy efficiency should be about S/1.02."""
        model = ComputeEnergyModel()
        baseline_cycles = 10000
        speedup = 1.95
        tensordash_cycles = int(baseline_cycles / speedup)
        ratio = model.baseline_core_energy_pj(baseline_cycles) / model.tensordash_core_energy_pj(
            tensordash_cycles
        )
        assert ratio == pytest.approx(speedup / 1.021, rel=0.02)

    def test_power_gated_energy_equals_baseline(self):
        model = ComputeEnergyModel()
        assert model.tensordash_core_energy_pj(1000, power_gated=True) == pytest.approx(
            model.baseline_core_energy_pj(1000)
        )


class TestEnergyAccountant:
    def _traffic(self):
        return MemoryTraffic(dram_bytes=10_000, sram_bytes=100_000, scratchpad_bytes=400_000)

    def test_breakdown_has_three_components(self):
        accountant = EnergyAccountant()
        breakdown = accountant.baseline_energy(1000, self._traffic())
        fractions = breakdown.fractions()
        assert set(fractions) == {"core", "sram", "dram"}
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_memory_is_charged_at_the_per_byte_constants(self):
        breakdown = EnergyAccountant().baseline_energy(0, self._traffic())
        assert breakdown.core_pj == 0
        assert breakdown.sram_pj == (
            100_000 * SRAM_PJ_PER_BYTE + 400_000 * SCRATCHPAD_PJ_PER_BYTE
        )
        assert breakdown.dram_pj == 10_000 * DRAM_PJ_PER_BYTE

    def test_efficiency_improves_with_speedup(self):
        accountant = EnergyAccountant()
        slow = accountant.efficiency(10000, 10000, self._traffic())
        fast = accountant.efficiency(10000, 5000, self._traffic())
        assert fast.core_efficiency > slow.core_efficiency
        assert fast.overall_efficiency > slow.overall_efficiency

    def test_overall_efficiency_below_core_efficiency(self):
        """Memory energy is shared, so the overall ratio is diluted."""
        accountant = EnergyAccountant()
        report = accountant.efficiency(10000, 5000, self._traffic())
        assert report.overall_efficiency < report.core_efficiency
        assert report.overall_efficiency > 1.0

    def test_no_speedup_means_slight_penalty(self):
        """Without speedup TensorDash pays its 2% power overhead."""
        accountant = EnergyAccountant()
        report = accountant.efficiency(10000, 10000, self._traffic())
        assert 0.97 < report.overall_efficiency < 1.0

    def test_power_gating_removes_the_penalty(self):
        accountant = EnergyAccountant()
        report = accountant.efficiency(10000, 10000, self._traffic(), power_gated=True)
        assert report.overall_efficiency == pytest.approx(1.0)

    def test_breakdown_addition(self):
        a = EnergyBreakdown(core_pj=1, sram_pj=2, dram_pj=3)
        b = EnergyBreakdown(core_pj=10, sram_pj=20, dram_pj=30)
        total = a + b
        assert total.total_pj == pytest.approx(66)

    def test_empty_breakdown_fractions(self):
        assert EnergyBreakdown(0, 0, 0).fractions() == {"core": 0.0, "sram": 0.0, "dram": 0.0}
