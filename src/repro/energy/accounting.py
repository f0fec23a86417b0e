"""Energy accounting: combine cycle counts and memory traffic into the
core / SRAM / DRAM breakdown and efficiency ratios of Figs. 15 and 16.

The byte counts come straight from the simulation results — callers pass
:meth:`repro.simulation.runner.ModelResult.effective_traffic`, whose DRAM
bytes are exactly what the memory-hierarchy bandwidth model enforced
(zero compression and capacity spill included).  Energy and performance
therefore always agree on how many bytes moved; nothing is recounted
here."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import AcceleratorConfig
from repro.energy.energy_model import (
    DRAM_PJ_PER_BYTE,
    SCRATCHPAD_PJ_PER_BYTE,
    SRAM_PJ_PER_BYTE,
    ComputeEnergyModel,
)
from repro.memory.traffic import MemoryTraffic


@dataclass
class EnergyBreakdown:
    """Energy in picojoules split into the paper's three components."""

    core_pj: float
    sram_pj: float
    dram_pj: float

    @property
    def total_pj(self) -> float:
        return self.core_pj + self.sram_pj + self.dram_pj

    def fractions(self) -> Dict[str, float]:
        """Normalised shares of each component (the Fig. 16 stacking)."""
        total = self.total_pj
        if total == 0:
            return {"core": 0.0, "sram": 0.0, "dram": 0.0}
        return {
            "core": self.core_pj / total,
            "sram": self.sram_pj / total,
            "dram": self.dram_pj / total,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            core_pj=self.core_pj + other.core_pj,
            sram_pj=self.sram_pj + other.sram_pj,
            dram_pj=self.dram_pj + other.dram_pj,
        )

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly component energies (plus the total)."""
        return {
            "core_pj": self.core_pj,
            "sram_pj": self.sram_pj,
            "dram_pj": self.dram_pj,
            "total_pj": self.total_pj,
        }


@dataclass
class EfficiencyReport:
    """Baseline-over-TensorDash energy ratios (higher is better for TensorDash)."""

    core_efficiency: float
    overall_efficiency: float
    baseline: EnergyBreakdown
    tensordash: EnergyBreakdown

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (used by study records and benchmarks)."""
        return {
            "core_efficiency": self.core_efficiency,
            "overall_efficiency": self.overall_efficiency,
            "baseline": self.baseline.as_dict(),
            "tensordash": self.tensordash.as_dict(),
        }


class EnergyAccountant:
    """Turns simulation outputs into energy breakdowns and efficiency ratios.

    Memory accesses are charged at the per-byte constants of
    :mod:`repro.energy.energy_model`.
    """

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.config = config or AcceleratorConfig()
        self.compute = ComputeEnergyModel(self.config)

    def _memory_energy(self, traffic: MemoryTraffic) -> Dict[str, float]:
        sram = (
            traffic.sram_bytes * SRAM_PJ_PER_BYTE
            + traffic.scratchpad_bytes * SCRATCHPAD_PJ_PER_BYTE
        )
        dram = traffic.dram_bytes * DRAM_PJ_PER_BYTE
        return {"sram": sram, "dram": dram}

    def baseline_energy(self, cycles: int, traffic: MemoryTraffic) -> EnergyBreakdown:
        """Energy of the dense baseline for one operation or run."""
        memory = self._memory_energy(traffic)
        return EnergyBreakdown(
            core_pj=self.compute.baseline_core_energy_pj(cycles),
            sram_pj=memory["sram"],
            dram_pj=memory["dram"],
        )

    def tensordash_energy(
        self, cycles: int, traffic: MemoryTraffic, power_gated: bool = False
    ) -> EnergyBreakdown:
        """Energy of TensorDash for one operation or run."""
        memory = self._memory_energy(traffic)
        return EnergyBreakdown(
            core_pj=self.compute.tensordash_core_energy_pj(cycles, power_gated),
            sram_pj=memory["sram"],
            dram_pj=memory["dram"],
        )

    def efficiency(
        self,
        baseline_cycles: int,
        tensordash_cycles: int,
        traffic: MemoryTraffic,
        power_gated: bool = False,
    ) -> EfficiencyReport:
        """Core and overall efficiency of TensorDash over the baseline.

        The two designs share the memory model and move the same bytes,
        so ``traffic`` is charged to both.
        """
        baseline = self.baseline_energy(baseline_cycles, traffic)
        tensordash = self.tensordash_energy(tensordash_cycles, traffic, power_gated)
        core_ratio = (
            baseline.core_pj / tensordash.core_pj if tensordash.core_pj else 1.0
        )
        overall_ratio = (
            baseline.total_pj / tensordash.total_pj if tensordash.total_pj else 1.0
        )
        return EfficiencyReport(
            core_efficiency=core_ratio,
            overall_efficiency=overall_ratio,
            baseline=baseline,
            tensordash=tensordash,
        )
