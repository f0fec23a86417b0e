"""Per-event energy constants used by the energy accountant.

The constants are in the range CACTI (for the on-chip SRAM and the
scratchpads at 65 nm) and the Micron power calculator (for LPDDR4) produce;
the compute-side energy is derived directly from the Table 3 power numbers
and the 500 MHz clock so that the core-energy ratio reproduces the paper's
1.89x figure by construction of the model, with the memory-side energy
determining how much of that survives at the system level (the 1.6x
figure).
"""

from __future__ import annotations

from repro.core.config import AcceleratorConfig
from repro.energy.power_model import PowerModel

#: Large (256 KB-bank) on-chip AM/BM/CM access energy, pJ per byte.
SRAM_PJ_PER_BYTE = 1.1
#: Small PE-local scratchpad access energy, pJ per byte.
SCRATCHPAD_PJ_PER_BYTE = 0.18
#: Off-chip LPDDR4 transfer energy, pJ per byte.
DRAM_PJ_PER_BYTE = 48.0


class ComputeEnergyModel:
    """Energy consumed by the compute logic as a function of busy cycles."""

    def __init__(self, config: AcceleratorConfig | None = None):
        self.config = config or AcceleratorConfig()
        self.power = PowerModel(self.config)

    def _energy(self, power_mw: float, cycles: int) -> float:
        """Energy in picojoules for running at ``power_mw`` for ``cycles``."""
        seconds = cycles * self.config.cycle_time_ns * 1e-9
        watts = power_mw * 1e-3
        joules = watts * seconds
        return joules * 1e12

    def baseline_core_energy_pj(self, cycles: int) -> float:
        """Core energy of the dense baseline for a run of ``cycles``."""
        return self._energy(self.power.baseline().total, cycles)

    def tensordash_core_energy_pj(self, cycles: int, power_gated: bool = False) -> float:
        """Core energy of TensorDash for a run of ``cycles``.

        When ``power_gated`` the TensorDash-specific components draw no
        dynamic power and the design matches the baseline.
        """
        if power_gated:
            return self._energy(self.power.baseline().total, cycles)
        return self._energy(self.power.tensordash().total, cycles)
