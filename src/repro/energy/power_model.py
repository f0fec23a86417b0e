"""Power model for the compute logic (Table 3).

Power constants are calibrated to the paper's published breakdown for the
default FP32 configuration at 500 MHz in 65 nm; datatype and geometry
scaling follows the same component classes as the area model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import AcceleratorConfig
from repro.energy.area_model import pe_scale, width_scale


_FP32_COMPUTE_CORES_MW = 13910.0
_FP32_TRANSPOSERS_MW = 47.3
_FP32_SCHEDULER_BMUX_MW = 102.8
_FP32_AMUX_MW = 145.3

_MULTIPLIER_EXPONENT = 1.6
_LINEAR_EXPONENT = 1.0
_NO_SCALE_EXPONENT = 0.0


@dataclass
class PowerBreakdown:
    """Component power in mW for one design point."""

    compute_cores: float
    transposers: float
    schedulers_and_b_muxes: float
    a_muxes: float

    @property
    def total(self) -> float:
        """Total compute-logic power."""
        return (
            self.compute_cores
            + self.transposers
            + self.schedulers_and_b_muxes
            + self.a_muxes
        )

    def as_dict(self) -> Dict[str, float]:
        """Component name to power, for report tables."""
        return {
            "compute_cores": self.compute_cores,
            "transposers": self.transposers,
            "schedulers_and_b_muxes": self.schedulers_and_b_muxes,
            "a_muxes": self.a_muxes,
        }


class PowerModel:
    """Computes power breakdowns for baseline and TensorDash configurations."""

    def __init__(self, config: AcceleratorConfig | None = None):
        self.config = config or AcceleratorConfig()

    def _frequency_scale(self) -> float:
        return self.config.frequency_mhz / 500.0

    def baseline(self) -> PowerBreakdown:
        """Power of the dense baseline compute logic."""
        datatype = self.config.pe.datatype
        scale = pe_scale(self.config) * self._frequency_scale()
        return PowerBreakdown(
            compute_cores=_FP32_COMPUTE_CORES_MW
            * scale
            * width_scale(datatype, _MULTIPLIER_EXPONENT),
            transposers=_FP32_TRANSPOSERS_MW
            * self._frequency_scale()
            * width_scale(datatype, _LINEAR_EXPONENT),
            schedulers_and_b_muxes=0.0,
            a_muxes=0.0,
        )

    def tensordash(self) -> PowerBreakdown:
        """Power of the TensorDash compute logic."""
        base = self.baseline()
        datatype = self.config.pe.datatype
        scale = pe_scale(self.config) * self._frequency_scale()
        schedulers = _FP32_SCHEDULER_BMUX_MW * scale
        schedulers = 0.5 * schedulers + 0.5 * schedulers * width_scale(
            datatype, _LINEAR_EXPONENT
        )
        a_muxes = _FP32_AMUX_MW * scale * width_scale(datatype, _LINEAR_EXPONENT)
        return PowerBreakdown(
            compute_cores=base.compute_cores,
            transposers=base.transposers,
            schedulers_and_b_muxes=schedulers,
            a_muxes=a_muxes,
        )

    def power_overhead(self) -> float:
        """TensorDash-over-baseline compute power ratio (Table 3: 1.02x FP32)."""
        return self.tensordash().total / self.baseline().total
