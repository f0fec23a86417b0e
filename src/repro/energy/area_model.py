"""Silicon area model (Table 3 and the Section 4.3 / 4.4 discussion).

The paper implemented both designs in Verilog and synthesised them for a
65 nm TSMC node; this model reproduces the component-level accounting with
per-component constants calibrated to the published breakdown:

========================  ===========  ===========
component (FP32)          area (mm2)   power (mW)
========================  ===========  ===========
compute cores                  30.41       13,910
transposers                     0.38         47.3
schedulers + B-side muxes       0.91        102.8
A-side muxes                    1.73        145.3
========================  ===========  ===========

The bfloat16 variant scales each component according to how its circuitry
scales with datatype width: multiplier cores roughly quadratically, value
multiplexers and zero comparators linearly, and the priority encoders of
the scheduler not at all (their width is set by the lane count, not the
datatype).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import AcceleratorConfig, DATATYPE_BITS


# Calibration constants for the paper's default 256-PE FP32 configuration.
_FP32_COMPUTE_CORES_MM2 = 30.41
_FP32_TRANSPOSERS_MM2 = 0.38
_FP32_SCHEDULER_BMUX_MM2 = 0.91
_FP32_AMUX_MM2 = 1.73

# On-chip memories (Section 4.3): each of AM, BM and CM needs 192 mm2 and
# the scratchpads a further 17 mm2 in total.
_AM_BM_CM_EACH_MM2 = 192.0
_SCRATCHPADS_TOTAL_MM2 = 17.0

# Datatype scaling exponents per component class.
_MULTIPLIER_EXPONENT = 1.75   # close to quadratic in operand width
_LINEAR_EXPONENT = 1.0        # muxes, comparators, staging storage
_NO_SCALE_EXPONENT = 0.0      # priority encoders


def width_scale(datatype: str, exponent: float) -> float:
    """Scale factor of a component whose cost grows as ``bits ** exponent``,
    relative to FP32 (shared with :mod:`repro.energy.power_model`)."""
    bits = DATATYPE_BITS[datatype]
    return (bits / 32.0) ** exponent


def pe_scale(config: AcceleratorConfig) -> float:
    """Scale factor for a non-default number of PEs or lanes."""
    default_macs = 256 * 16
    return config.macs_per_cycle / default_macs


@dataclass
class AreaBreakdown:
    """Component areas in mm2 for one design point."""

    compute_cores: float
    transposers: float
    schedulers_and_b_muxes: float
    a_muxes: float
    on_chip_sram: float
    scratchpads: float

    @property
    def compute_total(self) -> float:
        """Compute-logic area only (the paper's Table 3 scope)."""
        return (
            self.compute_cores
            + self.transposers
            + self.schedulers_and_b_muxes
            + self.a_muxes
        )

    @property
    def chip_total(self) -> float:
        """Whole-chip area including the on-chip memories."""
        return self.compute_total + self.on_chip_sram + self.scratchpads

    def as_dict(self) -> Dict[str, float]:
        """Component name to area, for report tables."""
        return {
            "compute_cores": self.compute_cores,
            "transposers": self.transposers,
            "schedulers_and_b_muxes": self.schedulers_and_b_muxes,
            "a_muxes": self.a_muxes,
            "on_chip_sram": self.on_chip_sram,
            "scratchpads": self.scratchpads,
        }


class AreaModel:
    """Computes area breakdowns for baseline and TensorDash configurations."""

    def __init__(self, config: AcceleratorConfig | None = None):
        self.config = config or AcceleratorConfig()

    def _sram_scale(self) -> float:
        datatype_scale = width_scale(self.config.pe.datatype, _LINEAR_EXPONENT)
        tile_scale = self.config.num_tiles / 16
        return datatype_scale * tile_scale

    def baseline(self) -> AreaBreakdown:
        """Area of the dense baseline accelerator."""
        datatype = self.config.pe.datatype
        cores = (
            _FP32_COMPUTE_CORES_MM2
            * pe_scale(self.config)
            * width_scale(datatype, _MULTIPLIER_EXPONENT)
        )
        transposers = _FP32_TRANSPOSERS_MM2 * width_scale(datatype, _LINEAR_EXPONENT)
        return AreaBreakdown(
            compute_cores=cores,
            transposers=transposers,
            schedulers_and_b_muxes=0.0,
            a_muxes=0.0,
            on_chip_sram=3 * _AM_BM_CM_EACH_MM2 * self._sram_scale(),
            scratchpads=_SCRATCHPADS_TOTAL_MM2 * self._sram_scale(),
        )

    def tensordash(self) -> AreaBreakdown:
        """Area of the TensorDash accelerator (baseline + sparsity front-end)."""
        base = self.baseline()
        datatype = self.config.pe.datatype
        schedulers = (
            _FP32_SCHEDULER_BMUX_MM2
            * pe_scale(self.config)
            * width_scale(datatype, _NO_SCALE_EXPONENT)
        )
        # Roughly half the scheduler+B-mux block is value multiplexers which
        # do scale with datatype width; fold that in at 50/50.
        schedulers = 0.5 * schedulers + 0.5 * schedulers * width_scale(
            datatype, _LINEAR_EXPONENT
        )
        a_muxes = (
            _FP32_AMUX_MM2
            * pe_scale(self.config)
            * width_scale(datatype, _LINEAR_EXPONENT)
        )
        return AreaBreakdown(
            compute_cores=base.compute_cores,
            transposers=base.transposers,
            schedulers_and_b_muxes=schedulers,
            a_muxes=a_muxes,
            on_chip_sram=base.on_chip_sram,
            scratchpads=base.scratchpads,
        )

    def compute_overhead(self) -> float:
        """TensorDash-over-baseline compute area ratio (Table 3: 1.09x FP32)."""
        return self.tensordash().compute_total / self.baseline().compute_total

    def chip_overhead(self) -> float:
        """Whole-chip area ratio including on-chip memories (~1.0x)."""
        return self.tensordash().chip_total / self.baseline().chip_total
