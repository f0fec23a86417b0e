"""Area, power and energy models for the baseline and TensorDash designs."""

from repro.energy.area_model import AreaModel, AreaBreakdown
from repro.energy.power_model import PowerModel, PowerBreakdown
from repro.energy.accounting import EnergyAccountant, EnergyBreakdown, EfficiencyReport

__all__ = [
    "AreaModel",
    "AreaBreakdown",
    "PowerModel",
    "PowerBreakdown",
    "EnergyAccountant",
    "EnergyBreakdown",
    "EfficiencyReport",
]
