"""Area, power and energy models for the baseline and TensorDash designs."""

from repro._lazy import lazy_exports

__all__ = [
    "AreaModel",
    "AreaBreakdown",
    "PowerModel",
    "PowerBreakdown",
    "EnergyAccountant",
    "EnergyBreakdown",
    "EfficiencyReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.energy.area_model": ("AreaModel", "AreaBreakdown"),
    "repro.energy.power_model": ("PowerModel", "PowerBreakdown"),
    "repro.energy.accounting": (
        "EnergyAccountant", "EnergyBreakdown", "EfficiencyReport",
    ),
})
