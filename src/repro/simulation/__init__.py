"""Simulation layer: operand-stream extraction, cycle simulation and runners."""

from repro._lazy import lazy_exports

__all__ = [
    "operation_streams",
    "LayerSimulator",
    "LayerResult",
    "ExperimentRunner",
    "ModelResult",
    "simulate_model_training",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.streams": ("operation_streams",),
    "repro.simulation.cycle_sim": ("LayerSimulator", "LayerResult"),
    "repro.simulation.runner": (
        "ExperimentRunner", "ModelResult", "simulate_model_training",
    ),
})
