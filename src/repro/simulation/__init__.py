"""Simulation layer: operand-stream extraction, cycle simulation and runners."""

from repro.simulation.streams import operation_streams
from repro.simulation.cycle_sim import LayerSimulator, LayerResult
from repro.simulation.inference import FullyConnectedInference, conv_activation_groups
from repro.simulation.runner import ExperimentRunner, ModelResult, simulate_model_training

__all__ = [
    "operation_streams",
    "LayerSimulator",
    "LayerResult",
    "FullyConnectedInference",
    "conv_activation_groups",
    "ExperimentRunner",
    "ModelResult",
    "simulate_model_training",
]
