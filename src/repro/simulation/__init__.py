"""Simulation layer: operand-stream extraction, cycle simulation and runners."""

from repro.simulation.streams import (
    StreamExtractor,
    forward_streams,
    input_gradient_streams,
    weight_gradient_streams,
)
from repro.simulation.cycle_sim import LayerSimulator, LayerResult, OperationKind
from repro.simulation.inference import FullyConnectedInference, conv_activation_groups
from repro.simulation.runner import ExperimentRunner, ModelResult, simulate_model_training

__all__ = [
    "StreamExtractor",
    "forward_streams",
    "input_gradient_streams",
    "weight_gradient_streams",
    "LayerSimulator",
    "LayerResult",
    "OperationKind",
    "FullyConnectedInference",
    "conv_activation_groups",
    "ExperimentRunner",
    "ModelResult",
    "simulate_model_training",
]
