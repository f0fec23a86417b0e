"""Operand-trace collection: the paper's trace methodology.

"For each epoch, we sample one randomly selected batch and trace the
operands of the three convolutions: the filters, the input activations per
layer, and the output gradients per layer."  This module snapshots exactly
those operands from the traceable layers of a model after a forward +
backward pass, storing boolean non-zero masks (the only thing the
scheduler's behaviour depends on) plus sparsity summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.nn.module import Module


@dataclass
class LayerTrace:
    """Traced operands of one traceable layer for one sampled batch.

    Masks are boolean non-zero indicators; ``None`` when the corresponding
    operand was not produced (e.g. gradients before a backward pass).
    """

    layer_name: str
    layer_type: str                      # "conv" or "fc"
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    weight_mask: Optional[np.ndarray] = None
    activation_mask: Optional[np.ndarray] = None
    output_gradient_mask: Optional[np.ndarray] = None
    weight_sparsity: float = 0.0
    activation_sparsity: float = 0.0
    gradient_sparsity: float = 0.0
    macs: int = 0

    def operand_sparsity(self, operation: str) -> float:
        """Sparsity of the targeted operand for one of the three operations."""
        if operation == "AxW":
            return self.activation_sparsity
        if operation == "AxG":
            return self.gradient_sparsity
        if operation == "WxG":
            return max(self.gradient_sparsity, self.activation_sparsity)
        raise ValueError(f"unknown operation {operation!r}")


@dataclass
class EpochTrace:
    """All layer traces for one sampled batch of one epoch."""

    epoch: int
    layers: List[LayerTrace] = field(default_factory=list)

    def mean_sparsity(self, operand: str) -> float:
        """Mean sparsity of one operand kind across traced layers."""
        values = {
            "activations": [t.activation_sparsity for t in self.layers],
            "gradients": [t.gradient_sparsity for t in self.layers],
            "weights": [t.weight_sparsity for t in self.layers],
        }[operand]
        return float(np.mean(values)) if values else 0.0


@dataclass
class TrainingTrace:
    """Traces across a whole training run (one EpochTrace per epoch)."""

    model_name: str
    epochs: List[EpochTrace] = field(default_factory=list)

    def final_epoch(self) -> EpochTrace:
        """The most recent epoch's trace."""
        if not self.epochs:
            raise ValueError("training trace is empty")
        return self.epochs[-1]

    def epoch_at_progress(self, fraction: float) -> EpochTrace:
        """The epoch trace closest to a given fraction of training progress."""
        if not self.epochs:
            raise ValueError("training trace is empty")
        index = int(round(fraction * (len(self.epochs) - 1)))
        index = min(max(index, 0), len(self.epochs) - 1)
        return self.epochs[index]


def _sparsity(tensor: np.ndarray) -> float:
    if tensor.size == 0:
        return 0.0
    return 1.0 - np.count_nonzero(tensor) / tensor.size


class TraceCollector:
    """Snapshots operand masks from a model's traceable layers.

    Parameters
    ----------
    max_batch:
        Trace at most this many samples per layer (operand statistics are
        per-sample phenomena, so a few samples suffice).
    """

    def __init__(self, max_batch: Optional[int] = 4):
        self.max_batch = max_batch

    def _clip(self, tensor: np.ndarray) -> np.ndarray:
        # Only convolutional operands (4D, batch x channels x H x W) are
        # clipped: a handful of samples already contributes thousands of
        # windows.  Fully-connected operands are kept whole because their
        # batch dimension *is* the reduction dimension of the weight-gradient
        # computation and clipping it would understate that operation.
        if self.max_batch is None or tensor.ndim != 4:
            return tensor
        if tensor.shape[0] <= self.max_batch:
            return tensor
        return tensor[: self.max_batch]

    def collect(self, model: Module, epoch: int) -> EpochTrace:
        """Snapshot all traceable layers after a forward/backward pass."""
        # Imported here so that loading a stored trace needs no repro.nn.
        from repro.nn.layers.conv import Conv2D

        trace = EpochTrace(epoch=epoch)
        for layer in model.traceable_modules():
            operands = layer.trace_operands()
            weights = operands.get("weights")
            activations = operands.get("activations")
            gradients = operands.get("output_gradients")

            if isinstance(layer, Conv2D):
                layer_type = "conv"
                kernel, stride, padding = layer.kernel_size, layer.stride, layer.padding
            else:
                layer_type = "fc"
                kernel, stride, padding = 1, 1, 0

            record = LayerTrace(
                layer_name=layer.name,
                layer_type=layer_type,
                kernel=kernel,
                stride=stride,
                padding=padding,
                weight_sparsity=_sparsity(weights) if weights is not None else 0.0,
                activation_sparsity=_sparsity(activations) if activations is not None else 0.0,
                gradient_sparsity=_sparsity(gradients) if gradients is not None else 0.0,
            )
            if activations is not None and weights is not None:
                if layer_type == "conv" and activations.ndim == 4:
                    n, _, h, w = activations.shape
                    out_h = (h + 2 * padding - kernel) // stride + 1
                    out_w = (w + 2 * padding - kernel) // stride + 1
                    record.macs = int(n * out_h * out_w * np.prod(weights.shape))
                else:
                    record.macs = int(activations.shape[0]) * int(np.prod(weights.shape))
            if weights is not None:
                record.weight_mask = weights != 0
            if activations is not None:
                record.activation_mask = self._clip(activations) != 0
            if gradients is not None:
                record.output_gradient_mask = self._clip(gradients) != 0
            trace.layers.append(record)
        return trace
