"""Shared infrastructure for pruning-during-training methods."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.nn.module import Module, Parameter


def prunable_parameters(model: Module) -> List[Parameter]:
    """Weights eligible for pruning: conv/linear weights, not biases or BN."""
    parameters = []
    for name, parameter in model.named_parameters():
        if name.endswith("weight") and parameter.data.ndim >= 2:
            parameters.append(parameter)
    return parameters


class MaskedPruner:
    """Base class managing per-parameter binary masks.

    Subclasses decide *which* weights are masked; this class applies the
    masks after every optimiser step so pruned weights stay exactly zero
    (the property TensorDash exploits) and reports sparsity statistics.
    """

    def __init__(self, target_sparsity: float = 0.9, warmup_steps: int = 0):
        if not 0.0 <= target_sparsity < 1.0:
            raise ValueError(
                f"target_sparsity must be in [0, 1), got {target_sparsity}"
            )
        self.target_sparsity = target_sparsity
        self.warmup_steps = warmup_steps
        self.masks: Dict[int, np.ndarray] = {}
        self._parameters: List[Parameter] = []

    # -- lifecycle -----------------------------------------------------------
    def attach(self, model: Module) -> None:
        """Bind to a model's prunable parameters and initialise dense masks."""
        self._parameters = prunable_parameters(model)
        for parameter in self._parameters:
            self.masks[id(parameter)] = np.ones_like(parameter.data, dtype=bool)

    def apply_masks(self) -> None:
        """Zero out every weight currently masked off."""
        for parameter in self._parameters:
            mask = self.masks.get(id(parameter))
            if mask is not None:
                parameter.data *= mask

    # -- statistics ------------------------------------------------------------
    def weight_sparsity(self) -> float:
        """Overall fraction of pruned (zero-masked) weights."""
        total = 0
        pruned = 0
        for parameter in self._parameters:
            mask = self.masks.get(id(parameter))
            if mask is None:
                continue
            total += mask.size
            pruned += int(np.count_nonzero(~mask))
        return pruned / total if total else 0.0

    # -- subclass interface ------------------------------------------------------
    def update_masks(self, epoch: int, step: int) -> None:
        """Recompute masks; implemented by subclasses."""
        raise NotImplementedError

    def __call__(self, model: Module, epoch: int, step: int) -> None:
        """Training hook: attach lazily, update masks, re-apply them."""
        if not self._parameters:
            self.attach(model)
        if step >= self.warmup_steps:
            self.update_masks(epoch, step)
        self.apply_masks()
