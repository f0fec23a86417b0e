"""Optimisers.

The paper trains with standard stochastic gradient descent (Eq. 10: per
mini-batch accumulation of weight gradients, scaled by the learning rate);
momentum SGD is included because the pruning-during-training methods
(sparse momentum in particular) depend on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimiser over a list of :class:`Parameter` objects."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()


class SGD(Optimizer):
    """Plain stochastic gradient descent (paper Eq. 10)."""

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            parameter.data -= self.lr * parameter.grad


class MomentumSGD(Optimizer):
    """SGD with classical momentum and optional weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            velocity = self.velocities.get(id(parameter))
            if velocity is None:
                velocity = np.zeros_like(parameter.data)
            velocity = self.momentum * velocity + grad
            self.velocities[id(parameter)] = velocity
            parameter.data -= self.lr * velocity

    def velocity_of(self, parameter: Parameter) -> np.ndarray:
        """Momentum buffer of a parameter (used by sparse-momentum pruning)."""
        velocity = self.velocities.get(id(parameter))
        if velocity is None:
            return np.zeros_like(parameter.data)
        return velocity
