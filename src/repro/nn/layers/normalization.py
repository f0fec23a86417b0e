"""Normalisation layers.

The paper notes (Section 4.1) that DenseNet-121's batch-normalisation layers
between a convolution and the following ReLU "absorb" all sparsity in the
gradients flowing into the W*G convolution; modelling BN faithfully is what
reproduces that effect.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter


class BatchNorm2D(Module):
    """Batch normalisation over ``(N, C, H, W)`` tensors, per channel."""

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = self.register_parameter(
            "gamma", Parameter(init.ones((num_features,)), name=f"{self.name}.gamma")
        )
        self.beta = self.register_parameter(
            "beta", Parameter(init.zeros((num_features,)), name=f"{self.name}.beta")
        )
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(np.float32)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var

        # Each step is in place: the same expressions in the same order as
        # ``gamma * ((x - mean) / std) + beta``, without a full-size
        # temporary per operator.
        mean_b = mean.reshape(1, -1, 1, 1)
        std_b = np.sqrt(var + self.eps).reshape(1, -1, 1, 1)
        x_hat = x - mean_b
        x_hat /= std_b
        out = self.gamma.data.reshape(1, -1, 1, 1) * x_hat
        out += self.beta.data.reshape(1, -1, 1, 1)
        self._cache = (x_hat, std_b)
        return out.astype(np.float32, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x_hat, std_b = self._cache
        scratch = grad_out * x_hat
        grad_gamma = scratch.sum(axis=(0, 2, 3))
        grad_beta = grad_out.sum(axis=(0, 2, 3))
        self.gamma.accumulate_grad(grad_gamma)
        self.beta.accumulate_grad(grad_beta)

        # grad_input = (grad_xhat - mean(grad_xhat)
        #               - x_hat * mean(grad_xhat * x_hat)) / std,
        # evaluated in that order in two full-size buffers.
        gamma_b = self.gamma.data.reshape(1, -1, 1, 1)
        grad_input = grad_out * gamma_b
        mean_grad = grad_input.mean(axis=(0, 2, 3), keepdims=True)
        np.multiply(grad_input, x_hat, out=scratch)
        mean_proj = scratch.mean(axis=(0, 2, 3), keepdims=True)
        np.multiply(x_hat, mean_proj, out=scratch)
        grad_input -= mean_grad
        grad_input -= scratch
        grad_input /= std_b
        return grad_input.astype(np.float32, copy=False)
