"""Activation layers.

ReLU is the single most important layer for this paper: it is what creates
sparsity in the activations during the forward pass and, because its
backward pass masks gradients at the same positions, in the output
gradients during back-propagation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(x.dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        return np.where(self._mask, grad_out, 0.0).astype(grad_out.dtype, copy=False)
