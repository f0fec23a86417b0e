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
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        # A bitwise select, not a multiply: ``grad * 0`` is -0.0 for a
        # negative gradient, and masked positions must read +0.0.  The
        # negated mask is 0 or -1, whose sign extension sets every bit.
        bits = grad_out.view(f"i{grad_out.itemsize}")
        keep = np.negative(self._mask.view(np.int8))
        return np.bitwise_and(bits, keep, dtype=bits.dtype).view(grad_out.dtype)
