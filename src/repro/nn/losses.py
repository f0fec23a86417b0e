"""Loss functions producing the gradients that seed the backward pass."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels."""

    def __init__(self):
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        probs = softmax(logits)
        labels = np.asarray(labels, dtype=np.int64)
        n = logits.shape[0]
        eps = 1e-12
        loss = -np.log(probs[np.arange(n), labels] + eps).mean()
        self._cache = (probs, labels)
        return float(loss)

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        probs, labels = self._cache
        n = probs.shape[0]
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad / n).astype(np.float32)

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)
