"""Tests for loss functions and optimisers."""

import numpy as np
import pytest

from repro.nn import Linear, Sequential
from repro.nn.losses import CrossEntropyLoss, softmax
from repro.nn.module import Parameter
from repro.nn.optim import SGD, MomentumSGD


class TestSoftmaxAndCrossEntropy:
    def test_softmax_sums_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 10))
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_is_shift_invariant(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_cross_entropy_of_perfect_prediction_is_small(self):
        loss = CrossEntropyLoss()
        logits = np.array([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        value = loss(logits, np.array([0, 1]))
        assert value < 1e-6

    def test_cross_entropy_gradient_matches_softmax_minus_onehot(self):
        loss = CrossEntropyLoss()
        logits = np.random.default_rng(2).normal(size=(4, 5))
        labels = np.array([0, 1, 2, 3])
        loss(logits, labels)
        grad = loss.backward()
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(4), labels] = 1.0
        assert np.allclose(grad, (probs - onehot) / 4)

    def test_gradient_descent_on_loss_reduces_it(self):
        rng = np.random.default_rng(3)
        model = Sequential([Linear(8, 4, rng=rng)])
        optimizer = SGD(model.parameters(), lr=0.5)
        loss = CrossEntropyLoss()
        x = rng.normal(size=(16, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=16)
        first = None
        last = None
        for _ in range(30):
            model.zero_grad()
            logits = model(x)
            value = loss(logits, labels)
            if first is None:
                first = value
            model.backward(loss.backward())
            optimizer.step()
            last = value
        assert last < first

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()


class TestOptimizers:
    def _quadratic_parameter(self):
        return Parameter(np.array([5.0, -3.0], dtype=np.float32))

    def test_sgd_moves_against_gradient(self):
        parameter = self._quadratic_parameter()
        optimizer = SGD([parameter], lr=0.1)
        parameter.accumulate_grad(2 * parameter.data)
        optimizer.step()
        assert np.all(np.abs(parameter.data) < np.array([5.0, 3.0]))

    def test_sgd_converges_on_quadratic(self):
        parameter = self._quadratic_parameter()
        optimizer = SGD([parameter], lr=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            parameter.accumulate_grad(2 * parameter.data)
            optimizer.step()
        assert np.allclose(parameter.data, 0.0, atol=1e-4)

    def test_momentum_converges_on_quadratic(self):
        parameter = self._quadratic_parameter()
        optimizer = MomentumSGD([parameter], lr=0.05, momentum=0.9)
        for _ in range(300):
            optimizer.zero_grad()
            parameter.accumulate_grad(2 * parameter.data)
            optimizer.step()
        assert np.allclose(parameter.data, 0.0, atol=1e-3)

    def test_momentum_velocity_accessible(self):
        parameter = self._quadratic_parameter()
        optimizer = MomentumSGD([parameter], lr=0.1)
        parameter.accumulate_grad(np.ones(2, dtype=np.float32))
        optimizer.step()
        assert np.any(optimizer.velocity_of(parameter) != 0)

    def test_weight_decay_shrinks_weights(self):
        parameter = Parameter(np.ones(4, dtype=np.float32))
        optimizer = MomentumSGD([parameter], lr=0.1, momentum=0.0, weight_decay=1.0)
        parameter.accumulate_grad(np.zeros(4, dtype=np.float32))
        optimizer.step()
        assert np.all(parameter.data < 1.0)

    def test_parameters_without_grad_are_skipped(self):
        parameter = Parameter(np.ones(3, dtype=np.float32))
        optimizer = SGD([parameter], lr=0.1)
        optimizer.step()
        assert np.allclose(parameter.data, 1.0)

    def test_rejects_non_positive_learning_rate(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)
