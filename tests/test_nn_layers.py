"""Tests for the layer classes (conv, linear, activation, dropout, embedding)."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dropout,
    Embedding,
    Linear,
    ReLU,
)


class ReferenceReLU(ReLU):
    """ReLU written with ``np.where``: the bit-exactness reference."""

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(x.dtype, copy=False)

    def backward(self, grad_out):
        return np.where(self._mask, grad_out, 0.0).astype(grad_out.dtype, copy=False)


class TestConv2DLayer:
    def test_forward_shape(self):
        layer = Conv2D(3, 8, kernel_size=3, stride=1, padding=1)
        out = layer(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert out.shape == (2, 8, 16, 16)

    def test_backward_accumulates_gradients(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(3, 4, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = layer(x)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_trace_operands_after_forward_backward(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(3, 4, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = layer(x)
        layer.backward(np.ones_like(out))
        operands = layer.trace_operands()
        assert set(operands) == {"weights", "activations", "output_gradients"}
        assert operands["activations"] is x

    def test_backward_before_forward_raises(self):
        layer = Conv2D(3, 4, kernel_size=3)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 4, 6, 6)))

    def test_macs_per_sample(self):
        layer = Conv2D(16, 32, kernel_size=3, stride=1, padding=1)
        assert layer.macs_per_sample((8, 8)) == 8 * 8 * 32 * 16 * 9

    def test_is_traceable(self):
        assert Conv2D(3, 4, 3).traceable


class TestLinearLayer:
    def test_forward_backward_round(self):
        rng = np.random.default_rng(2)
        layer = Linear(10, 5, rng=rng)
        x = rng.normal(size=(4, 10)).astype(np.float32)
        out = layer(x)
        assert out.shape == (4, 5)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert layer.weight.grad.shape == (5, 10)

    def test_no_bias_option(self):
        layer = Linear(10, 5, bias=False)
        assert layer.bias is None
        out = layer(np.zeros((2, 10), dtype=np.float32))
        assert np.allclose(out, 0.0)

    def test_macs_per_sample(self):
        assert Linear(128, 64).macs_per_sample() == 128 * 64

    def test_trace_operands(self):
        layer = Linear(4, 3)
        layer(np.ones((2, 4), dtype=np.float32))
        operands = layer.trace_operands()
        assert "weights" in operands and "activations" in operands


class TestActivations:
    def test_relu_zeroes_negatives_and_creates_sparsity(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.5, -0.2, 2.0]])
        out = relu(x)
        assert np.array_equal(out, [[0.0, 0.5, 0.0, 2.0]])
        # Gradient is masked at the same positions (gradient sparsity).
        grad = relu.backward(np.ones_like(x))
        assert np.array_equal(grad, [[0.0, 1.0, 0.0, 1.0]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_the_where_reference_bytes(self, dtype):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 7, 9)).astype(dtype)
        grad = rng.normal(size=x.shape).astype(dtype)
        # Signed zeros on both sides: masked positions must read +0.0,
        # and an unmasked -0.0 gradient must pass through unchanged.
        x.flat[:12] = [0.0, -0.0] * 6
        grad.flat[:24] = [0.0, -0.0] * 12
        relu, reference = ReLU(), ReferenceReLU()
        out, expected = relu(x), reference(x)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        grad_in, expected_grad = relu.backward(grad), reference.backward(grad)
        assert grad_in.dtype == expected_grad.dtype
        assert grad_in.tobytes() == expected_grad.tobytes()


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(p=0.5)
        layer.training = False
        x = np.ones((4, 10), dtype=np.float32)
        assert np.array_equal(layer(x), x)

    def test_training_mode_zeroes_and_rescales(self):
        layer = Dropout(p=0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 100), dtype=np.float32)
        out = layer(x)
        dropped = np.count_nonzero(out == 0)
        assert 0.4 < dropped / out.size < 0.6
        kept_values = out[out != 0]
        assert np.allclose(kept_values, 2.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(p=0.5, rng=np.random.default_rng(1))
        x = np.ones((10, 10), dtype=np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        assert np.array_equal(grad == 0, out == 0)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(p=1.0)


class TestEmbedding:
    def test_lookup_shape(self):
        layer = Embedding(100, 16)
        out = layer(np.array([[1, 2, 3], [4, 5, 6]]))
        assert out.shape == (2, 3, 16)

    def test_gradient_accumulates_per_token(self):
        layer = Embedding(10, 4)
        indices = np.array([[1, 1, 2]])
        out = layer(indices)
        layer.backward(np.ones_like(out))
        grad = layer.weight.grad
        assert np.allclose(grad[1], 2.0)   # token 1 appeared twice
        assert np.allclose(grad[2], 1.0)
        assert np.allclose(grad[0], 0.0)
