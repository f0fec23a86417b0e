"""Tests for normalisation and pooling layers."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm2D,
    GlobalAvgPool2D,
    MaxPool2D,
)


class ReferenceBatchNorm2D(BatchNorm2D):
    """Batch norm as one expression per step: the bit-exactness reference."""

    def forward(self, x):
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
        mean_b = mean.reshape(1, -1, 1, 1)
        std_b = np.sqrt(var + self.eps).reshape(1, -1, 1, 1)
        x_hat = (x - mean_b) / std_b
        out = self.gamma.data.reshape(1, -1, 1, 1) * x_hat + self.beta.data.reshape(
            1, -1, 1, 1
        )
        self._cache = (x_hat, std_b)
        return out.astype(np.float32, copy=False)

    def backward(self, grad_out):
        x_hat, std_b = self._cache
        self.gamma.accumulate_grad((grad_out * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate_grad(grad_out.sum(axis=(0, 2, 3)))
        grad_xhat = grad_out * self.gamma.data.reshape(1, -1, 1, 1)
        grad_input = (
            grad_xhat
            - grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
            - x_hat * (grad_xhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        ) / std_b
        return grad_input.astype(np.float32, copy=False)


class TestBatchNorm2D:
    def test_training_output_is_normalised(self):
        rng = np.random.default_rng(0)
        layer = BatchNorm2D(4)
        x = rng.normal(3.0, 2.0, size=(8, 4, 6, 6)).astype(np.float32)
        out = layer(x)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated_in_training(self):
        layer = BatchNorm2D(2, momentum=0.5)
        x = np.ones((4, 2, 3, 3), dtype=np.float32) * 10.0
        layer(x)
        assert np.all(layer.running_mean > 0)

    def test_eval_mode_uses_running_stats(self):
        layer = BatchNorm2D(2)
        x = np.random.default_rng(1).normal(size=(4, 2, 3, 3)).astype(np.float32)
        layer(x)
        layer.training = False
        out_eval = layer(x)
        # Evaluation output should differ from a perfect re-normalisation.
        assert out_eval.shape == x.shape

    def test_backward_gradients_sum_to_zero_per_channel(self):
        """BN backward projects out the mean: channel gradients sum to ~0."""
        rng = np.random.default_rng(2)
        layer = BatchNorm2D(3)
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        out = layer(x)
        grad_in = layer.backward(rng.normal(size=out.shape).astype(np.float32))
        assert np.allclose(grad_in.sum(axis=(0, 2, 3)), 0.0, atol=1e-3)

    def test_gradient_absorbs_sparsity(self):
        """The DenseNet effect: a sparse upstream gradient densifies through BN."""
        rng = np.random.default_rng(3)
        layer = BatchNorm2D(4)
        x = rng.normal(size=(4, 4, 8, 8)).astype(np.float32)
        layer(x)
        sparse_grad = rng.normal(size=x.shape).astype(np.float32)
        sparse_grad[rng.random(x.shape) < 0.6] = 0.0
        grad_in = layer.backward(sparse_grad)
        input_sparsity = np.mean(grad_in == 0)
        upstream_sparsity = np.mean(sparse_grad == 0)
        assert input_sparsity < 0.05
        assert upstream_sparsity > 0.5

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            BatchNorm2D(2).backward(np.zeros((1, 2, 3, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_expression_reference_bytes(self, dtype):
        rng = np.random.default_rng(5)
        gamma, beta = rng.normal(size=(2, 5))
        layer, reference = BatchNorm2D(5), ReferenceBatchNorm2D(5)
        for module in (layer, reference):
            module.gamma.data[:] = gamma
            module.beta.data[:] = beta
        x = rng.normal(1.0, 3.0, size=(4, 5, 6, 9)).astype(dtype)
        grad = rng.normal(size=x.shape).astype(dtype)
        grad[rng.random(x.shape) < 0.5] = 0.0
        out, expected = layer(x), reference(x)
        assert out.tobytes() == expected.tobytes()
        assert layer._cache[0].tobytes() == reference._cache[0].tobytes()
        grad_in, expected_grad = layer.backward(grad), reference.backward(grad)
        assert grad_in.dtype == expected_grad.dtype
        assert grad_in.tobytes() == expected_grad.tobytes()
        for name in ("gamma", "beta"):
            assert (getattr(layer, name).grad.tobytes()
                    == getattr(reference, name).grad.tobytes()), name
        assert layer.running_mean.tobytes() == reference.running_mean.tobytes()
        assert layer.running_var.tobytes() == reference.running_var.tobytes()
        layer.training = reference.training = False
        assert layer(x).tobytes() == reference(x).tobytes()


class TestPoolingLayers:
    def test_max_pool_shape_and_backward(self):
        layer = MaxPool2D(kernel_size=2)
        x = np.random.default_rng(8).normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = layer(x)
        assert out.shape == (2, 3, 4, 4)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert grad.sum() == pytest.approx(out.size)

    def test_avg_pool_shape_and_backward(self):
        layer = AvgPool2D(kernel_size=2)
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        out = layer(x)
        assert np.allclose(out, 1.0)
        grad = layer.backward(np.ones_like(out))
        assert np.allclose(grad, 0.25)

    def test_global_avg_pool(self):
        layer = GlobalAvgPool2D()
        x = np.arange(32, dtype=np.float32).reshape(2, 4, 2, 2)
        out = layer(x)
        assert out.shape == (2, 4)
        assert out[0, 0] == pytest.approx(x[0, 0].mean())
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert np.allclose(grad, 0.25)

    def test_pool_backward_before_forward_raises(self):
        for layer in (MaxPool2D(2), AvgPool2D(2), GlobalAvgPool2D()):
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 1, 2, 2)))
