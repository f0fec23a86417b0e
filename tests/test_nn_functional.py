"""Tests for the low-level numpy tensor operations (im2col convolutions)."""

import numpy as np
import pytest

from repro.nn import functional as F


def pad_input(x, padding):
    """Zero-pad the two spatial dimensions of an ``(N, C, H, W)`` tensor."""
    if padding == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


def reference_im2col(x, kernel_h, kernel_w, stride, padding):
    """Gather each kernel tap's window from the zero-padded NCHW input.

    The bit-exactness reference for :func:`F.im2col`: columns are ordered
    ``(c, ky, kx)``, and every element is a copy of one input element or a
    padding zero.
    """
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    x_padded = pad_input(x, padding)
    cols = np.empty((n, out_h, out_w, c, kernel_h, kernel_w), dtype=x.dtype)
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            window = x_padded[
                :, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride
            ]
            cols[:, :, :, :, ky, kx] = window.transpose(0, 2, 3, 1)
    return cols.reshape(n, out_h, out_w, c * kernel_h * kernel_w)


def reference_col2im(cols, x_shape, kernel_h, kernel_w, stride, padding):
    """Scatter-add the columns onto a zero NCHW buffer, tap by tap.

    The bit-exactness reference for :func:`F.col2im`: each input element
    sums its taps' contributions in ``(ky, kx)`` order, starting from zero.
    """
    n, c, h, w = x_shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    taps = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            x_padded[
                :, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride
            ] += taps[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
    return x_padded[:, :, padding : padding + h, padding : padding + w]


def conv_geometries(kernel):
    """Every (stride, padding, channels, height, width) the exactness tests
    cover for one square kernel; height differs from width throughout."""
    for stride in (1, 2, 3):
        for padding in range(kernel):
            for channels in (1, 5):
                yield stride, padding, channels, kernel + 4, kernel + 7


def reference_conv2d(x, weight, bias, stride, padding):
    """Naive direct convolution used as the ground truth."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    x_padded = pad_input(x, padding)
    out = np.zeros((n, f, out_h, out_w), dtype=np.float64)
    for sample in range(n):
        for filt in range(f):
            for oy in range(out_h):
                for ox in range(out_w):
                    patch = x_padded[
                        sample, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw
                    ]
                    out[sample, filt, oy, ox] = np.sum(patch * weight[filt])
            if bias is not None:
                out[sample, filt] += bias[filt]
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_convolution(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=(4,)).astype(np.float32)
        out, _ = F.conv2d_forward(x, weight, bias, stride, padding)
        expected = reference_conv2d(x, weight, bias, stride, padding)
        assert np.allclose(out, expected, atol=1e-4)

    def test_output_shape(self):
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        weight = np.zeros((8, 3, 3, 3), dtype=np.float32)
        out, _ = F.conv2d_forward(x, weight, None, stride=2, padding=1)
        assert out.shape == (1, 8, 16, 16)

    def test_conv_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(8, 3, 1, 0) == 6


class TestConvBackward:
    def _numerical_grad(self, fn, tensor, epsilon=1e-3):
        grad = np.zeros_like(tensor, dtype=np.float64)
        flat = tensor.reshape(-1)
        grad_flat = grad.reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + epsilon
            plus = fn()
            flat[index] = original - epsilon
            minus = fn()
            flat[index] = original
            grad_flat[index] = (plus - minus) / (2 * epsilon)
        return grad

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float64)
        target = rng.normal(size=(1, 3, 5, 5)).astype(np.float64)

        def loss():
            out, _ = F.conv2d_forward(x, weight, None, stride=1, padding=1)
            return float(np.sum((out - target) ** 2))

        out, cols = F.conv2d_forward(x, weight, None, stride=1, padding=1)
        grad_out = 2.0 * (out - target)
        grad_input, grad_weight, _ = F.conv2d_backward(
            grad_out, x, weight, cols, stride=1, padding=1
        )
        numerical_x = self._numerical_grad(loss, x)
        numerical_w = self._numerical_grad(loss, weight)
        assert np.allclose(grad_input, numerical_x, atol=1e-3)
        assert np.allclose(grad_weight, numerical_w, atol=1e-3)

    def test_strided_gradients_match_numerical(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float64)
        weight = rng.normal(size=(2, 2, 3, 3)).astype(np.float64)

        def loss():
            out, _ = F.conv2d_forward(x, weight, None, stride=2, padding=1)
            return float(np.sum(out ** 2))

        out, cols = F.conv2d_forward(x, weight, None, stride=2, padding=1)
        grad_input, grad_weight, _ = F.conv2d_backward(
            2.0 * out, x, weight, cols, stride=2, padding=1
        )
        assert np.allclose(grad_input, self._numerical_grad(loss, x), atol=1e-3)
        assert np.allclose(grad_weight, self._numerical_grad(loss, weight), atol=1e-3)

    def test_bias_gradient_is_sum_over_positions(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 4, 4))
        weight = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d_forward(x, weight, np.zeros(3), stride=1, padding=1)
        grad_out = rng.normal(size=out.shape)
        _, _, grad_bias = F.conv2d_backward(grad_out, x, weight, cols, 1, 1)
        assert np.allclose(grad_bias, grad_out.sum(axis=(0, 2, 3)))


class TestExactKernels:
    """im2col/col2im reproduce the reference loops byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_im2col_matches_the_tap_loop_bytes(self, dtype, kernel):
        rng = np.random.default_rng(kernel)
        for stride, padding, channels, h, w in conv_geometries(kernel):
            x = rng.normal(size=(2, channels, h, w)).astype(dtype)
            cols = F.im2col(x, kernel, kernel, stride, padding)
            expected = reference_im2col(x, kernel, kernel, stride, padding)
            assert cols.dtype == expected.dtype and cols.shape == expected.shape
            assert cols.flags.c_contiguous
            assert cols.tobytes() == expected.tobytes(), (stride, padding, channels)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_col2im_matches_the_tap_loop_bytes(self, dtype, kernel):
        rng = np.random.default_rng(10 + kernel)
        for stride, padding, channels, h, w in conv_geometries(kernel):
            x_shape = (2, channels, h, w)
            out_h = F.conv_output_size(h, kernel, stride, padding)
            out_w = F.conv_output_size(w, kernel, stride, padding)
            cols = rng.normal(
                size=(2, out_h, out_w, channels * kernel * kernel)
            ).astype(dtype)
            folded = F.col2im(cols, x_shape, kernel, kernel, stride, padding)
            expected = reference_col2im(cols, x_shape, kernel, kernel, stride, padding)
            assert folded.dtype == expected.dtype and folded.shape == x_shape
            assert folded.flags.c_contiguous
            assert folded.tobytes() == expected.tobytes(), (stride, padding, channels)


class TestIm2Col:
    def test_col2im_is_adjoint_of_im2col(self):
        """<im2col(x), y> == <x, col2im(y)> (adjoint / scatter-gather pair)."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        cols = F.im2col(x, 3, 3, stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * F.col2im(y, x.shape, 3, 3, stride=1, padding=1)))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_im2col_shape(self):
        x = np.zeros((2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, stride=2, padding=1)
        assert cols.shape == (2, 4, 4, 27)


class TestLinear:
    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 10))
        weight = rng.normal(size=(6, 10))
        bias = rng.normal(size=(6,))
        assert np.allclose(F.linear_forward(x, weight, bias), x @ weight.T + bias)

    def test_backward_shapes_and_values(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 10))
        weight = rng.normal(size=(6, 10))
        grad_out = rng.normal(size=(4, 6))
        grad_input, grad_weight, grad_bias = F.linear_backward(grad_out, x, weight)
        assert np.allclose(grad_input, grad_out @ weight)
        assert np.allclose(grad_weight, grad_out.T @ x)
        assert np.allclose(grad_bias, grad_out.sum(axis=0))


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out, _ = F.max_pool2d_forward(x, kernel=2, stride=2)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out, argmax = F.max_pool2d_forward(x, kernel=2, stride=2)
        grad = F.max_pool2d_backward(np.ones_like(out), argmax, x.shape, 2, 2)
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1 and grad[0, 0, 3, 3] == 1

    def test_avg_pool_forward_backward(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        out = F.avg_pool2d_forward(x, kernel=2, stride=2)
        assert np.allclose(out, 1.0)
        grad = F.avg_pool2d_backward(np.ones_like(out), x.shape, 2, 2)
        assert np.allclose(grad, 0.25)

    def test_avg_pool_gradient_is_adjoint(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 6, 6))
        out = F.avg_pool2d_forward(x, 2, 2)
        y = rng.normal(size=out.shape)
        lhs = float(np.sum(out * y))
        rhs = float(np.sum(x * F.avg_pool2d_backward(y, x.shape, 2, 2)))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-20, 20, 101)
        s = F.sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        assert np.allclose(s + F.sigmoid(-x), 1.0)

    def test_extreme_values_do_not_overflow(self):
        s = F.sigmoid(np.array([-1e4, 1e4]))
        assert s[0] == pytest.approx(0.0)
        assert s[1] == pytest.approx(1.0)
