"""Low-level numpy implementations of the tensor operations used by layers.

All convolution arithmetic is implemented via ``im2col``/``col2im`` so the
forward pass, the input-gradient pass and the weight-gradient pass each map
onto a single matrix multiplication.  This mirrors how the paper describes
the three training convolutions (Table 1, Eqs. 4-9) and keeps the substrate
fast enough to trace scaled-down models on a CPU.

Tensors follow the ``(N, C, H, W)`` layout used throughout the paper.
Internally, ``im2col`` and ``col2im`` work on a zero-padded
``(N, H + 2p, W + 2p, C)`` buffer: in that layout each kernel tap's strided
window is one copy (or one add) whose channel run is contiguous.  Both keep
each element's arithmetic exactly as a direct loop over the taps computes
it: ``im2col`` only copies, and ``col2im`` adds the taps in ``(ky, kx)``
order starting from zero, so results are bit-identical to that loop.
"""

from __future__ import annotations

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Unfold an ``(N, C, H, W)`` tensor into convolution columns.

    Returns an array of shape ``(N, out_h, out_w, C * kernel_h * kernel_w)``
    where each trailing row is the receptive field of one output position,
    ordered ``(c, ky, kx)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    padded[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)

    cols = np.empty((n, out_h, out_w, c, kernel_h, kernel_w), dtype=x.dtype)
    for ky in range(kernel_h):
        rows = slice(ky, ky + stride * out_h, stride)
        for kx in range(kernel_w):
            cols[..., ky, kx] = padded[:, rows, kx : kx + stride * out_w : stride]
    return cols.reshape(n, out_h, out_w, c * kernel_h * kernel_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back onto an input-shaped tensor (scatter-add).

    ``cols`` has shape ``(N, out_h, out_w, C * kernel_h * kernel_w)`` and the
    result is a C-contiguous array of shape ``x_shape`` = ``(N, C, H, W)``.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)

    taps = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    for ky in range(kernel_h):
        rows = slice(ky, ky + stride * out_h, stride)
        for kx in range(kernel_w):
            padded[:, rows, kx : kx + stride * out_w : stride] += taps[..., ky, kx]
    cropped = padded[:, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(cropped.transpose(0, 3, 1, 2))


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward convolution ``O = W * A`` (paper Eq. 4).

    ``x`` is ``(N, C, H, W)`` and ``weight`` is ``(F, C, Kh, Kw)``.  Returns
    the output activations ``(N, F, out_h, out_w)`` along with the im2col
    columns, which the backward pass reuses.
    """
    f, c, kh, kw = weight.shape
    cols = im2col(x, kh, kw, stride, padding)
    n, out_h, out_w, _ = cols.shape
    w_mat = weight.reshape(f, -1)
    out = cols.reshape(-1, c * kh * kw) @ w_mat.T
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out), cols


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    cols: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward convolution producing ``GA``, ``GW`` and the bias gradient.

    Implements the paper's Eqs. 6 and 8: the input gradients convolve the
    output gradients with the (reconstructed, rotated) filters, and the
    weight gradients convolve the output gradients with the activations.
    """
    f, c, kh, kw = weight.shape
    n, _, out_h, out_w = grad_out.shape

    grad_out_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, f)
    w_mat = weight.reshape(f, -1)

    # GW = GO * A (Eq. 8), expressed over the im2col columns.
    grad_weight = (grad_out_mat.T @ cols.reshape(-1, c * kh * kw)).reshape(
        weight.shape
    )
    grad_bias = grad_out_mat.sum(axis=0)

    # GA = GO * W_rotated (Eq. 6), expressed as a matmul followed by col2im.
    grad_cols = (grad_out_mat @ w_mat).reshape(n, out_h, out_w, c * kh * kw)
    grad_input = col2im(grad_cols, x.shape, kh, kw, stride, padding)
    return grad_input, grad_weight, grad_bias


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    """Fully-connected forward pass ``O = W * A`` (paper Eq. 5)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fully-connected backward pass (paper Eqs. 7 and 9)."""
    grad_input = grad_out @ weight
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0)
    return grad_input, grad_weight, grad_bias


def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling forward; returns outputs and the argmax mask for backward."""
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    patches = view.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = patches.argmax(axis=-1)
    out = patches.max(axis=-1)
    return out, argmax


def max_pool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple,
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Scatter pooled gradients back to the argmax positions."""
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_input = np.zeros(x_shape, dtype=grad_out.dtype)
    ky = argmax // kernel
    kx = argmax % kernel
    oy = np.arange(out_h)[None, None, :, None]
    ox = np.arange(out_w)[None, None, None, :]
    rows = oy * stride + ky
    cols = ox * stride + kx
    nn_idx = np.arange(n)[:, None, None, None]
    cc_idx = np.arange(c)[None, :, None, None]
    np.add.at(grad_input, (nn_idx, cc_idx, rows, cols), grad_out)
    return grad_input


def avg_pool2d_forward(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Average pooling forward pass."""
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
        writeable=False,
    )
    return view.mean(axis=(-2, -1))


def avg_pool2d_backward(
    grad_out: np.ndarray, x_shape: tuple, kernel: int, stride: int
) -> np.ndarray:
    """Distribute pooled gradients uniformly over each pooling window."""
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_input = np.zeros(x_shape, dtype=grad_out.dtype)
    share = grad_out / (kernel * kernel)
    for ky in range(kernel):
        for kx in range(kernel):
            grad_input[
                :, :, ky : ky + out_h * stride : stride, kx : kx + out_w * stride : stride
            ] += share
    return grad_input


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(x.dtype, copy=False)
