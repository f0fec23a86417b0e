"""2D convolution layer with full forward/backward and operand tracing."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter


class Conv2D(Module):
    """A standard 2D convolution, the workhorse of the paper's workloads.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts ``C`` and ``F`` in the paper's notation.
    kernel_size:
        Square kernel side ``Kx = Ky``.
    stride, padding:
        Spatial stride and zero padding.
    bias:
        Whether to add a per-filter bias.
    """

    traceable = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name=name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or init.default_rng(0)

        fan_in = in_channels * kernel_size * kernel_size
        weight = init.kaiming_normal(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        self.weight = self.register_parameter(
            "weight", Parameter(weight, name=f"{self.name}.weight")
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(init.zeros((out_channels,)), name=f"{self.name}.bias")
            )

        # Operand caches for tracing / backward.
        self._input: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._grad_out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        bias = self.bias.data if self.bias is not None else None
        out, cols = F.conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding
        )
        self._cols = cols
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None or self._cols is None:
            raise RuntimeError("backward() called before forward()")
        self._grad_out = grad_out
        grad_input, grad_weight, grad_bias = F.conv2d_backward(
            grad_out, self._input, self.weight.data, self._cols, self.stride, self.padding
        )
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_bias)
        # The im2col columns are the largest operand cache and backward
        # is their last reader; freed here, they do not stay alive into
        # the next step's forward pass.
        self._cols = None
        return grad_input

    def trace_operands(self) -> Dict[str, np.ndarray]:
        operands: Dict[str, np.ndarray] = {"weights": self.weight.data}
        if self._input is not None:
            operands["activations"] = self._input
        if self._grad_out is not None:
            operands["output_gradients"] = self._grad_out
        return operands

    def macs_per_sample(self, input_hw: tuple) -> int:
        """Number of MAC operations in the forward convolution of one sample."""
        h, w = input_hw
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (
            out_h
            * out_w
            * self.out_channels
            * self.in_channels
            * self.kernel_size
            * self.kernel_size
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )
