"""Convolutional and pooling layers (1-D for audio, 2-D for images).

Implemented with im2col/col2im so the heavy lifting is a single matrix
multiply per layer — fast enough in numpy for the reproduction workloads
while remaining a genuine convolution with exact gradients.  The array
kernels themselves (patch gather, col2im accumulate, pooling scatter)
live in :mod:`repro.nn.kernels`, which keeps a vectorized ``fast``
backend and the original ``reference`` backend side by side; the layers
here only manage parameters, caches and reusable gradient buffers.

Buffer reuse: each layer keeps its input-gradient buffer (and the conv
layers their matmul scratch) across steps, so steady-state training does
not allocate in ``backward``.  The returned gradient is therefore only
valid until the layer's next ``backward`` call — which is how the
engine's layer-by-layer backward chain consumes it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..rng import SeedLike, make_rng
from . import kernels
from .initializers import he_normal, zeros
from .module import Module, ParamTensor, Shape, check_ndim


def _out_length(length: int, kernel: int, stride: int) -> int:
    if length < kernel:
        raise ShapeError(
            f"input length {length} smaller than kernel {kernel}"
        )
    return (length - kernel) // stride + 1


class Conv1d(Module):
    """1-D convolution over (N, C, L) inputs; used by the M5 audio model."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        rng: SeedLike = None,
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ShapeError("Conv1d dimensions must be positive")
        generator = make_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        fan_in = in_channels * kernel_size
        self.weight = ParamTensor(
            "weight", he_normal(generator, (fan_in, out_channels), fan_in)
        )
        self.bias = ParamTensor("bias", zeros((out_channels,)))
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int]] = None
        self._forward_scratch: dict = {}
        self._backward_scratch: dict = {}
        self._weight_grad_scratch = np.zeros_like(self.weight.value)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("Conv1d", inputs, 3)
        if inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv1d expected {self.in_channels} channels, "
                f"got {inputs.shape[1]}"
            )
        out_len = _out_length(inputs.shape[2], self.kernel_size, self.stride)
        self._input_shape = inputs.shape
        self._cols = kernels.im2col_1d(
            inputs, self.kernel_size, self.stride, out_len
        )
        out = kernels.scratch_matmul(
            self._cols, self.weight.value, self._forward_scratch, "out"
        )
        out += self.bias.value
        return out.transpose(0, 2, 1)  # (N, C_out, Lo)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols is None or self._input_shape is None:
            raise ShapeError("Conv1d.backward called before forward")
        grad_out = grad_output.transpose(0, 2, 1)  # (N, Lo, C_out)
        flat_cols = self._cols.reshape(-1, self._cols.shape[-1])
        flat_grad = np.ascontiguousarray(
            grad_out.reshape(-1, self.out_channels)
        )
        np.matmul(flat_cols.T, flat_grad, out=self._weight_grad_scratch)
        self.weight.grad += self._weight_grad_scratch
        self.bias.grad += flat_grad.sum(axis=0)
        if not need_input_grad:
            return None
        # Feed the gemm the contiguous copy already made for the weight
        # gradient — same values, but saves matmul an internal buffering
        # pass over the strided transpose view.
        return kernels.conv1d_input_grad(
            flat_grad.reshape(grad_out.shape),
            self.weight.value,
            self._input_shape,
            self.kernel_size,
            self.stride,
            self._backward_scratch,
        )

    def parameters(self) -> List[ParamTensor]:
        return [self.weight, self.bias]

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, length = input_shape
        out_len = _out_length(length, self.kernel_size, self.stride)
        per_position = 2 * channels * self.kernel_size * self.out_channels
        return per_position * out_len + self.out_channels * out_len, (
            self.out_channels,
            out_len,
        )


class MaxPool1d(Module):
    """Non-overlapping 1-D max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int):
        if kernel_size <= 0:
            raise ShapeError("MaxPool1d kernel must be positive")
        self.kernel_size = kernel_size
        self._cache: Optional[tuple] = None
        self._grad_input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("MaxPool1d", inputs, 3)
        batch, channels, length = inputs.shape
        out_len = length // self.kernel_size
        if out_len == 0:
            raise ShapeError(
                f"MaxPool1d: length {length} < kernel {self.kernel_size}"
            )
        trimmed = inputs[:, :, : out_len * self.kernel_size]
        windows = trimmed.reshape(batch, channels, out_len, self.kernel_size)
        maxima, argmax = kernels.maxpool_forward(windows)
        self._cache = (inputs.shape, out_len, argmax)
        return maxima

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MaxPool1d.backward called before forward")
        input_shape, out_len, argmax = self._cache
        self._grad_input = kernels.maxpool1d_backward(
            grad_output,
            input_shape,
            out_len,
            self.kernel_size,
            argmax,
            out=self._grad_input,
        )
        return self._grad_input

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, length = input_shape
        out_len = length // self.kernel_size
        return channels * out_len * self.kernel_size, (channels, out_len)


class GlobalAvgPool1d(Module):
    """Average over the length axis: (N, C, L) -> (N, C)."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, int, int]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("GlobalAvgPool1d", inputs, 3)
        self._input_shape = inputs.shape
        return inputs.mean(axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("GlobalAvgPool1d.backward called before forward")
        batch, channels, length = self._input_shape
        return np.broadcast_to(
            grad_output[:, :, None] / length, self._input_shape
        ).copy()

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, length = input_shape
        return channels * length, (channels,)


class Conv2d(Module):
    """2-D convolution over (N, C, H, W) inputs (square kernels)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        rng: SeedLike = None,
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ShapeError("Conv2d dimensions must be positive")
        generator = make_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = ParamTensor(
            "weight", he_normal(generator, (fan_in, out_channels), fan_in)
        )
        self.bias = ParamTensor("bias", zeros((out_channels,)))
        self._cols: Optional[np.ndarray] = None
        self._geometry: Optional[tuple] = None
        self._forward_scratch: dict = {}
        self._backward_scratch: dict = {}
        self._weight_grad_scratch = np.zeros_like(self.weight.value)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("Conv2d", inputs, 4)
        if inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected {self.in_channels} channels, "
                f"got {inputs.shape[1]}"
            )
        out_h = _out_length(inputs.shape[2], self.kernel_size, self.stride)
        out_w = _out_length(inputs.shape[3], self.kernel_size, self.stride)
        cols = kernels.im2col_2d(
            inputs, self.kernel_size, self.stride, out_h, out_w
        )
        self._cols = cols
        self._geometry = (inputs.shape, out_h, out_w)
        out = kernels.scratch_matmul(
            cols, self.weight.value, self._forward_scratch, "out"
        )  # (N, Ho*Wo, C_out)
        out += self.bias.value
        batch = inputs.shape[0]
        return out.transpose(0, 2, 1).reshape(
            batch, self.out_channels, out_h, out_w
        )

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols is None or self._geometry is None:
            raise ShapeError("Conv2d.backward called before forward")
        input_shape, out_h, out_w = self._geometry
        batch = input_shape[0]
        grad_out = grad_output.reshape(
            batch, self.out_channels, out_h * out_w
        ).transpose(0, 2, 1)  # (N, Ho*Wo, C_out)
        flat_cols = self._cols.reshape(-1, self._cols.shape[-1])
        flat_grad = np.ascontiguousarray(
            grad_out.reshape(-1, self.out_channels)
        )
        np.matmul(flat_cols.T, flat_grad, out=self._weight_grad_scratch)
        self.weight.grad += self._weight_grad_scratch
        self.bias.grad += flat_grad.sum(axis=0)
        if not need_input_grad:
            return None
        return kernels.conv2d_input_grad(
            flat_grad.reshape(grad_out.shape),
            self.weight.value,
            input_shape,
            out_h,
            out_w,
            self.kernel_size,
            self.stride,
            self._backward_scratch,
        )

    def parameters(self) -> List[ParamTensor]:
        return [self.weight, self.bias]

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, height, width = input_shape
        out_h = _out_length(height, self.kernel_size, self.stride)
        out_w = _out_length(width, self.kernel_size, self.stride)
        per_position = (
            2 * channels * self.kernel_size * self.kernel_size * self.out_channels
        )
        total = per_position * out_h * out_w + self.out_channels * out_h * out_w
        return total, (self.out_channels, out_h, out_w)


class MaxPool2d(Module):
    """Non-overlapping 2-D max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int):
        if kernel_size <= 0:
            raise ShapeError("MaxPool2d kernel must be positive")
        self.kernel_size = kernel_size
        self._cache: Optional[tuple] = None
        self._grad_input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("MaxPool2d", inputs, 4)
        k = self.kernel_size
        batch, channels, height, width = inputs.shape
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ShapeError(
                f"MaxPool2d: input {height}x{width} smaller than kernel {k}"
            )
        trimmed = inputs[:, :, : out_h * k, : out_w * k]
        maxima, argmax = kernels.maxpool2d_forward(trimmed, k)
        self._cache = (inputs.shape, out_h, out_w, argmax)
        return maxima

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MaxPool2d.backward called before forward")
        input_shape, out_h, out_w, argmax = self._cache
        self._grad_input = kernels.maxpool2d_backward(
            grad_output,
            input_shape,
            out_h,
            out_w,
            self.kernel_size,
            argmax,
            out=self._grad_input,
        )
        return self._grad_input

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, height, width = input_shape
        k = self.kernel_size
        out_h, out_w = height // k, width // k
        return channels * out_h * out_w * k * k, (channels, out_h, out_w)


class GlobalAvgPool2d(Module):
    """Average over spatial axes: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("GlobalAvgPool2d", inputs, 4)
        self._input_shape = inputs.shape
        return inputs.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("GlobalAvgPool2d.backward called before forward")
        batch, channels, height, width = self._input_shape
        area = height * width
        return np.broadcast_to(
            grad_output[:, :, None, None] / area, self._input_shape
        ).copy()

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, height, width = input_shape
        return channels * height * width, (channels,)
