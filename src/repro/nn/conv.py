"""Convolutional and pooling layers (1-D for audio, 2-D for images).

Implemented with im2col/col2im so the heavy lifting is a single matrix
multiply per layer — fast enough in numpy for the reproduction workloads
while remaining a genuine convolution with exact gradients.  The array
kernels themselves (patch gather, col2im accumulate, pooling scatter)
live in :mod:`repro.nn.kernels`, which keeps a vectorized ``fast``
backend and the original ``reference`` backend side by side; the layers
here only manage parameters, caches and reusable gradient buffers.

Buffer reuse: each layer keeps its patch matrix, its input-gradient
buffer, the pooling index tables and the conv matmul scratch across
steps, so steady-state training allocates nothing here.  A returned
array is therefore only valid until the layer's next call in the same
direction — which is how the engine's layer-by-layer chain consumes it.

Layout: a gradient buffer is laid out like the activation it pairs with
(:mod:`repro.nn.kernels`).  The layers remember the strides their input
arrived with and hand them to the kernels; shapes and views are what
they always were.
"""

from __future__ import annotations

import math
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


class _PatchGemm:
    """The two gemms of an im2col convolution, shared by both conv layers.

    The patch matrix is one tall ``(n·P, F)`` matrix against the
    ``(F, O)`` weights — the flattened-gemm form of
    :func:`kernels.scratch_matmul` instead of ``n`` small gemms — with a
    flat bias reduction.
    """

    def _project(self, cols: np.ndarray) -> np.ndarray:
        """Cache the ``(N, P, F)`` patch matrix and return ``cols @ W + b``
        as ``(n·P, C_out)`` rows in the layer's forward buffer."""
        weight = self.weight.value
        self._cols = cols.reshape(weight.shape[:-2] + (-1, cols.shape[-1]))
        out = kernels.scratch_matmul(
            self._cols, weight, self._forward_scratch, "out"
        )
        out += self.bias.value[..., None, :]
        return out

    def _accumulate(self, grad_out: np.ndarray) -> np.ndarray:
        """Add the weight and bias gradients of ``grad_out`` ``(N, P,
        C_out)`` and return it gemm-contiguous.  Inside a conv trunk it
        arrives that way (the layer behind laid its gradient out like
        this layer's channel-last output) and nothing is copied; a
        C-order gradient is copied once here, which saves both gemms an
        internal buffering pass over the strided transpose view."""
        flat_grad = np.ascontiguousarray(grad_out).reshape(
            self._cols.shape[:-1] + (self.out_channels,)
        )
        np.matmul(
            self._cols.swapaxes(-1, -2), flat_grad,
            out=self._weight_grad_scratch,
        )
        self.weight.grad += self._weight_grad_scratch
        self.bias.grad += flat_grad.sum(axis=-2)
        return flat_grad.reshape(grad_out.shape)

    def parameters(self) -> List[ParamTensor]:
        return [self.weight, self.bias]


class Conv1d(_PatchGemm, Module):
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
        self._input_shape: Optional[Tuple[int, ...]] = None
        self._input_strides: Optional[Tuple[int, ...]] = None
        self._forward_scratch: dict = {}
        self._backward_scratch: dict = {}
        self._weight_grad_scratch = np.zeros_like(self.weight.value)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("Conv1d", inputs, 3)
        if inputs.shape[-2] != self.in_channels:
            raise ShapeError(
                f"Conv1d expected {self.in_channels} channels, "
                f"got {inputs.shape[-2]}"
            )
        out_len = _out_length(inputs.shape[-1], self.kernel_size, self.stride)
        self._input_shape, self._input_strides = inputs.shape, inputs.strides
        out = self._project(kernels.im2col_1d(
            inputs, self.kernel_size, self.stride, out_len,
            self._forward_scratch,
        ))
        return out.reshape(
            inputs.shape[:-2] + (out_len, self.out_channels)
        ).swapaxes(-1, -2)  # (N, C_out, Lo)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols is None or self._input_shape is None:
            raise ShapeError("Conv1d.backward called before forward")
        grad_out = self._accumulate(
            grad_output.swapaxes(-1, -2)  # (N, Lo, C_out)
        )
        if not need_input_grad:
            return None
        return kernels.conv1d_input_grad(
            grad_out,
            self.weight.value,
            self._input_shape,
            self.kernel_size,
            self.stride,
            self._backward_scratch,
            self._input_strides,
        )

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

    grown_step_state = ("_backward_scratch",)

    def __init__(self, kernel_size: int):
        if kernel_size <= 0:
            raise ShapeError("MaxPool1d kernel must be positive")
        self.kernel_size = kernel_size
        self._cache: Optional[tuple] = None
        self._backward_scratch: dict = {}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("MaxPool1d", inputs, 3)
        length = inputs.shape[-1]
        out_len = length // self.kernel_size
        if out_len == 0:
            raise ShapeError(
                f"MaxPool1d: length {length} < kernel {self.kernel_size}"
            )
        trimmed = inputs[..., : out_len * self.kernel_size]
        windows = trimmed.reshape(
            inputs.shape[:-1] + (out_len, self.kernel_size)
        )
        maxima, argmax = kernels.maxpool_forward(windows)
        self._cache = (inputs.shape, out_len, argmax)
        return maxima

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MaxPool1d.backward called before forward")
        input_shape, out_len, argmax = self._cache
        return kernels.maxpool1d_backward(
            grad_output,
            input_shape,
            out_len,
            self.kernel_size,
            argmax,
            self._backward_scratch,
        )

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, length = input_shape
        out_len = length // self.kernel_size
        return channels * out_len * self.kernel_size, (channels, out_len)


class _GlobalAvgPool:
    """Mean over the trailing ``_reduced`` axes, and its broadcast back.

    ``np.mean`` is ``add.reduce`` and a divide by the count behind a
    Python wrapper; the two ufuncs are called directly (same bits).  The
    gradient goes into a reused buffer laid out like the input, so the
    layer in front reads it in the order it reads its own mask.
    """

    _reduced: Tuple[int, ...] = ()
    grown_step_state = ("_backward_scratch",)

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None
        self._input_strides: Optional[Tuple[int, ...]] = None
        self._backward_scratch: dict = {}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim(
            type(self).__name__, inputs,
            2 + len(self._reduced),
        )
        self._input_shape, self._input_strides = inputs.shape, inputs.strides
        out = np.add.reduce(inputs, axis=self._reduced)
        out /= self._count()
        return out

    def _count(self) -> int:
        return math.prod(self._input_shape[axis] for axis in self._reduced)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError(
                f"{type(self).__name__}.backward called before forward"
            )
        grad = kernels.scratch_like(
            self._input_shape, self._input_strides, self._backward_scratch,
            "grad_input",
        )
        grad[...] = (grad_output / self._count())[
            (...,) + (None,) * len(self._reduced)
        ]
        return grad


class GlobalAvgPool1d(_GlobalAvgPool, Module):
    """Average over the length axis: (N, C, L) -> (N, C)."""

    _reduced = (-1,)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, length = input_shape
        return channels * length, (channels,)


class Conv2d(_PatchGemm, Module):
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
        if inputs.shape[-3] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected {self.in_channels} channels, "
                f"got {inputs.shape[-3]}"
            )
        out_h = _out_length(inputs.shape[-2], self.kernel_size, self.stride)
        out_w = _out_length(inputs.shape[-1], self.kernel_size, self.stride)
        out = self._project(kernels.im2col_2d(
            inputs, self.kernel_size, self.stride, out_h, out_w,
            self._forward_scratch,
        ))
        self._geometry = (inputs.shape, inputs.strides, out_h, out_w)
        lead = inputs.shape[:-3]
        return out.reshape(
            lead + (out_h * out_w, self.out_channels)
        ).swapaxes(-1, -2).reshape(lead + (self.out_channels, out_h, out_w))

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cols is None or self._geometry is None:
            raise ShapeError("Conv2d.backward called before forward")
        input_shape, input_strides, out_h, out_w = self._geometry
        grad_out = self._accumulate(
            grad_output.reshape(
                input_shape[:-3] + (self.out_channels, out_h * out_w)
            ).swapaxes(-1, -2)  # (N, Ho*Wo, C_out)
        )
        if not need_input_grad:
            return None
        return kernels.conv2d_input_grad(
            grad_out,
            self.weight.value,
            input_shape,
            out_h,
            out_w,
            self.kernel_size,
            self.stride,
            self._backward_scratch,
            input_strides,
        )

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

    grown_step_state = ("_backward_scratch",)

    def __init__(self, kernel_size: int):
        if kernel_size <= 0:
            raise ShapeError("MaxPool2d kernel must be positive")
        self.kernel_size = kernel_size
        self._cache: Optional[tuple] = None
        self._backward_scratch: dict = {}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("MaxPool2d", inputs, 4)
        k = self.kernel_size
        height, width = inputs.shape[-2:]
        out_h, out_w = height // k, width // k
        if out_h == 0 or out_w == 0:
            raise ShapeError(
                f"MaxPool2d: input {height}x{width} smaller than kernel {k}"
            )
        trimmed = inputs[:, :, : out_h * k, : out_w * k]
        maxima, argmax = kernels.maxpool2d_forward(trimmed, k)
        self._cache = (inputs.shape, out_h, out_w, argmax)
        return maxima.reshape(inputs.shape[:-2] + (out_h, out_w))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MaxPool2d.backward called before forward")
        input_shape, out_h, out_w, argmax = self._cache
        return kernels.maxpool2d_backward(
            grad_output,
            input_shape,
            out_h,
            out_w,
            self.kernel_size,
            argmax,
            self._backward_scratch,
        )

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, height, width = input_shape
        k = self.kernel_size
        out_h, out_w = height // k, width // k
        return channels * out_h * out_w * k * k, (channels, out_h, out_w)


class GlobalAvgPool2d(_GlobalAvgPool, Module):
    """Average over spatial axes: (N, C, H, W) -> (N, C)."""

    _reduced = (-2, -1)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        channels, height, width = input_shape
        return channels * height * width, (channels,)
