"""Correctness oracles for :mod:`repro.nn.kernels` and ``ElmanRNN``.

The original ``np.add.at`` / fancy-indexing / two-pass implementations
of every hot-path kernel: numpy's slowest write paths, but trivially
correct.  :func:`reference_kernels` swaps them in for the eight public
kernels on ``repro.nn.kernels``; the layers call every kernel through
that module's attributes, so inside the block whole layers and models
train on the oracle.  The equivalence contract it checks is stated in
the ``repro.nn.kernels`` docstring.

:func:`reference_rnn` does the same for ``ElmanRNN``'s forward and
backward: the textbook recurrence that builds the zero initial state and
multiplies it by ``W_rec`` at step 0 (DESIGN §5c, "Zero initial state").

:func:`full_batches` empties every model's input stage: inside the block
``train_model`` and ``evaluate_accuracy`` gather whole samples and step
the whole model, ``SequenceStride`` included (DESIGN §5c, "Input
stage").
"""

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.nn import kernels
from repro.nn.layers import Sequential
from repro.nn.module import Module, check_ndim
from repro.nn.recurrent import ElmanRNN


def _im2col_1d_reference(
    inputs: np.ndarray, kernel: int, stride: int, out_len: int
) -> np.ndarray:
    """Fancy-indexing gather (one extra full copy before the reshape)."""
    batch, channels, _ = inputs.shape
    idx = (np.arange(out_len) * stride)[:, None] + np.arange(kernel)[None, :]
    patches = inputs[:, :, idx]  # (N, C, Lo, K)
    return patches.transpose(0, 2, 1, 3).reshape(
        batch, out_len, channels * kernel
    )


def _col2im_1d_reference(
    grad_cols: np.ndarray,
    input_shape: Tuple[int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    batch, channels, _ = input_shape
    out_len = grad_cols.shape[1]
    grad = np.zeros(input_shape, dtype=np.float64)
    cols = grad_cols.reshape(batch, out_len, channels, kernel).transpose(
        0, 2, 1, 3
    )  # (N, C, Lo, K)
    for k in range(kernel):
        positions = np.arange(out_len) * stride + k
        np.add.at(grad, (slice(None), slice(None), positions), cols[:, :, :, k])
    return grad


def _im2col_2d_reference(
    inputs: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    batch, channels, _, _ = inputs.shape
    rows = (np.arange(out_h) * stride)[:, None] + np.arange(kernel)[None, :]
    cols = (np.arange(out_w) * stride)[:, None] + np.arange(kernel)[None, :]
    # Gather (N, C, Ho, K, Wo, K)
    patches = inputs[:, :, rows][:, :, :, :, cols]
    patches = patches.transpose(0, 2, 4, 1, 3, 5)  # (N, Ho, Wo, C, K, K)
    return patches.reshape(batch, out_h * out_w, channels * kernel * kernel)


def _col2im_2d_reference(
    grad_cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    out_h: int,
    out_w: int,
    kernel: int,
    stride: int,
) -> np.ndarray:
    batch, channels, _, _ = input_shape
    grad = np.zeros(input_shape, dtype=np.float64)
    k = kernel
    patches = grad_cols.reshape(batch, out_h, out_w, channels, k, k)
    for dy in range(k):
        for dx in range(k):
            rows = np.arange(out_h) * stride + dy
            cols_idx = np.arange(out_w) * stride + dx
            np.add.at(
                grad,
                (slice(None), slice(None), rows[:, None], cols_idx[None, :]),
                patches[:, :, :, :, dy, dx].transpose(0, 3, 1, 2),
            )
    return grad


def _maxpool_forward_reference(
    windows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two full passes: one for the argmax, one for the max."""
    argmax = windows.argmax(axis=-1)
    return windows.max(axis=-1), argmax


def _maxpool1d_backward_reference(
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int],
    out_len: int,
    kernel: int,
    argmax: np.ndarray,
) -> np.ndarray:
    batch, channels, _ = input_shape
    grad = np.zeros(input_shape, dtype=np.float64)
    windows = grad.reshape(batch, channels, -1)[
        :, :, : out_len * kernel
    ].reshape(batch, channels, out_len, kernel)
    b_idx, c_idx, o_idx = np.ogrid[:batch, :channels, :out_len]
    windows[b_idx, c_idx, o_idx, argmax] = grad_output
    return grad


def _maxpool2d_backward_reference(
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    out_h: int,
    out_w: int,
    kernel: int,
    argmax: np.ndarray,
) -> np.ndarray:
    batch, channels, _, _ = input_shape
    k = kernel
    grad = np.zeros(input_shape, dtype=np.float64)
    flat_pos = argmax  # position within the k*k window
    dy, dx = flat_pos // k, flat_pos % k
    b_idx, c_idx, h_idx, w_idx = np.ogrid[:batch, :channels, :out_h, :out_w]
    rows = h_idx * k + dy
    cols = w_idx * k + dx
    np.add.at(grad, (b_idx, c_idx, rows, cols), grad_output)
    return grad


# ---------------------------------------------------------------------------
# The public signatures of repro.nn.kernels, on the oracle (scratch ignored)
# ---------------------------------------------------------------------------

def im2col_1d(inputs, kernel, stride, out_len, scratch=None):
    return _im2col_1d_reference(inputs, kernel, stride, out_len)


def conv1d_input_grad(grad_out, weight, input_shape, kernel, stride,
                      scratch, input_strides=None):
    grad_cols = grad_out @ weight.T  # (N, Lo, C*K)
    return _col2im_1d_reference(grad_cols, input_shape, kernel, stride)


def im2col_2d(inputs, kernel, stride, out_h, out_w, scratch=None):
    return _im2col_2d_reference(inputs, kernel, stride, out_h, out_w)


def conv2d_input_grad(grad_out, weight, input_shape, out_h, out_w, kernel,
                      stride, scratch, input_strides=None):
    grad_cols = grad_out @ weight.T  # (N, Ho*Wo, C*K*K)
    return _col2im_2d_reference(
        grad_cols, input_shape, out_h, out_w, kernel, stride
    )


def maxpool_forward(windows):
    return _maxpool_forward_reference(windows)


def maxpool2d_forward(trimmed, kernel):
    """Materializes every window as a trailing axis (one full input copy)
    before reducing twice."""
    batch, channels, height, width = trimmed.shape
    k = kernel
    region = trimmed.reshape(batch, channels, height // k, k, width // k, k)
    windows = region.transpose(0, 1, 2, 4, 3, 5).reshape(
        batch, channels, height // k, width // k, k * k
    )
    return _maxpool_forward_reference(windows)


def maxpool1d_backward(grad_output, input_shape, out_len, kernel, argmax,
                       scratch=None):
    return _maxpool1d_backward_reference(
        grad_output, input_shape, out_len, kernel, argmax
    )


def maxpool2d_backward(grad_output, input_shape, out_h, out_w, kernel,
                       argmax, scratch=None):
    return _maxpool2d_backward_reference(
        grad_output, input_shape, out_h, out_w, kernel, argmax
    )


PUBLIC = (
    "im2col_1d", "conv1d_input_grad", "im2col_2d", "conv2d_input_grad",
    "maxpool_forward", "maxpool2d_forward", "maxpool1d_backward",
    "maxpool2d_backward",
)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the block with the oracle in place of ``repro.nn.kernels``'
    public kernels; the engine is restored on exit, error or not."""
    engine = {name: getattr(kernels, name) for name in PUBLIC}
    for name in PUBLIC:
        setattr(kernels, name, globals()[name])
    try:
        yield
    finally:
        for name, kernel in engine.items():
            setattr(kernels, name, kernel)


# ---------------------------------------------------------------------------
# ElmanRNN with the zero initial state built and multiplied in
# ---------------------------------------------------------------------------

def _elman_forward_reference(self, inputs: np.ndarray) -> np.ndarray:
    check_ndim("ElmanRNN", inputs, 3)
    if inputs.shape[2] != self.input_size:
        raise ShapeError(
            f"ElmanRNN expected input size {self.input_size}, "
            f"got {inputs.shape[2]}"
        )
    batch, steps, _ = inputs.shape
    hidden = np.zeros((batch, self.hidden_size))
    states: List[np.ndarray] = [hidden]
    for t in range(steps):
        pre = (
            inputs[:, t, :] @ self.w_in.value
            + hidden @ self.w_rec.value
            + self.bias.value
        )
        hidden = np.tanh(pre)
        states.append(hidden)
    self._cache = (inputs, states)
    return hidden


def _elman_backward_reference(
    self, grad_output: np.ndarray, need_input_grad: bool = True
) -> Optional[np.ndarray]:
    if self._cache is None:
        raise ShapeError("ElmanRNN.backward called before forward")
    inputs, states = self._cache
    batch, steps, _ = inputs.shape
    grad_inputs = np.zeros_like(inputs) if need_input_grad else None
    grad_hidden = grad_output
    for t in range(steps - 1, -1, -1):
        hidden = states[t + 1]
        previous = states[t]
        grad_pre = grad_hidden * (1.0 - hidden**2)
        self.w_in.grad += inputs[:, t, :].T @ grad_pre
        self.w_rec.grad += previous.T @ grad_pre
        self.bias.grad += grad_pre.sum(axis=0)
        if need_input_grad:
            grad_inputs[:, t, :] = grad_pre @ self.w_in.value.T
        if t:  # nothing precedes step 0
            grad_hidden = grad_pre @ self.w_rec.value.T
    return grad_inputs


@contextmanager
def reference_rnn() -> Iterator[None]:
    """Run the block with every ``ElmanRNN`` on the oracle's forward and
    backward; the layer's own are restored on exit, error or not.  A
    forward and its backward must run on the same side of the block:
    the two keep different step caches."""
    engine = ElmanRNN.forward, ElmanRNN.backward
    ElmanRNN.forward = _elman_forward_reference
    ElmanRNN.backward = _elman_backward_reference
    try:
        yield
    finally:
        ElmanRNN.forward, ElmanRNN.backward = engine


# ---------------------------------------------------------------------------
# Whole models on full batches
# ---------------------------------------------------------------------------

@contextmanager
def full_batches() -> Iterator[None]:
    """Run the block with no model splitting off an input stage, so
    every subset and batch holds whole samples and each step runs the
    whole model; restored on exit, error or not."""
    engine = Sequential.input_stage
    Sequential.input_stage = Module.input_stage
    try:
        yield
    finally:
        Sequential.input_stage = engine
