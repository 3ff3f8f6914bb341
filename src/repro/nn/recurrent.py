"""Recurrent layer for the NLP workload.

A plain Elman RNN with tanh activation, unrolled with backpropagation
through time.  The reproduction's TextRNN model tunes a *stride* parameter
(paper §5.1): the input sequence is subsampled with that stride before being
fed to the recurrence, trading sequence resolution for compute.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..rng import SeedLike, make_rng
from .initializers import orthogonal, xavier_uniform, zeros
from .module import Module, ParamTensor, Shape, check_ndim


class ElmanRNN(Module):
    """Single-layer tanh RNN returning the final hidden state.

    Input: (N, T, F); output: (N, H).  The initial state is zero and is
    never built: step 0 is ``tanh(x_0 @ W_in + b)``, and the backward adds
    into ``W_rec.grad`` only for t >= 1 (DESIGN §5c, "Zero initial
    state").  A zero-length sequence returns the zero state.  ``flops``
    still charges step 0's recurrent multiply: it is the emulated device's
    cost, not this host's.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: SeedLike = None):
        if input_size <= 0 or hidden_size <= 0:
            raise ShapeError("RNN sizes must be positive")
        generator = make_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_in = ParamTensor(
            "w_in",
            xavier_uniform(
                generator, (input_size, hidden_size), input_size, hidden_size
            ),
        )
        self.w_rec = ParamTensor("w_rec", orthogonal(generator, hidden_size))
        self.bias = ParamTensor("bias", zeros((hidden_size,)))
        self._cache: Optional[tuple] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("ElmanRNN", inputs, 3)
        if inputs.shape[2] != self.input_size:
            raise ShapeError(
                f"ElmanRNN expected input size {self.input_size}, "
                f"got {inputs.shape[2]}"
            )
        batch, steps, _ = inputs.shape
        if not steps:
            self._cache = (inputs, [])
            return np.zeros((batch, self.hidden_size))
        states: List[np.ndarray] = []
        for t in range(steps):
            pre = inputs[:, t, :] @ self.w_in.value
            if t:  # step 0 reads the zero initial state: no recurrent term
                pre = pre + hidden @ self.w_rec.value
            hidden = np.tanh(pre + self.bias.value)
            states.append(hidden)
        self._cache = (inputs, states)
        return hidden

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise ShapeError("ElmanRNN.backward called before forward")
        inputs, states = self._cache
        batch, steps, _ = inputs.shape
        grad_inputs = np.zeros_like(inputs) if need_input_grad else None
        grad_hidden = grad_output
        for t in range(steps - 1, -1, -1):
            hidden = states[t]
            grad_pre = grad_hidden * (1.0 - hidden**2)
            self.w_in.grad += inputs[:, t, :].T @ grad_pre
            self.bias.grad += grad_pre.sum(axis=0)
            if need_input_grad:
                grad_inputs[:, t, :] = grad_pre @ self.w_in.value.T
            if t:  # step 0 reads the zero initial state: no recurrent term
                self.w_rec.grad += states[t - 1].T @ grad_pre
                grad_hidden = grad_pre @ self.w_rec.value.T
        return grad_inputs

    def parameters(self) -> List[ParamTensor]:
        return [self.w_in, self.w_rec, self.bias]

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        steps, features = input_shape
        per_step = (
            2 * features * self.hidden_size
            + 2 * self.hidden_size * self.hidden_size
            + 5 * self.hidden_size  # bias add + tanh
        )
        return per_step * steps, (self.hidden_size,)


class SequenceStride(Module):
    """Subsample the time axis with a fixed stride: (N, T, F) -> (N, ceil(T/s), F).

    This is the tunable *stride* model-hyperparameter of the NLP workload: a
    larger stride shortens the unrolled recurrence (cheaper) at the cost of
    dropping tokens (potentially less accurate).  It is a model's input
    stage: the trainer strides a whole dataset once and gathers only the
    kept steps (DESIGN §5c, "Input stage").
    """

    sample_view = True

    def __init__(self, stride: int):
        if stride <= 0:
            raise ShapeError("stride must be positive")
        self.stride = int(stride)
        self._input_shape: Optional[Tuple[int, int, int]] = None

    def view(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("SequenceStride", inputs, 3)
        return inputs[:, :: self.stride, :]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        outputs = self.view(inputs)
        self._input_shape = inputs.shape
        return outputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("SequenceStride.backward called before forward")
        grad = np.zeros(self._input_shape, dtype=np.float64)
        grad[:, :: self.stride, :] = grad_output
        return grad

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        steps, features = input_shape
        kept = (steps + self.stride - 1) // self.stride
        return 0, (kept, features)
