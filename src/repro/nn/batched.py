"""Batched-trial training: K trials stacked along a leading tensor axis.

The PR 4 kernel pass made a single trial ~2x faster; the next win is
training *many trials at once*.  Configurations sampled by the searchers
frequently share architecture shapes and differ only in scalars (lr,
momentum, dropout), so K such trials can be stacked into one leading axis
and run as a single fused forward/backward per step — K small gemms become
one large BLAS-efficient ``np.matmul``, and the Python dispatch overhead
(which dominates at the paper's tiny real batch sizes) is paid once per
layer instead of once per layer per trial.

The contract that makes this safe is **bit-identity**: every lane of a
stacked run must produce exactly the floating-point trajectory of the
serial :func:`repro.nn.trainer.train_model` run with the same seed.  The
implementation therefore mirrors the serial op sequences element-for-
element:

* stacked gemms ``(K, n, F) @ (K, F, O)`` reduce per lane to the same
  2-D gemm the serial layer runs (verified bitwise for the transposed
  forms and ``out=`` variants used here);
* reductions, fancy-index picks and in-place optimizer updates operate
  lane-independently, in the serial operand order;
* per-lane RNG streams are drawn from the same derived seeds the serial
  loop would use, in the same order (dropout masks steal the serial
  modules' live generators);
* divergence is handled by *masking*: the serial loop checks the loss
  for finiteness **before** backward/step, so a lane that goes
  non-finite is frozen before its weights could change — other lanes
  proceed untouched because no batched op ever mixes lanes.

Conv layers flatten the lane axis into the batch axis ``(K, n, …) →
(K·n, …)`` so the existing :mod:`repro.nn.kernels` fast im2col/maxpool
paths are reused verbatim, with stacked gemms around them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..datasets.base import Dataset
from ..errors import BudgetError, ConfigurationError, ShapeError
from ..faults import corrupt_nan
from ..rng import SeedLike, ensure_seed, spawn_rng
from . import kernels
from .conv import (
    Conv1d,
    Conv2d,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    MaxPool1d,
    MaxPool2d,
    _out_length,
)
from .layers import (
    Dropout,
    Flatten,
    Linear,
    ReLU,
    Residual,
    Sequential,
    Tanh,
    backward_chain,
)
from .losses import (
    CrossEntropyLoss,
    DetectionLoss,
    Loss,
    SoftmaxCrossEntropy,
)
from .module import Module, ParamTensor
from .optimizers import pack_arena, sgd_update
from .trainer import BACKWARD_FLOPS_FACTOR, TrainingResult, evaluate_accuracy


class UnstackableModelError(ShapeError):
    """The model tree contains a layer the batched path cannot stack."""


# ---------------------------------------------------------------------------
# Stacked parameters and scratch management
# ---------------------------------------------------------------------------


class BatchedParam:
    """K per-trial :class:`ParamTensor`\\ s stacked on a leading axis.

    ``value``/``grad`` have shape ``(K,) + source_shape``; lane ``k`` is
    trial ``k``'s tensor.  :meth:`unstack` writes the trained values back
    into the source tensors so the untouched serial evaluation path (and
    artifact serialization) sees ordinary per-trial models.
    """

    __slots__ = ("sources", "value", "grad")

    def __init__(self, sources: Sequence[ParamTensor]):
        self.sources = list(sources)
        self.value = np.stack([p.value for p in self.sources])
        self.grad = np.zeros_like(self.value)

    @property
    def lanes(self) -> int:
        return self.value.shape[0]

    def unstack(self) -> None:
        for lane, parameter in enumerate(self.sources):
            parameter.value[...] = self.value[lane]


def _buffered_matmul(
    a: np.ndarray, b: np.ndarray, holder: Dict[str, np.ndarray], key: str
) -> np.ndarray:
    """Stacked gemm into a persistent per-layer buffer (zero-alloc steps)."""
    shape = (a.shape[0], a.shape[1], b.shape[-1])
    buffer = holder.get(key)
    if buffer is None or buffer.shape != shape:
        buffer = np.empty(shape, dtype=np.float64)
        holder[key] = buffer
    np.matmul(a, b, out=buffer)
    return buffer


def _zeroed_buffer(
    shape: tuple, holder: Dict[str, np.ndarray], key: str
) -> np.ndarray:
    buffer = holder.get(key)
    if buffer is None or buffer.shape != shape:
        buffer = np.zeros(shape, dtype=np.float64)
        holder[key] = buffer
    else:
        buffer.fill(0.0)
    return buffer


# ---------------------------------------------------------------------------
# Layer twins — each mirrors its serial counterpart's op sequence per lane
# ---------------------------------------------------------------------------


class BatchedModule:
    """Base class for stacked layer twins (lane axis leads every tensor)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Stacked :meth:`Module.backward`, ``need_input_grad`` rule
        included: a twin that owns parameters takes the flag."""
        raise NotImplementedError

    def parameters(self) -> List[BatchedParam]:
        return []


class BSequential(BatchedModule):
    def __init__(self, twins: Sequence[BatchedModule]):
        self.twins = list(twins)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        for twin in self.twins:
            inputs = twin.forward(inputs)
        return inputs

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        return backward_chain(self.twins, grad_output, need_input_grad)

    def parameters(self) -> List[BatchedParam]:
        collected: List[BatchedParam] = []
        for twin in self.twins:
            collected.extend(twin.parameters())
        return collected


class BResidual(BatchedModule):
    def __init__(self, inner: BatchedModule):
        self.inner = inner

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.inner.forward(inputs) + inputs

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if not need_input_grad:
            return self.inner.backward(grad_output, need_input_grad=False)
        return self.inner.backward(grad_output) + grad_output

    def parameters(self) -> List[BatchedParam]:
        return self.inner.parameters()


class BLinear(BatchedModule):
    def __init__(self, lanes: Sequence[Linear]):
        self.weight = BatchedParam([m.weight for m in lanes])
        self.bias = BatchedParam([m.bias for m in lanes])
        self._inputs: Optional[np.ndarray] = None
        self._scratch: Dict[str, np.ndarray] = {}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._inputs = inputs
        out = _buffered_matmul(inputs, self.weight.value, self._scratch, "fwd")
        out += self.bias.value[:, None, :]
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        self.weight.grad += _buffered_matmul(
            self._inputs.transpose(0, 2, 1), grad_output,
            self._scratch, "wgrad",
        )
        self.bias.grad += grad_output.sum(axis=1)
        if not need_input_grad:
            return None
        return _buffered_matmul(
            grad_output, self.weight.value.transpose(0, 2, 1),
            self._scratch, "bwd",
        )

    def parameters(self) -> List[BatchedParam]:
        return [self.weight, self.bias]


class BReLU(BatchedModule):
    def __init__(self, lanes: Sequence[ReLU]):
        self._mask: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None
        self._grad: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if self._mask is not None and self._mask.shape == inputs.shape:
            np.greater(inputs, 0, out=self._mask)
        else:
            self._mask = inputs > 0
        if self._out is not None and self._out.shape == inputs.shape:
            return np.multiply(inputs, self._mask, out=self._out)
        self._out = inputs * self._mask
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._grad is not None and self._grad.shape == grad_output.shape:
            return np.multiply(grad_output, self._mask, out=self._grad)
        self._grad = grad_output * self._mask
        return self._grad


class BTanh(BatchedModule):
    def __init__(self, lanes: Sequence[Tanh]):
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._output = np.tanh(inputs)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._output ** 2)


class BDropout(BatchedModule):
    """Per-lane dropout with per-lane rates and *shared* serial RNGs.

    Each lane draws its mask from the serial module's own generator, in
    lane order, so the stream a lane consumes is exactly the stream the
    serial run would have consumed.  Rate-0 lanes get a mask of ones
    (``x * 1.0`` is bitwise ``x`` for finite values).
    """

    def __init__(self, lanes: Sequence[Dropout]):
        self.rates = [float(m.rate) for m in lanes]
        self._rngs = [m._rng for m in lanes]
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if all(rate == 0.0 for rate in self.rates):
            self._mask = None
            return inputs
        mask = np.empty_like(inputs)
        for lane, (rate, rng) in enumerate(zip(self.rates, self._rngs)):
            if rate == 0.0:
                mask[lane] = 1.0
            else:
                keep = 1.0 - rate
                mask[lane] = (rng.random(inputs.shape[1:]) < keep) / keep
        self._mask = mask
        return inputs * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class BFlatten(BatchedModule):
    def __init__(self, lanes: Sequence[Flatten]):
        self._shape: Optional[tuple] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._shape = inputs.shape
        return inputs.reshape(inputs.shape[0], inputs.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._shape)


class BConv1d(BatchedModule):
    def __init__(self, lanes: Sequence[Conv1d]):
        head = lanes[0]
        self.in_channels = head.in_channels
        self.out_channels = head.out_channels
        self.kernel_size = head.kernel_size
        self.stride = head.stride
        self.weight = BatchedParam([m.weight for m in lanes])
        self.bias = BatchedParam([m.bias for m in lanes])
        self._cols: Optional[np.ndarray] = None
        self._geometry: Optional[tuple] = None
        self._scratch: Dict[str, np.ndarray] = {}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        lanes, batch = inputs.shape[0], inputs.shape[1]
        length = inputs.shape[3]
        out_len = _out_length(length, self.kernel_size, self.stride)
        flat = np.ascontiguousarray(inputs).reshape(
            (lanes * batch,) + inputs.shape[2:]
        )
        cols = kernels.im2col_1d(flat, self.kernel_size, self.stride, out_len)
        self._cols = cols.reshape(lanes, batch * out_len, cols.shape[-1])
        self._geometry = (lanes, batch, inputs.shape[2], length, out_len)
        out = _buffered_matmul(
            self._cols, self.weight.value, self._scratch, "fwd"
        )
        out += self.bias.value[:, None, :]
        return out.reshape(
            lanes, batch, out_len, self.out_channels
        ).transpose(0, 1, 3, 2)

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        lanes, batch, channels, length, out_len = self._geometry
        flat_grad = np.ascontiguousarray(
            grad_output.transpose(0, 1, 3, 2).reshape(
                lanes, batch * out_len, self.out_channels
            )
        )
        self.weight.grad += _buffered_matmul(
            self._cols.transpose(0, 2, 1), flat_grad, self._scratch, "wgrad"
        )
        self.bias.grad += flat_grad.sum(axis=1)
        if not need_input_grad:
            return None
        w_perm = self.weight.value.reshape(
            lanes, channels, self.kernel_size, self.out_channels
        ).transpose(0, 2, 1, 3).reshape(
            lanes, self.kernel_size * channels, self.out_channels
        )
        grad_cols = _buffered_matmul(
            flat_grad, w_perm.transpose(0, 2, 1), self._scratch, "gcols"
        )
        grad = _zeroed_buffer(
            (lanes * batch, channels, length), self._scratch, "ginput"
        )
        blocks = grad_cols.reshape(
            lanes * batch, out_len, self.kernel_size, channels
        )
        for offset in range(self.kernel_size):
            end = offset + (out_len - 1) * self.stride + 1
            grad[:, :, offset:end:self.stride] += (
                blocks[:, :, offset, :].transpose(0, 2, 1)
            )
        return grad.reshape(lanes, batch, channels, length)

    def parameters(self) -> List[BatchedParam]:
        return [self.weight, self.bias]


class BConv2d(BatchedModule):
    def __init__(self, lanes: Sequence[Conv2d]):
        head = lanes[0]
        self.in_channels = head.in_channels
        self.out_channels = head.out_channels
        self.kernel_size = head.kernel_size
        self.stride = head.stride
        self.weight = BatchedParam([m.weight for m in lanes])
        self.bias = BatchedParam([m.bias for m in lanes])
        self._cols: Optional[np.ndarray] = None
        self._geometry: Optional[tuple] = None
        self._scratch: Dict[str, np.ndarray] = {}

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        lanes, batch = inputs.shape[0], inputs.shape[1]
        height, width = inputs.shape[3], inputs.shape[4]
        k, s = self.kernel_size, self.stride
        out_h = _out_length(height, k, s)
        out_w = _out_length(width, k, s)
        flat = np.ascontiguousarray(inputs).reshape(
            (lanes * batch,) + inputs.shape[2:]
        )
        cols = kernels.im2col_2d(flat, k, s, out_h, out_w)
        self._cols = cols.reshape(lanes, batch * out_h * out_w, cols.shape[-1])
        self._geometry = (
            lanes, batch, inputs.shape[2], height, width, out_h, out_w,
        )
        out = _buffered_matmul(
            self._cols, self.weight.value, self._scratch, "fwd"
        )
        out += self.bias.value[:, None, :]
        return out.reshape(
            lanes, batch, out_h * out_w, self.out_channels
        ).transpose(0, 1, 3, 2).reshape(
            lanes, batch, self.out_channels, out_h, out_w
        )

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        lanes, batch, channels, height, width, out_h, out_w = self._geometry
        k, s = self.kernel_size, self.stride
        positions = out_h * out_w
        flat_grad = np.ascontiguousarray(
            grad_output.reshape(
                lanes, batch, self.out_channels, positions
            ).transpose(0, 1, 3, 2).reshape(
                lanes, batch * positions, self.out_channels
            )
        )
        self.weight.grad += _buffered_matmul(
            self._cols.transpose(0, 2, 1), flat_grad, self._scratch, "wgrad"
        )
        self.bias.grad += flat_grad.sum(axis=1)
        if not need_input_grad:
            return None
        w_perm = self.weight.value.reshape(
            lanes, channels, k * k, self.out_channels
        ).transpose(0, 2, 1, 3).reshape(
            lanes, k * k * channels, self.out_channels
        )
        grad_cols = _buffered_matmul(
            flat_grad, w_perm.transpose(0, 2, 1), self._scratch, "gcols"
        )
        grad = _zeroed_buffer(
            (lanes * batch, channels, height, width), self._scratch, "ginput"
        )
        blocks = grad_cols.reshape(
            lanes * batch, out_h, out_w, k * k, channels
        )
        for dy in range(k):
            row_end = dy + (out_h - 1) * s + 1
            for dx in range(k):
                col_end = dx + (out_w - 1) * s + 1
                grad[:, :, dy:row_end:s, dx:col_end:s] += (
                    blocks[:, :, :, dy * k + dx, :].transpose(0, 3, 1, 2)
                )
        return grad.reshape(lanes, batch, channels, height, width)

    def parameters(self) -> List[BatchedParam]:
        return [self.weight, self.bias]


class BMaxPool1d(BatchedModule):
    def __init__(self, lanes: Sequence[MaxPool1d]):
        self.kernel_size = lanes[0].kernel_size
        self._cache: Optional[tuple] = None
        self._grad: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        lanes, batch, channels, length = inputs.shape
        out_len = length // self.kernel_size
        flat = inputs.reshape(lanes * batch, channels, length)
        trimmed = flat[:, :, : out_len * self.kernel_size]
        windows = trimmed.reshape(
            lanes * batch, channels, out_len, self.kernel_size
        )
        maxima, argmax = kernels.maxpool_forward(windows)
        self._cache = (inputs.shape, out_len, argmax)
        return maxima.reshape(lanes, batch, channels, out_len)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape, out_len, argmax = self._cache
        lanes, batch, channels, length = shape
        flat_grad = np.ascontiguousarray(
            grad_output.reshape(lanes * batch, channels, out_len)
        )
        self._grad = kernels.maxpool1d_backward(
            flat_grad, (lanes * batch, channels, length), out_len,
            self.kernel_size, argmax, out=self._grad,
        )
        return self._grad.reshape(lanes, batch, channels, length)


class BMaxPool2d(BatchedModule):
    def __init__(self, lanes: Sequence[MaxPool2d]):
        self.kernel_size = lanes[0].kernel_size
        self._cache: Optional[tuple] = None
        self._grad: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        lanes, batch, channels, height, width = inputs.shape
        k = self.kernel_size
        out_h, out_w = height // k, width // k
        flat = inputs.reshape(lanes * batch, channels, height, width)
        trimmed = flat[:, :, : out_h * k, : out_w * k]
        maxima, argmax = kernels.maxpool2d_forward(trimmed, k)
        self._cache = (inputs.shape, out_h, out_w, argmax)
        return maxima.reshape(lanes, batch, channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape, out_h, out_w, argmax = self._cache
        lanes, batch, channels, height, width = shape
        flat_grad = np.ascontiguousarray(
            grad_output.reshape(lanes * batch, channels, out_h, out_w)
        )
        self._grad = kernels.maxpool2d_backward(
            flat_grad, (lanes * batch, channels, height, width),
            out_h, out_w, self.kernel_size, argmax, out=self._grad,
        )
        return self._grad.reshape(lanes, batch, channels, height, width)


class BGlobalAvgPool1d(BatchedModule):
    def __init__(self, lanes: Sequence[GlobalAvgPool1d]):
        self._shape: Optional[tuple] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._shape = inputs.shape
        return inputs.mean(axis=3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        length = self._shape[3]
        return np.broadcast_to(
            grad_output[:, :, :, None] / length, self._shape
        ).copy()


class BGlobalAvgPool2d(BatchedModule):
    def __init__(self, lanes: Sequence[GlobalAvgPool2d]):
        self._shape: Optional[tuple] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._shape = inputs.shape
        return inputs.mean(axis=(3, 4))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        area = self._shape[3] * self._shape[4]
        return np.broadcast_to(
            grad_output[:, :, :, None, None] / area, self._shape
        ).copy()


_LEAF_TWINS = {
    Linear: BLinear,
    ReLU: BReLU,
    Tanh: BTanh,
    Dropout: BDropout,
    Flatten: BFlatten,
    Conv1d: BConv1d,
    Conv2d: BConv2d,
    MaxPool1d: BMaxPool1d,
    MaxPool2d: BMaxPool2d,
    GlobalAvgPool1d: BGlobalAvgPool1d,
    GlobalAvgPool2d: BGlobalAvgPool2d,
}


def stackable_model(module: Module) -> bool:
    """True when every layer in the tree has a batched twin."""
    kind = type(module)
    if kind is Sequential:
        return all(stackable_model(child) for child in module.modules)
    if kind is Residual:
        return stackable_model(module.inner)
    return kind in _LEAF_TWINS


def stack_modules(models: Sequence[Module]) -> BatchedModule:
    """Stack K structurally identical models into one batched twin tree.

    The lanes must agree on layer types and parameter shapes (the grouping
    signature guarantees this for trial batches); a mismatch or an
    unsupported layer raises :class:`UnstackableModelError`.
    """
    if not models:
        raise UnstackableModelError("cannot stack an empty model list")
    head = models[0]
    kind = type(head)
    if any(type(m) is not kind for m in models):
        raise UnstackableModelError(
            "lanes disagree on layer type at "
            f"{sorted({type(m).__name__ for m in models})}"
        )
    if kind is Sequential:
        if any(len(m.modules) != len(head.modules) for m in models):
            raise UnstackableModelError("lanes disagree on Sequential length")
        return BSequential([
            stack_modules([m.modules[i] for m in models])
            for i in range(len(head.modules))
        ])
    if kind is Residual:
        return BResidual(stack_modules([m.inner for m in models]))
    twin = _LEAF_TWINS.get(kind)
    if twin is None:
        raise UnstackableModelError(
            f"no batched twin for layer type {kind.__name__}"
        )
    if hasattr(head, "parameters"):
        shapes = [tuple(p.value.shape for p in m.parameters()) for m in models]
        if any(s != shapes[0] for s in shapes):
            raise UnstackableModelError(
                f"lanes disagree on {kind.__name__} parameter shapes"
            )
    return twin(models)


# ---------------------------------------------------------------------------
# Batched losses — return per-lane ``(K,)`` loss vectors
# ---------------------------------------------------------------------------


class BatchedDetectionLoss:
    """Per-lane detection loss over ``(K, n, 4 + C)`` predictions."""

    def __init__(self, num_classes: int, box_weight: float = 1.0):
        self.num_classes = int(num_classes)
        self.box_weight = float(box_weight)
        self._class_term = SoftmaxCrossEntropy("stacked DetectionLoss")
        self._cache: Optional[tuple] = None

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        targets = np.asarray(targets, dtype=np.float64)
        boxes_pred = predictions[:, :, :4]
        boxes_true = targets[:, :, :4]
        # Serial computes ``((bp - bt) ** 2).mean()`` over the 2-D slice;
        # flattening each lane before the mean keeps the identical
        # pairwise-summation reduction tree per lane.
        box_loss = (
            (boxes_pred - boxes_true) ** 2
        ).reshape(len(predictions), -1).mean(axis=1)
        class_loss = self._class_term.forward(
            predictions[:, :, 4:], targets[:, :, 4].astype(int)
        )
        self._cache = (boxes_pred, boxes_true)
        return self.box_weight * box_loss + class_loss

    def backward(self) -> np.ndarray:
        grad_class = self._class_term.backward()
        boxes_pred, boxes_true = self._cache
        lanes, batch = boxes_pred.shape[:2]
        grad = np.empty((lanes, batch, 4 + self.num_classes))
        grad[:, :, :4] = (
            self.box_weight * 2.0 * (boxes_pred - boxes_true) / (batch * 4)
        )
        grad[:, :, 4:] = grad_class
        return grad


def batched_loss_for(loss: Loss):
    """Build the batched twin of a serial loss instance."""
    if type(loss) is CrossEntropyLoss:
        # The serial loss's fused kernel takes the stack as it is.
        return SoftmaxCrossEntropy("stacked CrossEntropyLoss")
    if type(loss) is DetectionLoss:
        return BatchedDetectionLoss(loss.num_classes, loss.box_weight)
    raise UnstackableModelError(
        f"no batched twin for loss type {type(loss).__name__}"
    )


# ---------------------------------------------------------------------------
# Batched optimizer
# ---------------------------------------------------------------------------


class BatchedSGD:
    """SGD over stacked parameters with per-lane learning rates.

    The stacked parameters live in one flat arena (:func:`pack_arena`),
    each ``(K, ...)`` tensor a contiguous block, and ``_lr`` holds every
    element's own lane's rate.  The all-lanes-active step is then the exact
    serial in-place op sequence over the whole arena (each element sees the
    scalar multiply its lane would see in serial).  When some lanes are
    frozen by divergence, the update runs on fancy-index copies of the
    active lanes' elements and writes back — the same per-element
    arithmetic on the surviving lanes, and no touch at all on frozen ones.
    """

    def __init__(
        self,
        parameters: Sequence[BatchedParam],
        lr: Union[float, Sequence[float]],
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        self.parameters = list(parameters)
        lanes = self.parameters[0].lanes if self.parameters else 0
        rates = np.asarray(lr, dtype=np.float64)
        if rates.ndim == 0:
            rates = np.full(max(lanes, 1), float(rates))
        if np.any(rates <= 0):
            raise ConfigurationError(
                f"learning rates must be positive, got {rates.tolist()}"
            )
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        if weight_decay < 0.0:
            raise ConfigurationError("weight decay must be non-negative")
        self.lrs = rates
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.values, self.grads = pack_arena(self.parameters)
        self.velocity = np.zeros_like(self.values)
        self.scratch = np.empty_like(self.values)
        #: Lane of every arena element (blocks are lane-major inside).
        self._lane = np.concatenate(
            [np.empty(0, dtype=np.intp)] + [
                np.repeat(np.arange(lanes), p.value[0].size)
                for p in self.parameters
            ]
        )
        self._lr = rates[self._lane]

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def step(self, active: Optional[np.ndarray] = None) -> None:
        if active is None or bool(active.all()):
            sgd_update(
                self.values, self.grads, self.velocity, self.scratch,
                self._lr, self.momentum, self.weight_decay,
            )
            return
        if not active.any():
            return
        index = np.flatnonzero(active[self._lane])
        value, velocity = self.values[index], self.velocity[index]
        sgd_update(
            value, self.grads[index], velocity, np.empty_like(value),
            self._lr[index], self.momentum, self.weight_decay,
        )
        self.values[index] = value
        self.velocity[index] = velocity


# ---------------------------------------------------------------------------
# Batched training loop
# ---------------------------------------------------------------------------


def train_model_batch(
    models: Sequence[Module],
    loss: Loss,
    train_set: Dataset,
    eval_set: Dataset,
    epochs: int,
    batch_size: int,
    lr: Union[float, Sequence[float]] = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    data_fraction: float = 1.0,
    seeds: Optional[Sequence[SeedLike]] = None,
) -> List[TrainingResult]:
    """Train K models as one stacked run; each lane is bit-identical to
    the serial :func:`~repro.nn.trainer.train_model` run with its seed.

    ``seeds`` carries one training seed per lane (the serial call's
    ``seed`` argument).  Per-lane RNG streams (subset draw, per-epoch
    shuffle, fault-injection key) are derived exactly as the serial loop
    derives them; the per-lane index vectors are composed into one
    ``(K, n)`` gather so each lane trains on its own sample order inside
    the shared stacked step.
    """
    lanes = len(models)
    if lanes == 0:
        return []
    if epochs <= 0:
        raise BudgetError(f"epochs must be positive, got {epochs}")
    if seeds is None:
        seeds = [None] * lanes
    if len(seeds) != lanes:
        raise ConfigurationError(
            f"got {len(seeds)} seeds for {lanes} models"
        )
    base_seeds = [ensure_seed(seed) for seed in seeds]

    stacked = stack_modules(models)
    batched_loss = batched_loss_for(loss)
    optimizer = BatchedSGD(
        stacked.parameters(), lr=lr,
        momentum=momentum, weight_decay=weight_decay,
    )

    # Per-lane subset rows, drawn like ``Dataset.subset``: identity at
    # fraction 1.0 (serial returns the dataset itself), otherwise the
    # first ``count`` entries of the lane's seeded permutation.
    total = len(train_set)
    fraction = float(data_fraction)
    if fraction == 1.0:
        lane_rows: List[Optional[np.ndarray]] = [None] * lanes
        subset_len = total
    else:
        count = max(1, int(math.floor(total * fraction)))
        lane_rows = [
            spawn_rng(base_seed, "subset").permutation(total)[:count]
            for base_seed in base_seeds
        ]
        subset_len = count

    forward_flops = [
        model.flops(train_set.sample_shape)[0] for model in models
    ]
    for model in models:
        model.train()
    features, targets = train_set.features, train_set.targets

    active = np.ones(lanes, dtype=bool)
    diverged = np.zeros(lanes, dtype=bool)
    first_batch = True
    losses: List[List[float]] = [[] for _ in range(lanes)]
    samples_seen = [0] * lanes
    epochs_completed = [0] * lanes
    selection = np.empty((lanes, subset_len), dtype=np.intp)

    for epoch in range(epochs):
        if not active.any():
            break
        for lane in range(lanes):
            if not active[lane]:
                continue
            order = np.arange(subset_len)
            spawn_rng(base_seeds[lane], "epoch", epoch).shuffle(order)
            rows = lane_rows[lane]
            selection[lane] = order if rows is None else rows[order]
        epoch_loss = [0.0] * lanes
        batch_counts = [0] * lanes
        entered = active.copy()
        for start in range(0, subset_len, batch_size):
            stop = min(start + batch_size, subset_len)
            batch_sel = selection[:, start:stop]
            batch_features = features[batch_sel]
            batch_targets = targets[batch_sel]
            optimizer.zero_grad()
            outputs = stacked.forward(batch_features)
            loss_vector = np.asarray(
                batched_loss.forward(outputs, batch_targets),
                dtype=np.float64,
            )
            if first_batch:
                # Fault site trainer.nan, keyed per lane exactly like the
                # serial loop keys it (by the lane's training seed) — the
                # divergence mask below contains it to the one lane.
                for lane in range(lanes):
                    loss_vector[lane] = corrupt_nan(
                        "trainer.nan", float(loss_vector[lane]),
                        key=base_seeds[lane],
                    )
                first_batch = False
            newly_diverged = active & ~np.isfinite(loss_vector)
            if newly_diverged.any():
                # Serial aborts *before* backward/step, so the diverged
                # lane's weights stay frozen at their pre-step values.
                diverged |= newly_diverged
                active &= ~newly_diverged
            if not active.any():
                break
            stacked.backward(
                batched_loss.backward(), need_input_grad=False
            )
            optimizer.step(active)
            width = stop - start
            for lane in np.flatnonzero(active):
                epoch_loss[lane] += float(loss_vector[lane])
                batch_counts[lane] += 1
                samples_seen[lane] += width
        for lane in range(lanes):
            if not (entered[lane] and active[lane]):
                continue
            epochs_completed[lane] += 1
            if batch_counts[lane]:
                losses[lane].append(epoch_loss[lane] / batch_counts[lane])

    for parameter in stacked.parameters():
        parameter.unstack()

    results: List[TrainingResult] = []
    for lane, model in enumerate(models):
        lane_diverged = bool(diverged[lane])
        accuracy = 0.0 if lane_diverged else evaluate_accuracy(
            model, eval_set
        )
        if not np.isfinite(accuracy):
            accuracy, lane_diverged = 0.0, True
        train_forward = forward_flops[lane] * samples_seen[lane]
        results.append(TrainingResult(
            accuracy=accuracy,
            losses=losses[lane],
            epochs_run=epochs_completed[lane],
            data_fraction=min(data_fraction, 1.0),
            samples_seen=samples_seen[lane],
            batch_size=batch_size,
            forward_flops_per_sample=int(forward_flops[lane]),
            train_forward_flops=int(train_forward),
            train_total_flops=int(
                train_forward * (1.0 + BACKWARD_FLOPS_FACTOR)
            ),
            parameter_count=model.parameter_count(),
            diverged=lane_diverged,
            resume_state=None,
        ))
    return results
