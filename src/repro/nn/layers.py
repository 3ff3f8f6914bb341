"""Dense and utility layers: Linear, activations, Dropout, BatchNorm, etc."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from ..rng import SeedLike, make_rng
from .initializers import he_normal, zeros
from .module import Module, ParamTensor, Shape, check_ndim


class Linear(Module):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: SeedLike = None):
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("Linear features must be positive")
        generator = make_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = ParamTensor(
            "weight", he_normal(generator, (in_features, out_features), in_features)
        )
        self.bias = ParamTensor("bias", zeros((out_features,)))
        self._inputs: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("Linear", inputs, 2)
        if inputs.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected {self.in_features} features, "
                f"got {inputs.shape[-1]}"
            )
        self._inputs = inputs
        return inputs @ self.weight.value + self.bias.value[..., None, :]

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._inputs is None:
            raise ShapeError("Linear.backward called before forward")
        self.weight.grad += self._inputs.swapaxes(-1, -2) @ grad_output
        self.bias.grad += grad_output.sum(axis=-2)
        if not need_input_grad:
            return None
        return grad_output @ self.weight.value.swapaxes(-1, -2)

    def parameters(self) -> List[ParamTensor]:
        return [self.weight, self.bias]

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        (features,) = input_shape
        # One multiply-add per weight, plus the bias add.
        return 2 * features * self.out_features + self.out_features, (
            self.out_features,
        )


class ReLU(Module):
    """Rectified linear unit.

    Keeps its mask/output/gradient buffers across steps so steady-state
    training allocates nothing here (activations are among the largest
    arrays in a step).  The returned arrays are therefore only valid
    until the next call — the same contract as the conv layers' reused
    gradient buffers.
    """

    def __init__(self) -> None:
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
        if self._mask is None:
            raise ShapeError("ReLU.backward called before forward")
        if self._grad is None or self._grad.shape != self._mask.shape:
            # Laid out like the mask, i.e. like the activation this
            # gradient pairs with (see repro.nn.kernels).
            self._grad = np.empty_like(self._mask, dtype=np.float64)
        return np.multiply(grad_output, self._mask, out=self._grad)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        return int(np.prod(input_shape)), input_shape


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._output = np.tanh(inputs)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ShapeError("Tanh.backward called before forward")
        return grad_output * (1.0 - self._output**2)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        # tanh is several flops per element; 4 is the conventional estimate.
        return 4 * int(np.prod(input_shape)), input_shape


class Dropout(Module):
    """Inverted dropout: active only while training.

    The YOLO-lite workload tunes this layer's ``rate`` (paper §5.1: dropout
    in [0.1, 0.5]).
    """

    def __init__(self, rate: float, rng: SeedLike = None):
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = make_rng(rng)
        self._mask: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        return int(np.prod(input_shape)), input_shape


class Flatten(Module):
    """Collapse each sample's dimensions into one."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("Flatten.backward called before forward")
        return grad_output.reshape(self._input_shape)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        return 0, (int(np.prod(input_shape)),)


class BatchNorm1d(Module):
    """Batch normalization over feature vectors (N, F).

    Uses batch statistics while training and exponential running statistics
    for inference, like the standard formulation.
    """

    def __init__(self, features: int, momentum: float = 0.1, eps: float = 1e-5):
        self.features = features
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = ParamTensor("gamma", np.ones((features,)))
        self.beta = ParamTensor("beta", zeros((features,)))
        self.running_mean = np.zeros((features,))
        self.running_var = np.ones((features,))
        self._cache: Optional[tuple] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        check_ndim("BatchNorm1d", inputs, 2)
        if self.training:
            mean = inputs.mean(axis=0)
            var = inputs.var(axis=0)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        normalized = (inputs - mean) / std
        self._cache = (normalized, std)
        return self.gamma.value * normalized + self.beta.value

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache is None:
            raise ShapeError("BatchNorm1d.backward called before forward")
        normalized, std = self._cache
        batch = grad_output.shape[0]
        self.gamma.grad += (grad_output * normalized).sum(axis=0)
        self.beta.grad += grad_output.sum(axis=0)
        if not need_input_grad:
            return None
        grad_normalized = grad_output * self.gamma.value
        if not self.training:
            return grad_normalized / std
        # Standard batch-norm backward through the batch statistics.
        return (
            grad_normalized
            - grad_normalized.mean(axis=0)
            - normalized * (grad_normalized * normalized).mean(axis=0)
        ) / std

    def parameters(self) -> List[ParamTensor]:
        return [self.gamma, self.beta]

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        return 4 * int(np.prod(input_shape)), input_shape


class Residual(Module):
    """Residual wrapper: ``y = inner(x) + x`` (shapes must match).

    The ResNet-like reproduction model stacks these blocks; the tunable
    ``num_layers`` hyperparameter controls how many.
    """

    def __init__(self, inner: Module):
        self.inner = inner

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.inner.forward(inputs) + inputs

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if not need_input_grad:
            return self.inner.backward(grad_output, need_input_grad=False)
        return self.inner.backward(grad_output) + grad_output

    def parameters(self) -> List[ParamTensor]:
        return self.inner.parameters()

    def children(self):
        return (self.inner,)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        inner_flops, output_shape = self.inner.flops(input_shape)
        if tuple(output_shape) != tuple(input_shape):
            raise ShapeError(
                "Residual inner module must preserve shape: "
                f"{input_shape} -> {output_shape}"
            )
        return inner_flops + int(np.prod(input_shape)), input_shape


def backward_chain(
    modules: Sequence, grad: np.ndarray, need_input_grad: bool
) -> Optional[np.ndarray]:
    """Backpropagate ``grad`` through ``modules``, last to first.

    Without a consumer for the input gradient the chain ends at the first
    module that owns parameters (which is told so in turn); the
    parameter-free modules in front of it have nothing to learn.
    """
    if need_input_grad:
        for module in reversed(modules):
            grad = module.backward(grad)
        return grad
    head = next((i for i, m in enumerate(modules) if m.parameters()), None)
    if head is not None:
        for module in reversed(modules[head + 1:]):
            grad = module.backward(grad)
        modules[head].backward(grad, need_input_grad=False)
    return None


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        self.modules: List[Module] = list(modules)

    def append(self, module: Module) -> "Sequential":
        self.modules.append(module)
        return self

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for module in self.modules:
            output = module.forward(output)
        return output

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        return backward_chain(self.modules, grad_output, need_input_grad)

    def parameters(self) -> List[ParamTensor]:
        result: List[ParamTensor] = []
        for module in self.modules:
            result.extend(module.parameters())
        return result

    def children(self):
        return tuple(self.modules)

    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        total = 0
        shape = input_shape
        for module in self.modules:
            module_flops, shape = module.flops(shape)
            total += module_flops
        return total, shape
