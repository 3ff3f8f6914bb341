"""Optimizers and learning-rate schedules.

The paper's trials follow the standard stochastic gradient descent recipe
(mini-batch SGD with momentum and weight decay, §2.1), so that is the core
implementation; Adam is included because the tuner exposes the optimizer as a
tunable training hyperparameter in the extended examples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .module import ParamTensor


def arena_views(arena: np.ndarray, parameters: Sequence) -> List[np.ndarray]:
    """One contiguous view of the flat ``arena`` per parameter, in the
    parameter's shape, back to back in list order."""
    views, start = [], 0
    for parameter in parameters:
        stop = start + parameter.value.size
        views.append(arena[start:stop].reshape(parameter.value.shape))
        start = stop
    return views


def pack_arena(parameters: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Move ``parameters`` into one contiguous ``(values, grads)`` pair.

    Every ``.value``/``.grad`` is rebound to a view of its slice, so layers,
    ``state_dict``/``load_state_dict`` and pickling keep working on the
    tensors (they read and write in place) while an optimizer updates all
    of them with one ufunc call per operation.
    """
    values = np.empty(sum(p.value.size for p in parameters))
    grads = np.empty_like(values)
    for parameter, value, grad in zip(
        parameters,
        arena_views(values, parameters),
        arena_views(grads, parameters),
    ):
        value[...] = parameter.value
        grad[...] = parameter.grad
        parameter.value, parameter.grad = value, grad
    return values, grads


def sgd_update(
    values: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    scratch: np.ndarray,
    lr,
    momentum: float,
    weight_decay: float,
) -> None:
    """``v = m*v - lr*(g + wd*w); w += v`` in place, allocating nothing.

    Bit-identical to that textbook per-parameter form (kept as the oracle
    in ``tests/test_nn_losses_optim.py``): the update is elementwise, and
    IEEE-754 addition and multiplication are commutative, so regrouping
    into in-place ops over a whole arena does not change a single bit.
    """
    if weight_decay:
        np.multiply(values, weight_decay, out=scratch)
        scratch += grads
    else:
        scratch[...] = grads
    scratch *= lr
    velocity *= momentum
    velocity -= scratch
    values += velocity


class Optimizer:
    """Base optimizer over a fixed parameter list.

    Owns the parameter arena (:func:`pack_arena`): ``values`` and ``grads``
    are flat buffers the parameters are views of, so a step costs the same
    handful of array calls whatever the parameter count.  The most recently
    built optimizer owns a model's parameters; an older one is detached.
    """

    def __init__(self, parameters: Sequence[ParamTensor], lr: float):
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.values, self.grads = pack_arena(self.parameters)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.grads.fill(0.0)


class SGD(Optimizer):
    """Mini-batch SGD with classical momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters: Sequence[ParamTensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        if weight_decay < 0.0:
            raise ConfigurationError("weight decay must be non-negative")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = np.zeros_like(self.values)
        #: Arena-sized home of the effective-gradient temporary.
        self.scratch = np.empty_like(self.values)
        self._velocity = arena_views(self.velocity, self.parameters)

    def state_dict(self) -> Dict[str, List[np.ndarray]]:
        """Copy of the mutable optimizer state (momentum buffers).

        Together with the model weights this is everything a warm-resumed
        trial needs to continue the SGD trajectory bit-for-bit.
        """
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: Dict[str, List[np.ndarray]]) -> None:
        """Restore momentum buffers captured by :meth:`state_dict`."""
        velocity = state["velocity"]
        if len(velocity) != len(self._velocity):
            raise ConfigurationError(
                f"optimizer state has {len(velocity)} velocity buffers, "
                f"expected {len(self._velocity)}"
            )
        for slot, value in zip(self._velocity, velocity):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != slot.shape:
                raise ConfigurationError(
                    f"velocity shape {value.shape} does not match "
                    f"parameter shape {slot.shape}"
                )
            slot[...] = value

    def step(self) -> None:
        sgd_update(
            self.values, self.grads, self.velocity, self.scratch,
            self.lr, self.momentum, self.weight_decay,
        )


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        parameters: Sequence[ParamTensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(parameters, lr)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigurationError("betas must be in [0, 1)")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._step_count = 0
        self._m = np.zeros_like(self.values)
        self._v = np.zeros_like(self.values)

    def step(self) -> None:
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        m, v, grad = self._m, self._v, self.grads
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        m_hat = m / correction1
        v_hat = v / correction2
        self.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LRSchedule:
    """Learning-rate schedule interface: rate as a function of epoch."""

    def rate(self, epoch: int, base_lr: float) -> float:
        raise NotImplementedError


class ConstantLR(LRSchedule):
    def rate(self, epoch: int, base_lr: float) -> float:
        return base_lr


class StepDecayLR(LRSchedule):
    """Multiply the rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, step_size: int = 10, gamma: float = 0.5):
        if step_size <= 0:
            raise ConfigurationError("step_size must be positive")
        if not 0 < gamma <= 1:
            raise ConfigurationError("gamma must be in (0, 1]")
        self.step_size = step_size
        self.gamma = gamma

    def rate(self, epoch: int, base_lr: float) -> float:
        return base_lr * self.gamma ** (epoch // self.step_size)


class CosineLR(LRSchedule):
    """Cosine annealing from ``base_lr`` to ``min_lr`` over ``total_epochs``."""

    def __init__(self, total_epochs: int, min_lr: float = 0.0):
        if total_epochs <= 0:
            raise ConfigurationError("total_epochs must be positive")
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def rate(self, epoch: int, base_lr: float) -> float:
        progress = min(epoch / self.total_epochs, 1.0)
        return self.min_lr + 0.5 * (base_lr - self.min_lr) * (
            1 + math.cos(math.pi * progress)
        )


OPTIMIZERS: Dict[str, type] = {"sgd": SGD, "adam": Adam}


def build_optimizer(
    name: str, parameters: Sequence[ParamTensor], **kwargs
) -> Optimizer:
    """Construct an optimizer by registry name (``sgd`` or ``adam``)."""
    try:
        cls = OPTIMIZERS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown optimizer {name!r}; expected one of {sorted(OPTIMIZERS)}"
        ) from None
    return cls(parameters, **kwargs)
