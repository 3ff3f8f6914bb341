"""Module protocol for the from-scratch numpy NN engine.

The engine uses explicit forward/backward passes (no autodiff tape).  Each
:class:`Module` caches whatever it needs during ``forward`` and consumes it in
``backward``.  This keeps the implementation small, easy to verify with
numeric gradient checks, and fast enough to *really train* the reproduction
workloads on synthetic data — the tuning system then observes genuine
accuracy-versus-budget behaviour instead of a canned curve.

Pickling contract: a module pickles its *persistent* state — constructor
configuration, parameter values, running statistics, RNG state and
``training`` — and nothing with the lifetime of one step.  The per-step
attributes are declared once, in :data:`STEP_STATE`; a restored module has
them empty and the next ``forward`` rebuilds them, so a model pickle is
about the size of its weights however (and on whatever batch) it last ran.
A blob written before a layer grew one of them gets it, empty, on restore
(:attr:`Module.grown_step_state`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ShapeError

Shape = Tuple[int, ...]


class ParamTensor:
    """A trainable array together with its accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def __getstate__(self) -> Dict[str, Any]:
        return {"name": self.name, "value": self.value}

    def __setstate__(self, state: Any) -> None:
        if isinstance(state, tuple):
            # Pickles written before the lean rule carry the default slot
            # state ``(None, {"name", "value", "grad"})``.
            state = state[1]
        self.name = state["name"]
        self.value = state["value"]
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.value.shape})"


#: Every per-step attribute a layer may hold — what ``forward`` caches for
#: ``backward`` and the buffers both reuse — mapped to the factory of its
#: empty value.  A layer that grows a new cache declares it here; one that
#: does not fails the blob-size bound in ``tests/test_nn_pickle.py``.
STEP_STATE: Dict[str, Callable[["Module"], Any]] = {
    **dict.fromkeys(
        (
            "_cache", "_inputs", "_mask", "_out", "_grad", "_output",
            "_cols", "_geometry", "_grad_input", "_input_shape",
            "_input_strides",
        ),
        lambda module: None,
    ),
    "_forward_scratch": lambda module: {},
    "_backward_scratch": lambda module: {},
    "_weight_grad_scratch": lambda module: np.zeros_like(module.weight.value),
}


class Module:
    """Base class for layers and models."""

    #: Set by :meth:`train` / :meth:`eval`; Dropout and BatchNorm branch on it.
    training: bool = True

    #: Step attributes a class reads before writing and grew after blobs
    #: of it were first stored (artifact stores outlive code versions):
    #: restore creates them even when the blob predates them.
    grown_step_state: Tuple[str, ...] = ()

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Persistent state only; :data:`STEP_STATE` names are kept as
        ``None`` placeholders so restore knows which ones this layer has."""
        return {
            name: None if name in STEP_STATE else value
            for name, value in self.__dict__.items()
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Pickles written before the lean rule hold the full ``__dict__``;
        # their step state is discarded the same way.
        self.__dict__.update(state)
        for name in STEP_STATE.keys() & (
            state.keys() | set(self.grown_step_state)
        ):
            setattr(self, name, STEP_STATE[name](self))

    # -- computation --------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the input gradient.

        A module that owns parameters also takes ``need_input_grad=False``:
        the caller (the training loop, through :class:`Sequential`) has no
        consumer for the input gradient — the module is the first trainable
        one, what is in front of it is data — so it accumulates its
        parameter gradients and returns ``None``.  The rule is an argument
        of the call, never module state, so it cannot reach a pickle.
        """
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- parameters -----------------------------------------------------------
    def parameters(self) -> List[ParamTensor]:
        """All trainable tensors of this module (default: none)."""
        return []

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- mode ------------------------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self.children():
            child.eval()
        return self

    def children(self) -> Sequence["Module"]:
        return ()

    # -- cost model --------------------------------------------------------------
    def flops(self, input_shape: Shape) -> Tuple[int, Shape]:
        """Per-sample forward FLOPs and the resulting output shape.

        ``input_shape`` excludes the batch dimension.  The hardware emulator
        multiplies these counts by batch size and device throughput to derive
        simulated runtime and energy.
        """
        raise NotImplementedError


def check_ndim(name: str, array: np.ndarray, ndim: int) -> None:
    """Raise :class:`ShapeError` unless ``array`` has ``ndim`` dimensions."""
    if array.ndim != ndim:
        raise ShapeError(
            f"{name} expected a {ndim}-D array, got shape {array.shape}"
        )


def as_batch(inputs: np.ndarray) -> np.ndarray:
    """Coerce to float64 ndarray, promoting a single sample to a batch."""
    array = np.asarray(inputs, dtype=np.float64)
    if array.ndim == 1:
        array = array[None, :]
    return array
