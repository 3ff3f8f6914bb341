"""Batched-trial training: K trials stacked along a leading tensor axis.

The PR 4 kernel pass made a single trial ~2x faster; the next win is
training *many trials at once*.  Configurations sampled by the searchers
frequently share architecture shapes and differ only in scalars (lr,
momentum, dropout), so K such trials can be stacked into one leading axis
and run as a single fused forward/backward per step — K small gemms become
one large BLAS-efficient ``np.matmul``, and the Python dispatch overhead
(which dominates at the paper's tiny real batch sizes) is paid once per
layer instead of once per layer per trial.

A lane is a leading axis, not a class: the layers and losses compute on
trailing axes (:mod:`repro.nn.layers`, :mod:`repro.nn.conv`,
:mod:`repro.nn.losses`), so :func:`stack_modules` builds the stacked model
out of the *same* classes around ``(K, ...)`` parameters and there is one
engine to change.  What lives here is what is per-lane by nature: stacking
and unstacking, per-lane dropout, the optimizer's per-lane rates and
divergence mask, and the training loop's per-lane sample order.

The contract that makes this safe is **bit-identity**: every lane of a
stacked run must produce exactly the floating-point trajectory of the
serial :func:`repro.nn.trainer.train_model` run with the same seed:

* stacked gemms ``(K, n, F) @ (K, F, O)`` reduce per lane to the same
  2-D gemm the serial rank runs (verified bitwise for the transposed
  forms and ``out=`` variants used);
* reductions, fancy-index picks and in-place optimizer updates operate
  lane-independently, in the serial operand order;
* per-lane RNG streams are drawn from the same derived seeds the serial
  loop would use, in the same order (a lane's dropout masks come from its
  own model's live generator);
* divergence is handled by *masking*: the serial loop checks the loss
  for finiteness **before** backward/step, so a lane that goes
  non-finite is frozen before its weights could change — other lanes
  proceed untouched because no stacked op ever mixes lanes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from ..datasets.base import Dataset
from ..errors import BudgetError, ConfigurationError, ShapeError
from ..faults import corrupt_nan
from ..rng import SeedLike, ensure_seed, spawn_rng
from .conv import (
    Conv1d,
    Conv2d,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    MaxPool1d,
    MaxPool2d,
)
from .layers import (
    Dropout,
    Flatten,
    Linear,
    ReLU,
    Residual,
    Sequential,
    Tanh,
)
from .losses import CrossEntropyLoss, DetectionLoss, Loss
from .module import Module, ParamTensor
from .optimizers import pack_arena, sgd_update
from .trainer import BACKWARD_FLOPS_FACTOR, TrainingResult, evaluate_accuracy


class UnstackableModelError(ShapeError):
    """The model tree (or its loss) contains a class that is not lane-safe."""


# ---------------------------------------------------------------------------
# Stacking: the same layer classes around ``(K, ...)`` parameters
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


class LaneDropout:
    """Per-lane dropout: lane ``k`` goes through trial ``k``'s own
    :class:`Dropout` — its rate, its live generator, drawn in lane order —
    so each lane consumes exactly the stream its serial run would.

    The one stacked layer class.  K rates and K generators are not
    something a leading tensor axis can carry, so folding this into
    ``Dropout`` would put a "which caller" arm in the serial layer;
    delegating instead leaves the mask arithmetic written once.  Duck-typed
    rather than a :class:`Module`: it exists only inside a stack, so it has
    no pickling, mode or FLOP contract to keep.
    """

    def __init__(self, lanes: Sequence[Dropout]):
        self.lanes = list(lanes)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return np.stack([m.forward(x) for m, x in zip(self.lanes, inputs)])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.stack(
            [m.backward(g) for m, g in zip(self.lanes, grad_output)]
        )

    def parameters(self) -> List[BatchedParam]:
        return []


#: Leaf classes whose bodies compute on trailing axes only, so a lane axis
#: in front of the batch axis rides through them untouched.  A whitelist:
#: ``BatchNorm1d`` (batch statistics would mix lanes), ``ElmanRNN`` and
#: ``SequenceStride`` (recurrent lanes would not fill — ROADMAP) stay off
#: it until someone writes and pins their lane-safe form.
LANE_SAFE_LAYERS = frozenset({
    Linear, ReLU, Tanh, Flatten, Conv1d, Conv2d,
    MaxPool1d, MaxPool2d, GlobalAvgPool1d, GlobalAvgPool2d,
})

#: Losses that reduce over trailing axes and return one value per lane.
LANE_SAFE_LOSSES = frozenset({CrossEntropyLoss, DetectionLoss})


def stackable_model(module: Module) -> bool:
    """True when every layer in the tree is lane-safe."""
    kind = type(module)
    if kind in (Sequential, Residual):
        return all(stackable_model(child) for child in module.children())
    return kind is Dropout or kind in LANE_SAFE_LAYERS


def stack_modules(models: Sequence[Module]) -> Module:
    """Stack K structurally identical models into one model of the same
    layer classes whose parameters are ``(K, ...)`` :class:`BatchedParam`\\ s.

    The lanes must agree on layer types and parameter shapes (the grouping
    signature guarantees this for trial batches); a mismatch or a layer
    that is not lane-safe raises :class:`UnstackableModelError`.  Each leaf
    is rebuilt the way unpickling rebuilds one — lane 0's persistent state,
    empty step state (:data:`~repro.nn.module.STEP_STATE`) — so the stack
    shares no cache or scratch buffer with the models it was made from.
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
        return Sequential(*[
            stack_modules(column)
            for column in zip(*(m.modules for m in models))
        ])
    if kind is Residual:
        return Residual(stack_modules([m.inner for m in models]))
    if kind is Dropout:
        return LaneDropout(models)
    if kind not in LANE_SAFE_LAYERS:
        raise UnstackableModelError(
            f"layer type {kind.__name__} is not lane-safe"
        )
    state = head.__getstate__()
    for name, value in state.items():
        if not isinstance(value, ParamTensor):
            continue
        sources = [getattr(m, name) for m in models]
        if any(p.value.shape != value.value.shape for p in sources):
            raise UnstackableModelError(
                f"lanes disagree on {kind.__name__}.{name} shape"
            )
        state[name] = BatchedParam(sources)
    stacked = kind.__new__(kind)
    stacked.__setstate__(state)
    stacked.lane_axes = 1
    return stacked


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

    if type(loss) not in LANE_SAFE_LOSSES:
        raise UnstackableModelError(
            f"loss type {type(loss).__name__} is not lane-safe"
        )
    stacked = stack_modules(models)
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
                loss.forward(outputs, batch_targets), dtype=np.float64
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
            stacked.backward(loss.backward(), need_input_grad=False)
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
