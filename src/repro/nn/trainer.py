"""Training loop with budgeted fidelity.

:func:`train_model` performs *real* mini-batch SGD on a
:class:`~repro.datasets.base.Dataset` and returns both learning outcomes
(accuracy, loss trajectory) and a compute tally (FLOPs, samples processed).
The compute tally — not wall-clock time — is what the hardware emulator
converts into simulated runtime and energy, so results are deterministic and
machine-independent.

Budgets enter through ``epochs`` and ``data_fraction``: the epoch-based,
dataset-based, and multi-budget strategies of the paper (§4.3) all reduce to
choosing these two numbers per trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..datasets.base import Dataset
from ..errors import BudgetError
from ..faults import corrupt_nan
from ..rng import SeedLike, ensure_seed, spawn_rng
from .losses import Loss
from .module import Module
from .optimizers import ConstantLR, LRSchedule, SGD


@dataclass
class TrainingResult:
    """Outcome of one budgeted training run (one tuning trial's training)."""

    accuracy: float
    losses: List[float]
    #: Epochs actually *completed* — fewer than requested when training
    #: diverges mid-epoch.  FLOP/runtime accounting and the hardware
    #: emulator consume this, so it must reflect work done, not work asked.
    epochs_run: int
    data_fraction: float
    samples_seen: int
    batch_size: int
    #: Per-sample forward FLOPs of the trained architecture.
    forward_flops_per_sample: int
    #: Total forward FLOPs spent on training (forward passes only).
    train_forward_flops: int
    #: Total FLOPs including the backward pass (≈ 2x forward, the standard
    #: estimate for backprop through dense/conv layers).
    train_total_flops: int
    #: Number of trainable parameters (drives the memory model).
    parameter_count: int
    #: Training aborted early on a non-finite loss (NaN/Inf divergence);
    #: ``accuracy`` is the worst case 0.0 so the scheduler prunes the
    #: configuration instead of the run crashing.
    diverged: bool = False
    #: Final (weights, optimizer) state for warm-resuming a bigger-budget
    #: trial from this one — ``{"weights": ..., "velocity": ...}`` —
    #: captured only when requested (``capture_state=True``).
    resume_state: Optional[Dict[str, Any]] = None

    @property
    def final_loss(self) -> Optional[float]:
        """Mean loss of the last completed epoch; ``None`` when no epoch
        finished (zero-step runs) — explicit, rather than a silent NaN
        that poisons downstream objective math."""
        return self.losses[-1] if self.losses else None


#: Backward pass costs roughly twice the forward pass (one gradient w.r.t.
#: activations + one w.r.t. weights); total training step ≈ 3x forward.
BACKWARD_FLOPS_FACTOR = 2.0


def _input_staged(model: Module, dataset: Dataset) -> Tuple[Module, Dataset]:
    """``model``'s tail and ``dataset`` seen through its input stage
    (DESIGN §5c, "Input stage"): every subset and batch of it then copies
    only what the tail reads."""
    view, tail = model.input_stage()
    return tail, dataset if view is None else dataset.viewed(view)


def evaluate_accuracy(
    model: Module, dataset: Dataset, batch_size: int = 256,
    box_tolerance: float = 0.25,
) -> float:
    """Task-aware accuracy.

    Classification: top-1 accuracy.  Detection: a prediction counts as
    correct when the class is right *and* the box centre is within
    ``box_tolerance`` (normalised units) of the truth — a simplified IoU
    criterion suited to the single-object synthetic COCO.
    """
    tail, dataset = _input_staged(model, dataset)
    model.eval()
    correct = 0
    try:
        for features, targets in dataset.batches(
            batch_size, shuffle=False
        ):
            outputs = tail.forward(features)
            if dataset.task == "classification":
                predictions = outputs.argmax(axis=1)
                correct += int((predictions == targets).sum())
            else:
                classes_pred = outputs[:, 4:].argmax(axis=1)
                classes_true = targets[:, 4].astype(int)
                centre_error = np.sqrt(
                    ((outputs[:, :2] - targets[:, :2]) ** 2).sum(axis=1)
                )
                correct += int(
                    ((classes_pred == classes_true)
                     & (centre_error <= box_tolerance)).sum()
                )
    finally:
        model.train()
    return correct / len(dataset)


def train_model(
    model: Module,
    loss: Loss,
    train_set: Dataset,
    eval_set: Dataset,
    epochs: int,
    batch_size: int,
    lr: float = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    schedule: Optional[LRSchedule] = None,
    data_fraction: float = 1.0,
    seed: SeedLike = None,
    start_epoch: int = 0,
    init_state: Optional[Dict[str, Any]] = None,
    nested_subset: bool = False,
    capture_state: bool = False,
) -> TrainingResult:
    """Train ``model`` under an (epochs x data_fraction) budget.

    Returns a :class:`TrainingResult` whose accuracy is measured on
    ``eval_set`` (the held-out split, per paper §2.1).

    Warm-resume (the artifact cache's cross-rung tier) enters through
    four opt-in knobs, all default-off so the classic path is untouched
    bit-for-bit: ``init_state`` restores a parent trial's weights and
    momentum buffers, ``start_epoch`` skips the epochs the parent already
    ran (the compute tally counts only the incremental epochs, which is
    what the emulator charges), ``nested_subset`` draws the budget subset
    from the dataset's canonical permutation so the resumed trial sees a
    superset of its parent's data, and ``capture_state`` returns the
    final state so this trial can itself be resumed from.
    ``start_epoch == epochs`` is legal and runs zero epochs — the
    degenerate promotion where the grown budget adds no new epochs.
    """
    if epochs <= 0:
        raise BudgetError(f"epochs must be positive, got {epochs}")
    if not 0 <= start_epoch <= epochs:
        raise BudgetError(
            f"start_epoch must be in [0, {epochs}], got {start_epoch}"
        )
    base_seed = ensure_seed(seed)
    schedule = schedule or ConstantLR()
    # Costs are the whole model's on the original sample; the steps run
    # the tail on the split seen through the input stage.
    forward_flops, _ = model.flops(train_set.sample_shape)
    tail, train_set = _input_staged(model, train_set)
    if nested_subset:
        subset = train_set.subset(data_fraction)
    else:
        subset = train_set.subset(
            data_fraction, rng=spawn_rng(base_seed, "subset")
        )
    optimizer = SGD(
        model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay
    )
    if init_state is not None:
        from .serialize import load_state_dict

        load_state_dict(model, init_state["weights"])
        optimizer.load_state_dict({"velocity": init_state["velocity"]})
    model.train()
    losses: List[float] = []
    samples_seen = 0
    epochs_completed = 0
    diverged = False
    first_batch = True
    for epoch in range(start_epoch, epochs):
        optimizer.lr = schedule.rate(epoch, lr)
        epoch_loss = 0.0
        batches = 0
        for features, targets in subset.batches(
            batch_size, rng=spawn_rng(base_seed, "epoch", epoch)
        ):
            optimizer.zero_grad()
            outputs = tail.forward(features)
            batch_loss = loss.forward(outputs, targets)
            if first_batch:
                # Fault site trainer.nan: corrupts exactly one loss per
                # trial (keyed by the trial's training seed) so the
                # numeric guard below is what contains it.
                batch_loss = corrupt_nan(
                    "trainer.nan", batch_loss, key=base_seed
                )
                first_batch = False
            if not np.isfinite(batch_loss):
                # NaN/Inf loss means the weights (or their gradients,
                # which surface as a NaN loss one step later) are
                # already corrupt: abort the trial early instead of
                # burning the rest of the budget or crashing the run.
                diverged = True
                break
            # The batch is data: nothing consumes dL/d(input).
            tail.backward(loss.backward(), need_input_grad=False)
            optimizer.step()
            epoch_loss += batch_loss
            batches += 1
            samples_seen += len(features)
        if diverged:
            # The epoch was cut short, so it does not count as run and its
            # partial mean loss would be misleading — drop both.
            break
        epochs_completed += 1
        if batches == 0:
            # Empty subset (tiny data_fraction x small dataset): no steps
            # were taken, so there is no epoch loss to record.  Appending
            # 0.0 here would make ``final_loss`` report a perfect loss for
            # a model that never trained.
            continue
        losses.append(epoch_loss / batches)
    accuracy = 0.0 if diverged else evaluate_accuracy(model, eval_set)
    if not np.isfinite(accuracy):
        accuracy, diverged = 0.0, True
    resume_state: Optional[Dict[str, Any]] = None
    if capture_state:
        from .serialize import state_dict

        resume_state = {
            "weights": state_dict(model),
            "velocity": optimizer.state_dict()["velocity"],
        }
    train_forward = forward_flops * samples_seen
    return TrainingResult(
        accuracy=accuracy,
        losses=losses,
        epochs_run=epochs_completed,
        data_fraction=min(data_fraction, 1.0),
        samples_seen=samples_seen,
        batch_size=batch_size,
        forward_flops_per_sample=int(forward_flops),
        train_forward_flops=int(train_forward),
        train_total_flops=int(train_forward * (1.0 + BACKWARD_FLOPS_FACTOR)),
        parameter_count=model.parameter_count(),
        diverged=diverged,
        resume_state=resume_state,
    )
