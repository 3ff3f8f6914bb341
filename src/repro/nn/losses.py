"""Loss functions with analytic gradients."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ShapeError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class Loss:
    """Base class: ``forward`` returns a scalar, ``backward`` the gradient
    with respect to the predictions.

    A lane-safe loss (:class:`CrossEntropyLoss`, :class:`DetectionLoss`)
    reduces over trailing axes, so ``(K, n, ...)`` predictions — K trials
    stacked in front of the batch axis — give one loss per lane, as a list
    of K floats, from the lines that give a float for one batch.
    """

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError


class SoftmaxCrossEntropy:
    """Fused softmax + mean cross entropy in one reusable buffer.

    Serves ``(n, C)`` logits and ``(K, n, C)`` lane stacks (the loss is
    then a ``(K,)`` vector, one mean per lane).
    ``forward`` runs max, subtract, exp, sum and divide in place in a
    scratch array kept per logits shape (with its cached gather index);
    ``backward`` turns that same array into the gradient.  The arithmetic,
    operand for operand, is the textbook ``softmax -> clip -> log -> mean``
    (kept as the oracle in ``tests/test_nn_losses_optim.py``), so no result
    bit changes.  Buffer contract, as for the conv layers' gradient
    buffers: ``backward`` consumes the cached probabilities, so it runs
    once per ``forward``, and the array it returns is valid until the next
    ``forward``.
    """

    def __init__(self, owner: str) -> None:
        self._owner = owner
        self._buffers: Dict[Tuple[int, ...], Tuple[np.ndarray, tuple]] = {}
        self._pending: Optional[tuple] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray):
        buffers = self._buffers.get(logits.shape)
        if buffers is None:
            buffers = self._buffers[logits.shape] = (
                np.empty(logits.shape),
                tuple(np.indices(logits.shape[:-1], sparse=True)),
            )
        probabilities, index = buffers
        np.subtract(
            logits, np.maximum.reduce(logits, axis=-1, keepdims=True),
            out=probabilities,
        )
        np.exp(probabilities, out=probabilities)
        probabilities /= np.add.reduce(probabilities, axis=-1, keepdims=True)
        index = index + (targets,)
        picked = np.maximum(probabilities[index], 1e-12)
        np.log(picked, out=picked)
        self._pending = (probabilities, index)
        return -(np.add.reduce(picked, axis=-1) / picked.shape[-1])

    def backward(self) -> np.ndarray:
        if self._pending is None:
            raise ShapeError(f"{self._owner}.backward called before forward")
        probabilities, index = self._pending
        self._pending = None
        probabilities[index] -= 1.0
        probabilities /= probabilities.shape[-2]
        return probabilities


class CrossEntropyLoss(Loss):
    """Softmax cross entropy over integer class targets.

    Targets are trusted to lie in ``[0, C)``: a ``Dataset`` validates its
    class ids once, at construction.  The gradient ``backward`` returns is
    a reused buffer: valid until the next ``forward``, and a second
    ``backward`` without a new ``forward`` raises.
    """

    def __init__(self) -> None:
        self._kernel = SoftmaxCrossEntropy("CrossEntropyLoss")

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if logits.ndim < 2:
            raise ShapeError(f"expected (..., N, C) logits, got {logits.shape}")
        targets = np.asarray(targets)
        if targets.shape != logits.shape[:-1]:
            raise ShapeError(
                f"targets shape {targets.shape} does not match batch "
                f"{logits.shape[:-1]}"
            )
        # ``tolist`` is ``float()`` that also takes a vector of lane losses.
        return self._kernel.forward(logits, targets).tolist()

    def backward(self) -> np.ndarray:
        return self._kernel.backward()


class MSELoss(Loss):
    """Mean squared error over arbitrary-shape targets."""

    def __init__(self) -> None:
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"prediction shape {predictions.shape} != target shape "
                f"{targets.shape}"
            )
        self._cache = (predictions, targets)
        return float(((predictions - targets) ** 2).mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("MSELoss.backward called before forward")
        predictions, targets = self._cache
        return 2.0 * (predictions - targets) / predictions.size


class DetectionLoss(Loss):
    """Simplified single-object detection loss for the YOLO-lite workload.

    Predictions are ``(..., N, 4 + num_classes)``: four box coordinates
    followed by class logits.  The loss is MSE on the box plus cross entropy
    on the class, weighted by ``box_weight`` — the same structure
    (localisation + classification) as the real YOLO objective, reduced to
    one object per image.  The class term is the same fused kernel as
    :class:`CrossEntropyLoss`, with the same contract: one ``backward`` per
    ``forward``, class ids trusted (validated by the dataset).
    """

    def __init__(self, num_classes: int, box_weight: float = 1.0):
        if num_classes <= 1:
            raise ShapeError("DetectionLoss needs at least 2 classes")
        self.num_classes = num_classes
        self.box_weight = float(box_weight)
        self._class_term = SoftmaxCrossEntropy("DetectionLoss")
        self._cache: Optional[tuple] = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        expected = 4 + self.num_classes
        if predictions.ndim < 2 or predictions.shape[-1] != expected:
            raise ShapeError(
                f"expected predictions (N, {expected}), got {predictions.shape}"
            )
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != predictions.shape[:-1] + (5,):
            raise ShapeError(
                "detection targets must be (N, 5): 4 box coords + class id"
            )
        boxes_pred = predictions[..., :4]
        boxes_true = targets[..., :4]
        squared = (boxes_pred - boxes_true) ** 2
        # One flat mean per batch: the reduction tree of ``.mean()`` over
        # the 2-D block, whatever stands in front of it.
        box_loss = squared.reshape(squared.shape[:-2] + (-1,)).mean(axis=-1)
        class_loss = self._class_term.forward(
            predictions[..., 4:], targets[..., 4].astype(int)
        )
        self._cache = (boxes_pred, boxes_true)
        return (self.box_weight * box_loss + class_loss).tolist()

    def backward(self) -> np.ndarray:
        grad_class = self._class_term.backward()
        boxes_pred, boxes_true = self._cache
        batch = boxes_pred.shape[-2]
        grad = np.empty(boxes_pred.shape[:-1] + (4 + self.num_classes,))
        grad[..., :4] = (
            self.box_weight * 2.0 * (boxes_pred - boxes_true) / (batch * 4)
        )
        grad[..., 4:] = grad_class
        return grad
