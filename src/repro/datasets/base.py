"""Dataset container with the operations tuning budgets need.

A :class:`Dataset` is an in-memory (features, targets) pair plus metadata.
Budgets slice it two ways: :meth:`subset` implements the *dataset-fraction*
budget axis (Algorithm 2's ``data.subset(data_frac)``), and :meth:`batches`
yields mini-batches for the SGD loop.  Both are deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..errors import BudgetError, ShapeError
from ..rng import SeedLike, derive_seed, make_rng

#: Supported learning tasks.
TASKS = ("classification", "detection")


@dataclass
class Dataset:
    """An in-memory supervised dataset.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"synthetic-cifar10"``.
    features:
        Array of shape ``(N, ...)``.
    targets:
        ``(N,)`` integer class ids for classification, ``(N, 5)``
        (4 box coordinates + class id) for detection.
    num_classes:
        Number of target classes.
    task:
        One of :data:`TASKS`.
    order_seed:
        Optional per-dataset seed fixing *one* canonical sample
        permutation.  When set, :meth:`subset` called without an explicit
        ``rng`` slices a prefix of that permutation, making budget
        subsets *nested*: a smaller fraction is always contained in a
        larger one — the property warm-resumed trials rely on to see a
        superset of their parent's data, and what makes budget-axis
        scores comparable between rungs.
    """

    name: str
    features: np.ndarray
    targets: np.ndarray
    num_classes: int
    task: str = "classification"
    order_seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        if self.task not in TASKS:
            raise ShapeError(f"unknown task {self.task!r}")
        if len(self.features) != len(self.targets):
            raise ShapeError(
                f"features ({len(self.features)}) and targets "
                f"({len(self.targets)}) disagree in length"
            )
        if self.num_classes < 2:
            raise ShapeError("datasets need at least 2 classes")
        if self.task == "detection" and (
            self.targets.ndim != 2 or self.targets.shape[1] != 5
        ):
            raise ShapeError("detection targets must have shape (N, 5)")
        # The losses gather ``probabilities[rows, class_id]`` unchecked every
        # step, where -1 would silently wrap to the last class: reject bad
        # ids here, once.
        if self.task == "detection":
            class_ids = self.targets[:, 4]
            integral = bool(np.all(class_ids == np.floor(class_ids)))
        else:
            class_ids = self.targets
            integral = np.issubdtype(class_ids.dtype, np.integer)
        if not integral:
            raise ShapeError(f"{self.task} class ids must be integers")
        if class_ids.size and not (
            0 <= class_ids.min() and class_ids.max() < self.num_classes
        ):
            raise ShapeError(
                f"class ids must lie in [0, {self.num_classes}), got "
                f"[{class_ids.min()}, {class_ids.max()}]"
            )

    # -- basic container -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.features)

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Shape of a single sample (no batch axis)."""
        return tuple(self.features.shape[1:])

    def viewed(self, view: Callable[[np.ndarray], np.ndarray]) -> "Dataset":
        """This dataset with ``view(features)`` as its features.

        ``view`` is a per-sample view that commutes with the batch gather
        (a model's input stage, DESIGN §5c), so :meth:`subset` and
        :meth:`batches` of the result copy only the bytes the view keeps.
        Targets and :attr:`order_seed` are kept, and so are the
        permutations both draw: a subset of the view is the view of the
        subset, nested ones included.
        """
        return replace(self, features=view(self.features))

    # -- budget operations ------------------------------------------------------
    def subset(self, fraction: float, rng: SeedLike = None) -> "Dataset":
        """A random subset containing ``fraction`` of the samples.

        The paper's dataset-based budget (§4.3) trains each trial on a
        fraction of the data proportional to its iteration.  ``fraction`` is
        clipped to (0, 1]; at least one sample is always kept.

        With ``rng=None`` on a dataset carrying an :attr:`order_seed`,
        the subset is a prefix of the dataset's canonical permutation, so
        subsets of growing fractions are nested.  An explicit ``rng``
        keeps the historical independent-shuffle behaviour bit-for-bit.
        """
        if not 0.0 < fraction <= 1.0 + 1e-12:
            raise BudgetError(f"fraction must be in (0, 1], got {fraction}")
        fraction = min(fraction, 1.0)
        if fraction == 1.0:
            return self
        count = max(1, int(math.floor(len(self) * fraction)))
        if rng is None and self.order_seed is not None:
            generator = make_rng(self.order_seed)
        else:
            generator = make_rng(rng)
        indices = generator.permutation(len(self))[:count]
        return Dataset(
            name=self.name,
            features=self.features[indices],
            targets=self.targets[indices],
            num_classes=self.num_classes,
            task=self.task,
            order_seed=None if self.order_seed is None
            else derive_seed(self.order_seed, "subset", count),
        )

    def split(
        self, test_fraction: float = 0.2, rng: SeedLike = None
    ) -> Tuple["Dataset", "Dataset"]:
        """Deterministic train/validation split (paper §2.1 uses 20 %)."""
        if not 0.0 < test_fraction < 1.0:
            raise BudgetError(
                f"test_fraction must be in (0, 1), got {test_fraction}"
            )
        generator = make_rng(rng)
        indices = generator.permutation(len(self))
        test_count = max(1, int(len(self) * test_fraction))
        test_idx, train_idx = indices[:test_count], indices[test_count:]
        if len(train_idx) == 0:
            raise BudgetError("split leaves no training samples")
        make = lambda idx, part: Dataset(  # noqa: E731 - tiny local factory
            name=self.name,
            features=self.features[idx],
            targets=self.targets[idx],
            num_classes=self.num_classes,
            task=self.task,
            order_seed=None if self.order_seed is None
            else derive_seed(self.order_seed, "split", part),
        )
        return make(train_idx, "train"), make(test_idx, "test")

    def batches(
        self, batch_size: int, rng: SeedLike = None, shuffle: bool = True
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield mini-batches; the last partial batch is kept."""
        if batch_size <= 0:
            raise BudgetError(f"batch size must be positive, got {batch_size}")
        order = np.arange(len(self))
        if shuffle:
            make_rng(rng).shuffle(order)
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.features[idx], self.targets[idx]

    def take(self, count: int) -> "Dataset":
        """The first ``count`` samples (no shuffling)."""
        count = max(1, min(count, len(self)))
        return Dataset(
            name=self.name,
            features=self.features[:count],
            targets=self.targets[:count],
            num_classes=self.num_classes,
            task=self.task,
            order_seed=None if self.order_seed is None
            else derive_seed(self.order_seed, "take", count),
        )
