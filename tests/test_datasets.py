"""Tests for the synthetic datasets and the Dataset container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    Dataset,
    build_dataset,
    dataset_names,
    make_agnews,
    make_cifar10,
    make_coco,
    make_speech_commands,
)
from repro.errors import BudgetError, ShapeError, WorkloadError


class TestDatasetContainer:
    def make(self, n=50):
        rng = np.random.default_rng(0)
        return Dataset(
            "d", rng.normal(size=(n, 3)), rng.integers(4, size=n), 4
        )

    def test_length_and_shape(self):
        ds = self.make(50)
        assert len(ds) == 50
        assert ds.sample_shape == (3,)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            Dataset("d", np.zeros((5, 2)), np.zeros(4, dtype=int), 2)

    def test_detection_targets_validated(self):
        with pytest.raises(ShapeError):
            Dataset("d", np.zeros((5, 2)), np.zeros((5, 3)), 2,
                    task="detection")

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_classification_class_ids_validated(self, bad):
        """-1 would wrap to the last class in the loss's gather and train
        on it; ``num_classes`` would be a bare IndexError mid-trial."""
        targets = np.array([0, 1, bad, 3, 2])
        with pytest.raises(ShapeError, match=r"\[0, 4\)"):
            Dataset("d", np.zeros((5, 2)), targets, 4)

    def test_classification_class_ids_must_be_integers(self):
        with pytest.raises(ShapeError, match="integers"):
            Dataset("d", np.zeros((5, 2)), np.zeros(5), 4)

    @pytest.mark.parametrize("bad", [-1.0, 3.0, 1.5, np.nan])
    def test_detection_class_column_validated(self, bad):
        targets = np.zeros((5, 5))
        targets[2, 4] = bad
        with pytest.raises(ShapeError, match="class ids"):
            Dataset("d", np.zeros((5, 2)), targets, 3, task="detection")

    @pytest.mark.parametrize("maker", [make_cifar10, make_coco])
    def test_views_of_a_valid_dataset_still_construct(self, maker):
        ds = maker(samples=40, seed=0)
        train, test = ds.split(0.2, rng=0)
        parts = [ds.subset(0.3, rng=1), ds.take(7), train, test]
        assert [len(p) for p in parts] == [12, 7, 32, 8]
        assert all(p.num_classes == ds.num_classes for p in parts)

    def test_subset_fraction(self):
        ds = self.make(100)
        sub = ds.subset(0.3, rng=1)
        assert len(sub) == 30

    def test_subset_full_returns_self(self):
        ds = self.make()
        assert ds.subset(1.0) is ds

    def test_subset_keeps_at_least_one(self):
        ds = self.make(10)
        assert len(ds.subset(0.001, rng=0)) == 1

    def test_subset_invalid_fraction(self):
        with pytest.raises(BudgetError):
            self.make().subset(0.0)
        with pytest.raises(BudgetError):
            self.make().subset(1.5)

    def test_subset_deterministic(self):
        ds = self.make(100)
        a = ds.subset(0.5, rng=7)
        b = ds.subset(0.5, rng=7)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("rng", [None, 3])
    def test_a_view_commutes_with_subset_and_batches(self, fraction, rng):
        """``viewed`` keeps targets and ``order_seed``: its subsets and
        batches are those of the full dataset, seen through the view,
        copied and C-contiguous, and nested subsets stay nested."""
        ds = make_agnews(samples=40, seed=0)
        ds.order_seed = 11
        view = lambda features: features[:, ::5, :]  # noqa: E731
        seen = ds.viewed(view)
        assert seen.order_seed == ds.order_seed
        assert np.shares_memory(seen.features, ds.features)
        ours, theirs = seen.subset(fraction, rng), ds.subset(fraction, rng)
        np.testing.assert_array_equal(ours.targets, theirs.targets)
        assert ours.features.tobytes() == view(theirs.features).tobytes()
        for (a, ya), (b, yb) in zip(
            ours.batches(7, rng=2), theirs.batches(7, rng=2)
        ):
            assert a.flags.c_contiguous and a.shape[1] == 5
            assert a.tobytes() == view(b).tobytes()
            np.testing.assert_array_equal(ya, yb)

    def test_split_sizes(self):
        train, test = self.make(100).split(0.2, rng=0)
        assert len(train) == 80 and len(test) == 20

    def test_split_disjoint(self):
        ds = self.make(60)
        ds.features = np.arange(60)[:, None].astype(float)
        train, test = ds.split(0.25, rng=3)
        train_ids = set(train.features[:, 0].astype(int))
        test_ids = set(test.features[:, 0].astype(int))
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 60

    def test_batches_cover_everything(self):
        ds = self.make(53)
        seen = sum(len(x) for x, _ in ds.batches(8, rng=0))
        assert seen == 53

    def test_batches_partial_last(self):
        sizes = [len(x) for x, _ in self.make(10).batches(4, rng=0)]
        assert sizes == [4, 4, 2]

    def test_batches_invalid_size(self):
        with pytest.raises(BudgetError):
            list(self.make().batches(0))

    def test_batches_no_shuffle_is_ordered(self):
        ds = self.make(12)
        ds.features = np.arange(12)[:, None].astype(float)
        chunks = [x[:, 0].tolist() for x, _ in ds.batches(5, shuffle=False)]
        assert chunks[0] == [0, 1, 2, 3, 4]

    def test_take(self):
        assert len(self.make(30).take(7)) == 7


GENERATORS = [
    ("cifar10", make_cifar10, "classification"),
    ("speechcommands", make_speech_commands, "classification"),
    ("agnews", make_agnews, "classification"),
    ("coco", make_coco, "detection"),
]


class TestSyntheticGenerators:
    @pytest.mark.parametrize("name,maker,task", GENERATORS)
    def test_basic_properties(self, name, maker, task):
        ds = maker(samples=120, seed=3)
        assert len(ds) == 120
        assert ds.task == task
        assert np.isfinite(ds.features).all()

    @pytest.mark.parametrize("name,maker,task", GENERATORS)
    def test_deterministic(self, name, maker, task):
        a = maker(samples=40, seed=9)
        b = maker(samples=40, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("name,maker,task", GENERATORS)
    def test_seed_changes_data(self, name, maker, task):
        a = maker(samples=40, seed=1)
        b = maker(samples=40, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_cifar_shapes(self):
        ds = make_cifar10(samples=10, image_size=8)
        assert ds.sample_shape == (3, 8, 8)
        assert ds.num_classes == 10

    def test_speech_is_channel_first_audio(self):
        ds = make_speech_commands(samples=10, length=64)
        assert ds.sample_shape == (1, 64)

    def test_agnews_sequence_shape(self):
        ds = make_agnews(samples=10, sequence_length=12, embedding_dim=6)
        assert ds.sample_shape == (12, 6)
        assert ds.num_classes == 4

    def test_coco_box_targets_normalised(self):
        ds = make_coco(samples=50, seed=1)
        boxes = ds.targets[:, :4]
        assert (boxes >= 0).all() and (boxes <= 1).all()
        classes = ds.targets[:, 4]
        assert classes.max() < ds.num_classes

    def test_all_classes_present(self):
        ds = make_cifar10(samples=500, seed=0)
        assert len(np.unique(ds.targets)) == 10

    def test_classes_are_separable(self):
        """A nearest-prototype classifier must beat chance by a wide
        margin — the datasets must be genuinely learnable."""
        ds = make_cifar10(samples=400, noise=1.0, seed=5)
        flat = ds.features.reshape(len(ds), -1)
        prototypes = np.stack([
            flat[ds.targets == c].mean(axis=0) for c in range(10)
        ])
        distances = ((flat[:, None, :] - prototypes[None]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == ds.targets).mean()
        assert accuracy > 0.5


class TestRegistry:
    def test_names(self):
        assert set(dataset_names()) == {
            "cifar10", "speechcommands", "agnews", "coco"
        }

    def test_build_by_name_variants(self):
        for name in ("cifar10", "CIFAR10", "synthetic-cifar10"):
            ds = build_dataset(name, samples=10, seed=0)
            assert ds.name == "synthetic-cifar10"

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            build_dataset("imagenet")

    def test_overrides_forwarded(self):
        ds = build_dataset("agnews", samples=15, sequence_length=5, seed=0)
        assert len(ds) == 15
        assert ds.sample_shape[0] == 5


@given(
    fraction=st.floats(0.01, 1.0),
    n=st.integers(5, 200),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_subset_size(fraction, n, seed):
    rng = np.random.default_rng(0)
    ds = Dataset("d", rng.normal(size=(n, 2)), rng.integers(2, size=n), 2)
    sub = ds.subset(fraction, rng=seed)
    assert 1 <= len(sub) <= n
    assert len(sub) == max(1, int(n * fraction))


@given(batch=st.integers(1, 64), n=st.integers(1, 100))
@settings(max_examples=40, deadline=None)
def test_property_batches_partition(batch, n):
    rng = np.random.default_rng(0)
    ds = Dataset("d", rng.normal(size=(n, 2)), rng.integers(2, size=n), 2)
    chunks = list(ds.batches(batch, rng=1))
    assert sum(len(x) for x, _ in chunks) == n
    assert all(len(x) <= batch for x, _ in chunks)
