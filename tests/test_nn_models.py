"""Tests for the model zoo and the budgeted trainer."""

import numpy as np
import pytest

from repro.datasets import (
    make_agnews,
    make_cifar10,
    make_coco,
    make_speech_commands,
)
from repro.errors import BudgetError, ConfigurationError, WorkloadError
from repro.nn import evaluate_accuracy, train_model
from repro.nn.models import (
    M5_EMBEDDING_CHOICES,
    MODEL_FAMILIES,
    RESNET_LAYER_CHOICES,
    build_m5,
    build_resnet,
    build_textrnn,
    build_yolo,
    get_model_family,
    model_names,
    residual_blocks_for,
)


class TestResNet:
    def test_depth_orders_flops_and_params(self):
        """The tunable num_layers must order compute: 18 < 34 < 50."""
        flops, params = [], []
        for layers in RESNET_LAYER_CHOICES:
            model = build_resnet((3, 8, 8), 10, num_layers=layers, seed=0)
            f, shape = model.flops((3, 8, 8))
            assert shape == (10,)
            flops.append(f)
            params.append(model.parameter_count())
        assert flops == sorted(flops)
        assert params == sorted(params)

    def test_blocks_mapping(self):
        assert residual_blocks_for(18) < residual_blocks_for(34)
        assert residual_blocks_for(34) < residual_blocks_for(50)

    def test_forward_shape(self):
        model = build_resnet((3, 8, 8), 10, seed=0)
        out = model.forward(np.random.default_rng(0).normal(size=(4, 3, 8, 8)))
        assert out.shape == (4, 10)

    def test_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            build_resnet((3, 8, 8), 10, num_layers=0)

    def test_deterministic_construction(self):
        a = build_resnet((3, 8, 8), 10, seed=5)
        b = build_resnet((3, 8, 8), 10, seed=5)
        np.testing.assert_array_equal(
            a.parameters()[0].value, b.parameters()[0].value
        )


class TestM5:
    def test_embedding_orders_flops(self):
        flops = []
        for dim in M5_EMBEDDING_CHOICES:
            model = build_m5((1, 128), 10, embedding_dim=dim, seed=0)
            f, shape = model.flops((1, 128))
            assert shape == (10,)
            flops.append(f)
        assert flops == sorted(flops)

    def test_forward_shape(self):
        model = build_m5((1, 128), 10, seed=0)
        out = model.forward(np.zeros((2, 1, 128)))
        assert out.shape == (2, 10)

    def test_too_short_input_rejected(self):
        with pytest.raises(ConfigurationError):
            build_m5((1, 16), 10)


class TestTextRNN:
    def test_stride_reduces_flops(self):
        """Larger stride = shorter recurrence = fewer FLOPs — the whole
        point of the tunable."""
        dense = build_textrnn((24, 12), 4, stride=1, seed=0)
        sparse = build_textrnn((24, 12), 4, stride=8, seed=0)
        assert sparse.flops((24, 12))[0] < dense.flops((24, 12))[0] / 4

    def test_forward_shape(self):
        model = build_textrnn((24, 12), 4, stride=3, seed=0)
        out = model.forward(np.zeros((5, 24, 12)))
        assert out.shape == (5, 4)

    def test_invalid_stride(self):
        with pytest.raises(ConfigurationError):
            build_textrnn((24, 12), 4, stride=0)


class TestYolo:
    def test_output_is_box_plus_classes(self):
        model = build_yolo((3, 8, 8), 8, seed=0)
        out = model.forward(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 4 + 8)

    def test_dropout_does_not_change_flops(self):
        """Dropout is a training-only regulariser: architectures with
        different rates share inference cost (drives cache reuse, §3.4)."""
        low = build_yolo((3, 8, 8), 8, dropout=0.1, seed=0)
        high = build_yolo((3, 8, 8), 8, dropout=0.5, seed=0)
        assert low.flops((3, 8, 8))[0] == high.flops((3, 8, 8))[0]
        assert low.parameter_count() == high.parameter_count()

    def test_invalid_dropout(self):
        with pytest.raises(ConfigurationError):
            build_yolo((3, 8, 8), 8, dropout=1.0)


class TestRegistry:
    def test_all_families_present(self):
        assert model_names() == ["m5", "resnet", "textrnn", "yolo"]

    def test_unknown_family(self):
        with pytest.raises(WorkloadError):
            get_model_family("transformer")

    def test_instantiate_ignores_foreign_keys(self):
        """A full tuning configuration carries training/system keys the
        builder must skip."""
        family = get_model_family("resnet")
        model = family.instantiate(
            (3, 8, 8), 10,
            {"num_layers": 34, "train_batch_size": 64, "gpus": 4},
            seed=0,
        )
        assert model.forward(np.zeros((1, 3, 8, 8))).shape == (1, 10)

    @pytest.mark.parametrize("name,sample_shape", [
        ("m5", (1, 128)), ("resnet", (3, 8, 8)), ("yolo", (3, 8, 8)),
    ])
    def test_only_textrnn_splits_off_an_input_stage(self, name, sample_shape):
        """Only ``textrnn`` starts with a sample view (``SequenceStride``);
        every other family trains its whole model on whole samples."""
        model = get_model_family(name).instantiate(
            sample_shape, 4, {}, seed=0
        )
        assert model.input_stage() == (None, model)

    def test_model_parameter_kinds(self):
        for family in MODEL_FAMILIES.values():
            assert family.model_parameter.kind == "model"


class TestTrainer:
    def test_real_learning_happens(self):
        dataset = make_cifar10(samples=400, seed=1)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("resnet")
        model = family.instantiate(dataset.sample_shape,
                                   dataset.num_classes, seed=3)
        result = train_model(
            model, family.make_loss(dataset.num_classes), train, test,
            epochs=8, batch_size=16, lr=0.02, seed=5,
        )
        assert result.accuracy > 0.5  # far above 10 % chance
        assert result.losses[-1] < result.losses[0]

    def test_budget_controls_cost(self):
        dataset = make_cifar10(samples=300, seed=1)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("resnet")

        def run(epochs, fraction):
            model = family.instantiate(dataset.sample_shape,
                                       dataset.num_classes, seed=3)
            return train_model(
                model, family.make_loss(dataset.num_classes), train, test,
                epochs=epochs, batch_size=16, data_fraction=fraction, seed=5,
            )

        cheap = run(1, 0.1)
        full = run(4, 1.0)
        assert cheap.samples_seen < full.samples_seen / 10
        assert cheap.train_total_flops < full.train_total_flops

    def test_flop_accounting(self):
        dataset = make_cifar10(samples=100, seed=1)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("resnet")
        model = family.instantiate(dataset.sample_shape,
                                   dataset.num_classes, seed=3)
        result = train_model(
            model, family.make_loss(dataset.num_classes), train, test,
            epochs=2, batch_size=16, seed=5,
        )
        assert result.samples_seen == 2 * len(train)
        assert result.train_forward_flops == (
            result.forward_flops_per_sample * result.samples_seen
        )
        assert result.train_total_flops == pytest.approx(
            3 * result.train_forward_flops
        )

    def test_deterministic_given_seed(self):
        dataset = make_cifar10(samples=200, seed=1)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("resnet")

        def run():
            model = family.instantiate(dataset.sample_shape,
                                       dataset.num_classes, seed=3)
            return train_model(
                model, family.make_loss(dataset.num_classes), train, test,
                epochs=2, batch_size=16, seed=5,
            )

        assert run().accuracy == run().accuracy

    def test_invalid_epochs(self):
        dataset = make_cifar10(samples=50, seed=1)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("resnet")
        model = family.instantiate(dataset.sample_shape,
                                   dataset.num_classes, seed=3)
        with pytest.raises(BudgetError):
            train_model(model, family.make_loss(10), train, test,
                        epochs=0, batch_size=16)

    def test_detection_accuracy_criterion(self):
        dataset = make_coco(samples=300, seed=4)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("yolo")
        model = family.instantiate(dataset.sample_shape,
                                   dataset.num_classes, seed=3)
        result = train_model(
            model, family.make_loss(dataset.num_classes), train, test,
            epochs=12, batch_size=16, lr=0.01, seed=5,
        )
        # Joint (class + box) criterion: should clearly beat the
        # class-only chance rate of 1/8.
        assert result.accuracy > 0.25

    @pytest.mark.parametrize(
        "maker,family_name",
        [
            (make_speech_commands, "m5"),
            (make_agnews, "textrnn"),
        ],
    )
    def test_other_modalities_learn(self, maker, family_name):
        dataset = maker(samples=400, seed=2)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family(family_name)
        model = family.instantiate(dataset.sample_shape,
                                   dataset.num_classes, seed=3)
        result = train_model(
            model, family.make_loss(dataset.num_classes), train, test,
            epochs=8, batch_size=16, lr=0.02, seed=5,
        )
        chance = 1.0 / dataset.num_classes
        assert result.accuracy > 2 * chance
