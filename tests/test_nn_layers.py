"""Gradient and behaviour tests for the NN engine's layers.

Every layer's backward pass is checked against central finite differences
— the strongest correctness evidence a hand-written backprop engine can
have.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import (
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Dropout,
    ElmanRNN,
    Flatten,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    Linear,
    MaxPool1d,
    MaxPool2d,
    ReLU,
    Residual,
    SequenceStride,
    Sequential,
    Tanh,
)

RNG = np.random.default_rng(1234)
EPS = 1e-6


def numeric_gradient(fn, array, eps=EPS):
    """Central-difference gradient of scalar fn w.r.t. array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn()
        flat[i] = original - eps
        minus = fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_input_gradient(layer, inputs, atol=1e-6):
    """Compare layer.backward against numeric input gradient of sum(out)."""
    inputs = np.asarray(inputs, dtype=np.float64)

    def loss():
        return layer.forward(inputs).sum()

    numeric = numeric_gradient(loss, inputs)
    layer.forward(inputs)
    analytic = layer.backward(np.ones_like(layer.forward(inputs)))
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


def check_param_gradients(layer, inputs, atol=1e-6):
    """Compare parameter gradients against numeric differentiation."""
    inputs = np.asarray(inputs, dtype=np.float64)
    for parameter in layer.parameters():
        def loss():
            return layer.forward(inputs).sum()

        numeric = numeric_gradient(loss, parameter.value)
        layer.zero_grad()
        out = layer.forward(inputs)
        layer.backward(np.ones_like(out))
        np.testing.assert_allclose(
            parameter.grad, numeric, atol=atol, rtol=1e-4,
            err_msg=f"parameter {parameter.name}",
        )


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=0)
        assert layer.forward(RNG.normal(size=(5, 4))).shape == (5, 3)

    def test_input_gradient(self):
        check_input_gradient(Linear(4, 3, rng=0), RNG.normal(size=(3, 4)))

    def test_param_gradients(self):
        check_param_gradients(Linear(4, 3, rng=0), RNG.normal(size=(3, 4)))

    def test_wrong_features_rejected(self):
        with pytest.raises(ShapeError):
            Linear(4, 3, rng=0).forward(RNG.normal(size=(2, 5)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ShapeError):
            Linear(4, 3, rng=0).backward(np.ones((2, 3)))

    def test_flops_count(self):
        flops, shape = Linear(4, 3, rng=0).flops((4,))
        assert shape == (3,)
        assert flops == 2 * 4 * 3 + 3


class TestActivations:
    def test_relu_gradient(self):
        check_input_gradient(ReLU(), RNG.normal(size=(4, 6)) + 0.1)

    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_tanh_gradient(self):
        check_input_gradient(Tanh(), RNG.normal(size=(4, 6)))


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=0)
        layer.training = False
        x = RNG.normal(size=(4, 8))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_training_mode_scales(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((1000, 10))
        out = layer.forward(x)
        # Inverted dropout preserves the expectation.
        assert abs(out.mean() - 1.0) < 0.1
        # Some units are dropped.
        assert (out == 0).any()

    def test_invalid_rate_rejected(self):
        with pytest.raises(ShapeError):
            Dropout(1.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((10, 10))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal((out == 0), (grad == 0))


class TestBatchNorm:
    def test_normalises_batch(self):
        layer = BatchNorm1d(4)
        x = RNG.normal(3.0, 2.0, size=(64, 4))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_input_gradient(self):
        check_input_gradient(
            BatchNorm1d(3), RNG.normal(size=(5, 3)), atol=1e-5
        )

    def test_param_gradients(self):
        check_param_gradients(BatchNorm1d(3), RNG.normal(size=(5, 3)))

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(2, momentum=1.0)
        x = RNG.normal(5.0, 1.0, size=(128, 2))
        layer.forward(x)
        layer.training = False
        out = layer.forward(x)
        assert abs(out.mean()) < 0.2


class TestConv1d:
    def test_output_shape(self):
        layer = Conv1d(2, 5, kernel_size=3, stride=2, rng=0)
        out = layer.forward(RNG.normal(size=(4, 2, 11)))
        assert out.shape == (4, 5, 5)

    def test_input_gradient(self):
        check_input_gradient(
            Conv1d(2, 3, kernel_size=3, stride=2, rng=0),
            RNG.normal(size=(2, 2, 9)),
        )

    def test_param_gradients(self):
        check_param_gradients(
            Conv1d(2, 3, kernel_size=3, rng=0), RNG.normal(size=(2, 2, 7))
        )

    def test_flops_matches_shape(self):
        layer = Conv1d(2, 5, kernel_size=3, stride=2, rng=0)
        flops, shape = layer.flops((2, 11))
        assert shape == (5, 5)
        assert flops > 0


class TestConv2d:
    def test_output_shape(self):
        layer = Conv2d(3, 4, kernel_size=3, rng=0)
        out = layer.forward(RNG.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 4, 6, 6)

    def test_input_gradient(self):
        check_input_gradient(
            Conv2d(2, 3, kernel_size=2, stride=2, rng=0),
            RNG.normal(size=(2, 2, 6, 6)),
        )

    def test_param_gradients(self):
        check_param_gradients(
            Conv2d(2, 2, kernel_size=3, rng=0), RNG.normal(size=(2, 2, 5, 5))
        )


class TestPooling:
    def test_maxpool1d_values(self):
        layer = MaxPool1d(2)
        out = layer.forward(np.array([[[1.0, 3.0, 2.0, 5.0]]]))
        np.testing.assert_array_equal(out, [[[3.0, 5.0]]])

    def test_maxpool1d_gradient(self):
        check_input_gradient(MaxPool1d(2), RNG.normal(size=(2, 3, 8)))

    def test_maxpool2d_gradient(self):
        check_input_gradient(MaxPool2d(2), RNG.normal(size=(2, 2, 6, 6)))

    def test_gap1d_gradient(self):
        check_input_gradient(GlobalAvgPool1d(), RNG.normal(size=(3, 4, 6)))

    def test_gap2d_gradient(self):
        check_input_gradient(GlobalAvgPool2d(), RNG.normal(size=(2, 3, 4, 4)))


class TestInputShapeChecks:
    @pytest.mark.parametrize("layer,sample_shape", [
        (Linear(6, 4, rng=0), (6,)),
        (Conv1d(2, 3, 3, rng=0), (2, 8)),
        (Conv2d(2, 3, 3, rng=0), (2, 6, 6)),
        (MaxPool1d(2), (2, 8)),
        (MaxPool2d(2), (2, 6, 6)),
        (GlobalAvgPool1d(), (2, 8)),
        (GlobalAvgPool2d(), (2, 6, 6)),
    ])
    def test_a_batch_of_the_wrong_rank_is_rejected(self, layer, sample_shape):
        layer.forward(np.zeros((5,) + sample_shape))
        with pytest.raises(ShapeError):  # one axis too many
            layer.forward(np.zeros((3, 5) + sample_shape))
        with pytest.raises(ShapeError):  # a single unbatched sample
            layer.forward(np.zeros(sample_shape))

    @pytest.mark.parametrize("layer,shape", [
        (Conv1d(2, 3, 3, rng=0), (5, 3, 8)),
        (Conv2d(2, 3, 3, rng=0), (5, 3, 6, 6)),
    ])
    def test_conv_rejects_the_wrong_channel_count(self, layer, shape):
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(shape))


class TestRecurrent:
    def test_rnn_output_shape(self):
        layer = ElmanRNN(5, 7, rng=0)
        assert layer.forward(RNG.normal(size=(3, 6, 5))).shape == (3, 7)

    def test_rnn_input_gradient(self):
        check_input_gradient(
            ElmanRNN(3, 4, rng=0), RNG.normal(size=(2, 5, 3)), atol=1e-5
        )

    def test_rnn_param_gradients(self):
        check_param_gradients(
            ElmanRNN(3, 4, rng=0), RNG.normal(size=(2, 4, 3)), atol=1e-5
        )

    def test_stride_subsamples(self):
        layer = SequenceStride(3)
        out = layer.forward(RNG.normal(size=(2, 10, 4)))
        assert out.shape == (2, 4, 4)

    def test_stride_gradient(self):
        check_input_gradient(SequenceStride(2), RNG.normal(size=(2, 7, 3)))


class TestComposite:
    def test_residual_gradient(self):
        inner = Sequential(Linear(4, 4, rng=0), ReLU(), Linear(4, 4, rng=1))
        check_input_gradient(Residual(inner), RNG.normal(size=(3, 4)))

    def test_residual_requires_matching_shapes(self):
        block = Residual(Linear(4, 3, rng=0))
        with pytest.raises(ShapeError):
            block.flops((4,))

    def test_sequential_gradient(self):
        model = Sequential(
            Flatten(), Linear(12, 6, rng=0), Tanh(), Linear(6, 2, rng=1)
        )
        check_input_gradient(model, RNG.normal(size=(2, 3, 4)))

    def test_sequential_flops_accumulate(self):
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        flops, shape = model.flops((4,))
        assert shape == (2,)
        assert flops == (2 * 4 * 8 + 8) + 8 + (2 * 8 * 2 + 2)

    def test_train_eval_propagates(self):
        drop = Dropout(0.5, rng=0)
        model = Sequential(Linear(4, 4, rng=0), drop)
        model.eval()
        assert drop.training is False
        model.train()
        assert drop.training is True

    def test_parameter_count(self):
        model = Sequential(Linear(4, 3, rng=0))
        assert model.parameter_count() == 4 * 3 + 3


class TestDataGradientRule:
    """``train_model`` has no consumer for dL/d(input batch): the first
    trainable layer is told so and what is in front of it is skipped, while
    ``backward`` called directly still returns the full input gradient."""

    FAMILIES = {
        "textrnn": ((24, 12), {"stride": 4}),
        "m5": ((1, 128), None),
        "resnet": ((3, 8, 8), None),
        "yolo": ((3, 16, 16), {"dropout": 0.3}),
    }

    def build(self, name):
        from repro.nn.models import get_model_family

        sample_shape, hyperparameters = self.FAMILIES[name]
        return get_model_family(name).instantiate(
            sample_shape, 5, hyperparameters, seed=3
        )

    def train(self, name, dataset):
        from repro.nn import CrossEntropyLoss, train_model

        train_set, held_out = dataset.split(0.2, rng=0)
        result = train_model(
            self.build(name), CrossEntropyLoss(), train_set, held_out,
            epochs=2, batch_size=16, seed=5,
        )
        return -(-result.samples_seen // 16)  # 16-row batches: steps taken

    def test_m5_step_computes_one_conv_input_gradient_not_two(
        self, monkeypatch
    ):
        from repro.datasets import make_speech_commands
        from repro.nn import kernels

        calls = []
        original = kernels.conv1d_input_grad
        monkeypatch.setattr(
            kernels, "conv1d_input_grad",
            lambda *args: calls.append(1) or original(*args),
        )
        steps = self.train(
            "m5", make_speech_commands(samples=40, num_classes=5, seed=1)
        )
        assert steps == 4 and len(calls) == steps
        # Called directly, the same model runs both.
        model = self.build("m5")
        del calls[:]
        model.backward(np.ones_like(model.forward(RNG.normal(size=(4, 1, 128)))))
        assert len(calls) == 2

    def test_textrnn_step_never_scatters_through_the_stride(
        self, monkeypatch
    ):
        from repro.datasets import make_agnews

        def forbidden(self, grad_output):
            raise AssertionError("SequenceStride.backward under train_model")

        monkeypatch.setattr(SequenceStride, "backward", forbidden)
        assert self.train(
            "textrnn", make_agnews(samples=40, num_classes=5, seed=1)
        ) == 4

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_direct_backward_still_returns_the_input_gradient(self, name):
        inputs = RNG.normal(size=(6,) + self.FAMILIES[name][0])
        direct, chained, headless = (self.build(name) for _ in range(3))
        grad_output = np.ones_like(direct.forward(inputs))

        got = direct.backward(grad_output)
        # The chain as Sequential has always run it, layer by layer.
        chained.forward(inputs)
        expected = grad_output
        for module in reversed(chained.modules):
            expected = module.backward(expected)
        assert got.shape == inputs.shape
        assert got.tobytes() == expected.tobytes()

        # Skipping the data gradient changes no parameter gradient.
        headless.forward(inputs)
        assert headless.backward(grad_output, need_input_grad=False) is None
        for ours, theirs in zip(headless.parameters(), direct.parameters()):
            assert ours.grad.any()
            assert ours.grad.tobytes() == theirs.grad.tobytes()

    def test_rule_reaches_a_head_nested_in_containers(self):
        def build():
            return Sequential(
                Flatten(),
                Residual(Sequential(Linear(6, 6, rng=0), Tanh())),
                BatchNorm1d(6),
                Linear(6, 2, rng=1),
            )

        inputs = RNG.normal(size=(5, 2, 3))
        full, headless = build(), build()
        grad_output = np.ones((5, 2))
        full.forward(inputs)
        assert full.backward(grad_output).shape == inputs.shape
        headless.forward(inputs)
        assert headless.backward(grad_output, need_input_grad=False) is None
        for ours, theirs in zip(headless.parameters(), full.parameters()):
            assert ours.grad.tobytes() == theirs.grad.tobytes()
        # A chain that starts with the batch norm ends there.
        norm_first = Sequential(BatchNorm1d(6), Linear(6, 2, rng=1))
        norm_first.forward(inputs.reshape(5, 6))
        assert norm_first.backward(grad_output, need_input_grad=False) is None
        assert norm_first.parameters()[0].grad.any()

    def test_head_is_found_once_and_follows_append(self, monkeypatch):
        calls = []
        original = ReLU.parameters
        monkeypatch.setattr(
            ReLU, "parameters", lambda self: calls.append(1) or original(self)
        )
        inputs = RNG.normal(size=(5, 4))
        # No module owns parameters: the chain runs no backward at all.
        model = Sequential(ReLU())
        for _ in range(3):
            model.forward(inputs)
            assert model.backward(inputs, need_input_grad=False) is None
        assert len(calls) == 1, "the head is searched for once, not per step"
        # Appending a trainable layer behind the ReLU moves the head to it.
        model.append(Linear(4, 2, rng=0))
        model.forward(inputs)
        model.backward(np.ones((5, 2)), need_input_grad=False)
        assert model.modules[1].weight.grad.any()
        assert len(calls) == 2

    def test_found_head_stays_out_of_pickles(self):
        model = Sequential(ReLU(), Linear(4, 2, rng=0))
        blob = pickle.dumps(model)
        model.forward(RNG.normal(size=(5, 4)))
        model.backward(np.ones((5, 2)), need_input_grad=False)
        assert "_head" in vars(model)
        assert pickle.dumps(model) == blob
        assert "_head" not in vars(pickle.loads(blob))
