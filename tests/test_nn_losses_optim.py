"""Tests for losses, optimizers and LR schedules."""

import numpy as np
import pytest

from repro.datasets import (
    make_agnews,
    make_cifar10,
    make_coco,
    make_speech_commands,
)
from repro.errors import ConfigurationError, ShapeError
from repro.nn import (
    SGD,
    Adam,
    ConstantLR,
    CosineLR,
    CrossEntropyLoss,
    DetectionLoss,
    Linear,
    MSELoss,
    StepDecayLR,
    build_optimizer,
    load_state_dict,
    softmax,
    state_dict,
    train_model,
)
from repro.nn.models import build_conv_resnet, get_model_family
from repro.rng import spawn_rng

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# Oracles: the step as the textbook writes it.  ``repro.nn`` runs the same
# arithmetic fused (one parameter arena, one softmax-CE buffer, no gradient
# for the data); these stay here, unfused and per parameter, as what it must
# equal bit for bit.
# ---------------------------------------------------------------------------


def reference_cross_entropy(logits, targets):
    """(loss, dL/dlogits): softmax -> clip -> log -> mean, all temporaries."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probabilities = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    clipped = np.clip(probabilities[rows, targets], 1e-12, None)
    grad = probabilities.copy()
    grad[rows, targets] -= 1.0
    return float(-np.log(clipped).mean()), grad / grad.shape[0]


def reference_detection(predictions, targets, box_weight=1.0):
    boxes_pred, boxes_true = predictions[:, :4], targets[:, :4]
    batch = predictions.shape[0]
    class_loss, grad_class = reference_cross_entropy(
        predictions[:, 4:], targets[:, 4].astype(int)
    )
    box_loss = ((boxes_pred - boxes_true) ** 2).mean()
    grad = np.zeros_like(predictions)
    grad[:, :4] = box_weight * 2.0 * (boxes_pred - boxes_true) / (batch * 4)
    grad[:, 4:] = grad_class
    return float(box_weight * box_loss + class_loss), grad


def reference_loss(loss, outputs, targets):
    if isinstance(loss, DetectionLoss):
        return reference_detection(outputs, targets, loss.box_weight)
    return reference_cross_entropy(outputs, targets)


def reference_steps(model, loss, batches, lr, momentum, weight_decay,
                    velocity=None):
    """Textbook SGD over ``batches``: unfused loss, the full backward chain
    (input gradient and all), ``v = m*v - lr*(g + wd*w)`` per parameter.
    Returns the per-step losses and the velocity buffers."""
    parameters = model.parameters()
    if velocity is None:
        velocity = [np.zeros_like(p.value) for p in parameters]
    model.train()
    losses = []
    for features, targets in batches:
        for parameter in parameters:
            parameter.grad.fill(0.0)
        value, grad = reference_loss(loss, model.forward(features), targets)
        losses.append(value)
        model.backward(grad)
        for parameter, v in zip(parameters, velocity):
            v[...] = momentum * v - lr * (
                parameter.grad + weight_decay * parameter.value
            )
            parameter.value += v
    return losses, velocity


def engine_steps(model, loss, batches, lr, momentum, weight_decay):
    """The same steps the way ``train_model`` takes them."""
    optimizer = SGD(
        model.parameters(), lr=lr, momentum=momentum,
        weight_decay=weight_decay,
    )
    model.train()
    losses = []
    for features, targets in batches:
        optimizer.zero_grad()
        losses.append(loss.forward(model.forward(features), targets))
        model.backward(loss.backward(), need_input_grad=False)
        optimizer.step()
    return losses, optimizer


def raw(arrays):
    """Byte images, so that signed zeros and NaN payloads count."""
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def family_case(name, dataset, hyperparameters=None):
    family = get_model_family(name)
    return dataset, family.make_loss(dataset.num_classes), (
        lambda: family.instantiate(
            dataset.sample_shape, dataset.num_classes, hyperparameters, seed=3
        )
    )


def conv_resnet_case():
    dataset = make_cifar10(samples=40, image_size=12, seed=1)
    return dataset, CrossEntropyLoss(), lambda: build_conv_resnet(
        dataset.sample_shape, dataset.num_classes, seed=3
    )


#: One model per family; ``textrnn`` unrolled to T = 1 (the common case
#: under the tuned stride) and to T = 6.
FAMILY_CASES = {
    "textrnn-T1": lambda: family_case(
        "textrnn", make_agnews(samples=40, seed=1), {"stride": 24}),
    "textrnn-T6": lambda: family_case(
        "textrnn", make_agnews(samples=40, seed=1), {"stride": 4}),
    "m5": lambda: family_case("m5", make_speech_commands(samples=40, seed=1)),
    "resnet": lambda: family_case("resnet", make_cifar10(samples=40, seed=1)),
    "conv_resnet": conv_resnet_case,
    "yolo": lambda: family_case(
        "yolo", make_coco(samples=40, image_size=16, seed=1),
        {"dropout": 0.3}),
}

SGD_SETTINGS = [(0.0, 0.0), (0.9, 1e-4)]


@pytest.mark.parametrize("momentum,weight_decay", SGD_SETTINGS)
@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
class TestTrainingEqualsTheOracle:
    def test_every_step(self, case, momentum, weight_decay):
        dataset, loss, build = FAMILY_CASES[case]()
        batches = list(dataset.batches(16, rng=2)) * 2  # 6 steps, 8-row tail
        ours, theirs = build(), build()
        losses, optimizer = engine_steps(
            ours, loss, batches, 0.05, momentum, weight_decay
        )
        ref_losses, ref_velocity = reference_steps(
            theirs, loss, batches, 0.05, momentum, weight_decay
        )
        assert raw(losses) == raw(ref_losses)
        assert raw(p.value for p in ours.parameters()) == raw(
            p.value for p in theirs.parameters()
        )
        assert raw(optimizer.state_dict()["velocity"]) == raw(ref_velocity)

    def test_train_model_with_a_warm_resume_round_trip(
        self, case, momentum, weight_decay
    ):
        """Epoch 0 captured, epoch 1 resumed into a fresh model (weights
        loaded *after* its optimizer packed the arena) — against the
        oracle running both epochs in one go on the same batches."""
        dataset, loss, build = FAMILY_CASES[case]()
        train, held_out = dataset.split(0.2, rng=0)
        settings = dict(
            batch_size=12, lr=0.05, momentum=momentum,
            weight_decay=weight_decay, data_fraction=0.8, seed=5,
            capture_state=True,
        )
        first = train_model(
            build(), loss, train, held_out, epochs=1, **settings
        )
        resumed = build()
        second = train_model(
            resumed, loss, train, held_out, epochs=2, start_epoch=1,
            init_state=first.resume_state, **settings
        )

        oracle, velocity, epoch_losses = None, None, []
        subset = train.subset(0.8, rng=spawn_rng(5, "subset"))
        for epoch in range(2):
            # A resumed trial is a freshly built model (so a fresh dropout
            # stream) carrying its parent's weights and velocity.
            weights, oracle = oracle and state_dict(oracle), build()
            if weights:
                load_state_dict(oracle, weights)
            batches = list(subset.batches(12, rng=spawn_rng(5, "epoch", epoch)))
            step_losses, velocity = reference_steps(
                oracle, loss, batches, 0.05, momentum, weight_decay, velocity
            )
            epoch_losses.append(sum(step_losses, 0.0) / len(step_losses))
        assert raw(first.losses + second.losses) == raw(epoch_losses)
        assert raw(second.resume_state["velocity"]) == raw(velocity)
        assert raw(second.resume_state["weights"].values()) == raw(
            p.value for p in oracle.parameters()
        )
        assert raw(p.value for p in resumed.parameters()) == raw(
            p.value for p in oracle.parameters()
        )


class TestParameterArena:
    def make(self):
        family = get_model_family("textrnn")
        return family.instantiate((24, 12), 4, {"stride": 4}, seed=3)

    def test_parameters_become_views_of_one_buffer(self):
        model = self.make()
        before = state_dict(model)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        assert optimizer.values.ndim == 1
        assert optimizer.values.size == model.parameter_count()
        for parameter in model.parameters():
            assert np.shares_memory(parameter.value, optimizer.values)
            assert np.shares_memory(parameter.grad, optimizer.grads)
        assert raw(state_dict(model).values()) == raw(before.values())
        model.parameters()[0].grad += 1.0
        optimizer.zero_grad()
        assert not optimizer.grads.any()

    def test_load_state_dict_after_the_optimizer_keeps_the_arena_attached(self):
        dataset = make_agnews(samples=32, seed=1)
        batches = list(dataset.batches(16, rng=2))
        donor = get_model_family("textrnn").instantiate(
            (24, 12), 4, {"stride": 4}, seed=11
        )
        ours, theirs, loss = self.make(), self.make(), CrossEntropyLoss()
        optimizer = SGD(ours.parameters(), lr=0.05, momentum=0.9)
        load_state_dict(ours, state_dict(donor))
        load_state_dict(theirs, state_dict(donor))
        for parameter in ours.parameters():
            assert np.shares_memory(parameter.value, optimizer.values)
        for features, targets in batches:
            optimizer.zero_grad()
            loss.forward(ours.forward(features), targets)
            ours.backward(loss.backward(), need_input_grad=False)
            optimizer.step()
        reference_steps(theirs, loss, batches, 0.05, 0.9, 0.0)
        assert raw(p.value for p in ours.parameters()) == raw(
            p.value for p in theirs.parameters()
        )

    def test_adam_equals_its_per_parameter_form(self):
        ours, theirs = Linear(5, 3, rng=0), Linear(5, 3, rng=0)
        optimizer = Adam(ours.parameters(), lr=0.01)
        beta1, beta2, eps = optimizer.beta1, optimizer.beta2, optimizer.eps
        moments = [
            (np.zeros_like(p.value), np.zeros_like(p.value))
            for p in theirs.parameters()
        ]
        for step in range(1, 4):
            for mine, other in zip(ours.parameters(), theirs.parameters()):
                grad = RNG.normal(size=mine.value.shape)
                mine.grad[...] = grad
                other.grad[...] = grad
            optimizer.step()
            for parameter, (m, v) in zip(theirs.parameters(), moments):
                grad = parameter.grad
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad**2
                m_hat = m / (1.0 - beta1**step)
                v_hat = v / (1.0 - beta2**step)
                parameter.value -= 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        assert raw(p.value for p in ours.parameters()) == raw(
            p.value for p in theirs.parameters()
        )


def numeric_loss_gradient(loss, predictions, targets, eps=1e-6):
    grad = np.zeros_like(predictions)
    flat = predictions.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = loss.forward(predictions, targets)
        flat[i] = original - eps
        minus = loss.forward(predictions, targets)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probabilities = softmax(RNG.normal(size=(5, 4)))
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_numerically_stable(self):
        probabilities = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probabilities, [[0.5, 0.5]])


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = CrossEntropyLoss()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-4

    def test_uniform_prediction_log_k(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((4, 10))
        value = loss.forward(logits, np.zeros(4, dtype=int))
        assert value == pytest.approx(np.log(10))

    def test_gradient_matches_numeric(self):
        loss = CrossEntropyLoss()
        logits = RNG.normal(size=(3, 5))
        targets = np.array([0, 2, 4])
        numeric = numeric_loss_gradient(loss, logits, targets)
        loss.forward(logits, targets)
        np.testing.assert_allclose(loss.backward(), numeric, atol=1e-6)

    def test_shape_validation(self):
        loss = CrossEntropyLoss()
        with pytest.raises(ShapeError):
            loss.forward(np.zeros((3, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    def test_fused_kernel_equals_the_unfused_formulas(self, scale):
        """``scale`` walks from ordinary logits to saturated ones, where
        probabilities hit 0/1, the clip engages and the loss is -0.0."""
        loss = CrossEntropyLoss()
        for batch in (1, 7, 7, 16):  # repeated shape: the buffer is reused
            logits = scale * RNG.normal(size=(batch, 5))
            targets = RNG.integers(5, size=batch)
            if scale == 1e4:
                targets[0] = logits[0].argmax()
            value, grad = reference_cross_entropy(logits, targets)
            assert raw([loss.forward(logits, targets)]) == raw([value])
            assert raw([loss.backward()]) == raw([grad])

    def test_backward_runs_once_per_forward(self):
        """The fused backward consumes the cached probabilities in place;
        a second call must not hand back a gradient with 1 subtracted
        twice."""
        loss = CrossEntropyLoss()
        with pytest.raises(ShapeError, match="before forward"):
            loss.backward()
        logits, targets = RNG.normal(size=(4, 3)), np.array([0, 1, 2, 1])
        loss.forward(logits, targets)
        grad = loss.backward().copy()
        with pytest.raises(ShapeError, match="before forward"):
            loss.backward()
        loss.forward(logits, targets)
        assert raw([loss.backward()]) == raw([grad])


class TestMSE:
    def test_zero_for_exact(self):
        loss = MSELoss()
        x = RNG.normal(size=(3, 2))
        assert loss.forward(x, x.copy()) == 0.0

    def test_gradient_matches_numeric(self):
        loss = MSELoss()
        predictions = RNG.normal(size=(4, 3))
        targets = RNG.normal(size=(4, 3))
        numeric = numeric_loss_gradient(loss, predictions, targets)
        loss.forward(predictions, targets)
        np.testing.assert_allclose(loss.backward(), numeric, atol=1e-6)


class TestDetectionLoss:
    def make_data(self, n=4, classes=6):
        predictions = RNG.normal(size=(n, 4 + classes))
        targets = np.zeros((n, 5))
        targets[:, :4] = RNG.uniform(0, 1, size=(n, 4))
        targets[:, 4] = RNG.integers(classes, size=n)
        return predictions, targets

    def test_gradient_matches_numeric(self):
        loss = DetectionLoss(num_classes=6)
        predictions, targets = self.make_data()
        numeric = numeric_loss_gradient(loss, predictions, targets)
        loss.forward(predictions, targets)
        np.testing.assert_allclose(loss.backward(), numeric, atol=1e-6)

    def test_box_weight_scales_box_term(self):
        predictions, targets = self.make_data()
        light = DetectionLoss(6, box_weight=0.0).forward(
            predictions, targets
        )
        heavy = DetectionLoss(6, box_weight=10.0).forward(
            predictions, targets
        )
        assert heavy > light

    def test_shape_validation(self):
        loss = DetectionLoss(num_classes=6)
        with pytest.raises(ShapeError):
            loss.forward(np.zeros((2, 9)), np.zeros((2, 5)))  # 4+6=10 != 9

    def test_equals_the_unfused_formulas(self):
        loss = DetectionLoss(num_classes=6, box_weight=2.5)
        for _ in range(2):
            predictions, targets = self.make_data(n=9)
            value, grad = reference_detection(predictions, targets, 2.5)
            assert raw([loss.forward(predictions, targets)]) == raw([value])
            assert raw([loss.backward()]) == raw([grad])

    def test_backward_runs_once_per_forward(self):
        loss = DetectionLoss(num_classes=6)
        with pytest.raises(ShapeError, match="before forward"):
            loss.backward()
        loss.forward(*self.make_data())
        loss.backward()
        with pytest.raises(ShapeError, match="before forward"):
            loss.backward()


class TestSGD:
    def test_plain_step(self):
        layer = Linear(2, 1, rng=0)
        layer.weight.grad[:] = 1.0
        before = layer.weight.value.copy()
        SGD([layer.weight, layer.bias], lr=0.1).step()
        np.testing.assert_allclose(layer.weight.value, before - 0.1)

    def test_momentum_accumulates(self):
        layer = Linear(1, 1, rng=0)
        optimizer = SGD([layer.weight], lr=0.1, momentum=0.9)
        layer.weight.grad[:] = 1.0
        optimizer.step()
        first_move = -0.1
        layer.weight.grad[:] = 1.0
        before = layer.weight.value.copy()
        optimizer.step()
        second_move = layer.weight.value - before
        assert second_move[0, 0] == pytest.approx(
            0.9 * first_move - 0.1
        )

    def test_weight_decay_shrinks(self):
        layer = Linear(1, 1, rng=0)
        layer.weight.value[:] = 2.0
        layer.weight.grad[:] = 0.0
        SGD([layer.weight], lr=0.1, weight_decay=0.5).step()
        assert layer.weight.value[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_minimises_quadratic(self):
        from repro.nn.module import ParamTensor

        parameter = ParamTensor("x", np.array([5.0]))
        optimizer = SGD([parameter], lr=0.1, momentum=0.5)
        for _ in range(100):
            parameter.zero_grad()
            parameter.grad[:] = 2 * parameter.value  # d/dx x^2
            optimizer.step()
        assert abs(parameter.value[0]) < 1e-3

    def test_invalid_hyperparameters(self):
        layer = Linear(1, 1, rng=0)
        with pytest.raises(ConfigurationError):
            SGD([layer.weight], lr=0.0)
        with pytest.raises(ConfigurationError):
            SGD([layer.weight], lr=0.1, momentum=1.0)
        with pytest.raises(ConfigurationError):
            SGD([layer.weight], lr=0.1, weight_decay=-1.0)


class TestAdam:
    def test_minimises_quadratic(self):
        from repro.nn.module import ParamTensor

        parameter = ParamTensor("x", np.array([3.0]))
        optimizer = Adam([parameter], lr=0.2)
        for _ in range(200):
            parameter.zero_grad()
            parameter.grad[:] = 2 * parameter.value
            optimizer.step()
        assert abs(parameter.value[0]) < 1e-2

    def test_invalid_betas(self):
        layer = Linear(1, 1, rng=0)
        with pytest.raises(ConfigurationError):
            Adam([layer.weight], beta1=1.0)


class TestSchedules:
    def test_constant(self):
        assert ConstantLR().rate(50, 0.1) == 0.1

    def test_step_decay(self):
        schedule = StepDecayLR(step_size=10, gamma=0.5)
        assert schedule.rate(0, 0.1) == 0.1
        assert schedule.rate(10, 0.1) == pytest.approx(0.05)
        assert schedule.rate(25, 0.1) == pytest.approx(0.025)

    def test_cosine_endpoints(self):
        schedule = CosineLR(total_epochs=10, min_lr=0.01)
        assert schedule.rate(0, 0.1) == pytest.approx(0.1)
        assert schedule.rate(10, 0.1) == pytest.approx(0.01)
        assert 0.01 < schedule.rate(5, 0.1) < 0.1


class TestOptimizerRegistry:
    def test_build_by_name(self):
        layer = Linear(1, 1, rng=0)
        assert isinstance(build_optimizer("sgd", [layer.weight]), SGD)
        assert isinstance(build_optimizer("ADAM", [layer.weight]), Adam)

    def test_unknown(self):
        layer = Linear(1, 1, rng=0)
        with pytest.raises(ConfigurationError):
            build_optimizer("lion", [layer.weight])
