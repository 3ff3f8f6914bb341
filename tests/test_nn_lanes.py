"""The NN engine's lane contract, layer by layer.

A lane is a leading tensor axis: ``stack_modules`` builds K trials'
models into one model of the *same* layer classes around ``(K, ...)``
parameters, and every lane-safe body computes on trailing axes.  Pinned
here for each lane-safe class on its own (whole-model training is
``tests/test_batched.py``): lane ``k`` of a stacked forward/backward is,
byte for byte, trial ``k``'s serial forward/backward — output, every
parameter gradient and the input gradient, with and without
``need_input_grad`` — plus the shape checks at stacked rank, the
whitelist, and that a stack owns its step state.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.batched import (
    LaneDropout,
    UnstackableModelError,
    stack_modules,
    stackable_model,
)
from repro.nn.conv import (
    Conv1d,
    Conv2d,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    MaxPool1d,
    MaxPool2d,
)
from repro.nn.layers import (
    BatchNorm1d,
    Dropout,
    Flatten,
    Linear,
    ReLU,
    Residual,
    Sequential,
    Tanh,
)
from repro.nn.module import ParamTensor
from repro.nn.recurrent import ElmanRNN, SequenceStride

LANES = 3
BATCH = 5
#: Per-lane dropout rates: mixed, and one lane that drops nothing.
RATES = (0.3, 0.0, 0.5)


def nested(lane):
    return Sequential(
        Conv1d(2, 4, 3, rng=40 + lane),
        ReLU(),
        MaxPool1d(2),
        Sequential(
            Flatten(),
            Dropout(RATES[lane], rng=50 + lane),
            Residual(Linear(20, 20, rng=60 + lane)),
        ),
        Tanh(),
        Linear(20, 3, rng=70 + lane),
    )


#: name -> (builder(lane), per-sample input shape); a builder seeds each
#: lane differently, so identical lanes cannot hide a lane mix-up.
CASES = {
    "Linear": (lambda lane: Linear(6, 4, rng=lane), (6,)),
    "ReLU": (lambda lane: ReLU(), (5,)),
    "Tanh": (lambda lane: Tanh(), (5,)),
    "Flatten": (lambda lane: Flatten(), (2, 3)),
    "Dropout": (lambda lane: Dropout(RATES[lane], rng=10 + lane), (7,)),
    "Conv1d": (lambda lane: Conv1d(2, 3, 3, stride=2, rng=lane), (2, 12)),
    "Conv2d": (lambda lane: Conv2d(2, 3, 3, rng=lane), (2, 6, 7)),
    "MaxPool1d": (lambda lane: MaxPool1d(2), (2, 9)),
    "MaxPool2d": (lambda lane: MaxPool2d(2), (2, 7, 6)),
    "MaxPool2d-k3": (lambda lane: MaxPool2d(3), (2, 7, 6)),
    "GlobalAvgPool1d": (lambda lane: GlobalAvgPool1d(), (3, 5)),
    "GlobalAvgPool2d": (lambda lane: GlobalAvgPool2d(), (3, 4, 5)),
    "Residual": (
        lambda lane: Residual(
            Sequential(Linear(4, 4, rng=lane), ReLU(), Linear(4, 4, rng=9))
        ),
        (4,),
    ),
    "Sequential": (nested, (2, 12)),
}


def owns_parameters(name):
    return bool(CASES[name][0](0).parameters())


def backward(module, grad, need_input_grad):
    """The chain's rule: only a parameter owner is ever told there is no
    consumer for its input gradient."""
    if need_input_grad:
        return module.backward(grad)
    return module.backward(grad, need_input_grad=False)


@pytest.mark.parametrize(
    "name,need_input_grad",
    [(name, True) for name in CASES]
    + [(name, False) for name in CASES if owns_parameters(name)],
)
def test_each_lane_of_a_stack_is_its_serial_run(name, need_input_grad):
    build, sample_shape = CASES[name]
    lanes = [build(lane) for lane in range(LANES)]
    alone = [build(lane) for lane in range(LANES)]
    assert stackable_model(lanes[0])
    stacked = stack_modules(lanes)
    rng = np.random.default_rng(7)
    # Two steps: the second runs on the buffers the first one left.
    for _ in range(2):
        inputs = rng.normal(size=(LANES, BATCH) + sample_shape)
        # Ties and exact zeros, for the pooling argmax and the ReLU mask.
        inputs[rng.random(inputs.shape) < 0.2] = 0.0
        for parameter in stacked.parameters():
            parameter.grad.fill(0.0)
        outputs = np.array(stacked.forward(inputs))
        grad = rng.normal(size=outputs.shape)
        grad_inputs = backward(stacked, grad, need_input_grad)
        if need_input_grad:
            assert grad_inputs.shape == inputs.shape
        else:
            assert grad_inputs is None
        for lane, model in enumerate(alone):
            model.zero_grad()
            ours = model.forward(inputs[lane])
            assert outputs[lane].shape == ours.shape
            assert outputs[lane].tobytes() == ours.tobytes()
            ours_grad = backward(model, grad[lane], need_input_grad)
            if need_input_grad:
                assert grad_inputs[lane].tobytes() == ours_grad.tobytes()
            for theirs, mine in zip(stacked.parameters(), model.parameters()):
                assert theirs.grad[lane].shape == mine.grad.shape
                assert theirs.grad[lane].tobytes() == mine.grad.tobytes()
    # A stack is made of the layer classes themselves.
    kind = type(lanes[0])
    assert type(stacked) is (LaneDropout if kind is Dropout else kind)


def test_unstack_writes_each_lane_back_into_its_own_model():
    lanes = [nested(lane) for lane in range(LANES)]
    before = [[p.value.copy() for p in m.parameters()] for m in lanes]
    stacked = stack_modules(lanes)
    for parameter in stacked.parameters():
        parameter.value += 1.0
    for model, values in zip(lanes, before):  # the stack holds copies
        for parameter, value in zip(model.parameters(), values):
            assert np.array_equal(parameter.value, value)
    for parameter in stacked.parameters():
        parameter.unstack()
    for model, values in zip(lanes, before):
        for parameter, value in zip(model.parameters(), values):
            assert np.array_equal(parameter.value, value + 1.0)


class TestShapeChecksAtStackedRank:
    def stack(self, build):
        return stack_modules([build(lane) for lane in range(LANES)])

    def test_linear_rejects_one_axis_too_many(self):
        stacked = self.stack(lambda lane: Linear(6, 4, rng=lane))
        stacked.forward(np.zeros((LANES, BATCH, 6)))
        with pytest.raises(ShapeError):
            stacked.forward(np.zeros((LANES, BATCH, 1, 6)))
        with pytest.raises(ShapeError):  # a plain batch is one too few
            stacked.forward(np.zeros((BATCH, 6)))

    def test_linear_rejects_wrong_feature_count(self):
        stacked = self.stack(lambda lane: Linear(6, 4, rng=lane))
        with pytest.raises(ShapeError):
            stacked.forward(np.zeros((LANES, BATCH, 7)))

    def test_conv1d_rejects_wrong_channel_count(self):
        stacked = self.stack(lambda lane: Conv1d(2, 3, 3, rng=lane))
        stacked.forward(np.zeros((LANES, BATCH, 2, 8)))
        with pytest.raises(ShapeError):
            stacked.forward(np.zeros((LANES, BATCH, 3, 8)))

    @pytest.mark.parametrize("build,sample_shape", [
        (lambda lane: Conv2d(2, 3, 3, rng=lane), (2, 6, 6)),
        (lambda lane: MaxPool1d(2), (2, 8)),
        (lambda lane: MaxPool2d(2), (2, 6, 6)),
        (lambda lane: GlobalAvgPool1d(), (2, 8)),
        (lambda lane: GlobalAvgPool2d(), (2, 6, 6)),
    ])
    def test_rank_is_checked_at_both_ranks(self, build, sample_shape):
        """A stack must not pass for a batch of higher-rank samples, nor
        the other way round."""
        batch = np.zeros((BATCH,) + sample_shape)
        stack = np.zeros((LANES, BATCH) + sample_shape)
        build(0).forward(batch)
        with pytest.raises(ShapeError):
            build(0).forward(stack)
        self.stack(build).forward(stack)
        with pytest.raises(ShapeError):
            self.stack(build).forward(batch)


class TestWhitelist:
    @pytest.mark.parametrize("build", [
        lambda lane: BatchNorm1d(4),
        lambda lane: ElmanRNN(3, 5, rng=lane),
        lambda lane: SequenceStride(2),
    ])
    def test_lane_unsafe_layers_are_refused(self, build):
        def tree(lane):
            return Sequential(
                Linear(4, 4, rng=lane), Residual(Sequential(build(lane)))
            )

        assert not stackable_model(tree(0))
        with pytest.raises(UnstackableModelError):
            stack_modules([tree(lane) for lane in range(LANES)])

    def test_lanes_must_agree_on_parameter_shapes(self):
        with pytest.raises(UnstackableModelError):
            stack_modules([Linear(4, 3, rng=0), Linear(4, 5, rng=1)])

    def test_a_lane_unsafe_loss_is_refused(self):
        from repro.datasets import make_cifar10
        from repro.nn import MSELoss
        from repro.nn.batched import train_model_batch

        train, held_out = make_cifar10(samples=40, seed=1).split(0.2, rng=0)
        models = [
            Sequential(Flatten(), Linear(192, 10, rng=lane))
            for lane in range(2)
        ]
        with pytest.raises(UnstackableModelError):
            train_model_batch(
                models, MSELoss(), train, held_out, epochs=1, batch_size=8
            )


def walk(module):
    yield module
    for child in getattr(module, "children", tuple)():
        yield from walk(child)


def step_state(module):
    """Every array and scratch dict reachable from a model's layers."""
    arrays, dicts = [], []

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, dict):
            dicts.append(value)
            for item in value.values():
                collect(item)
        elif isinstance(value, (tuple, list)):
            for item in value:
                collect(item)
        elif isinstance(value, ParamTensor) or hasattr(value, "sources"):
            collect(value.value)
            collect(value.grad)

    for layer in walk(module):
        if isinstance(layer, LaneDropout):
            continue  # holds the lanes' own Dropouts, by design
        for value in vars(layer).values():
            collect(value)
    return arrays, dicts


def test_a_stack_shares_no_buffer_with_the_models_it_was_built_from():
    """Lane 0 has run a step, so its caches and scratch dicts are live;
    a stack made by shallow-copying it would train into them."""
    lanes = [nested(lane) for lane in range(LANES)]
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(BATCH, 2, 12))
    lanes[0].backward(np.ones_like(lanes[0].forward(batch)))
    stacked = stack_modules(lanes)
    inputs = rng.normal(size=(LANES, BATCH, 2, 12))
    stacked.backward(np.ones_like(stacked.forward(inputs)))

    ours, our_dicts = step_state(stacked)
    theirs, their_dicts = step_state(lanes[0])
    assert len(ours) > 10 and len(theirs) > 10 and their_dicts
    for mine in ours:
        assert not any(np.shares_memory(mine, other) for other in theirs)
    assert not any(a is b for a in our_dicts for b in their_dicts)
    # Lane 0's cached step is still its own batch, at serial rank.
    assert lanes[0].modules[0]._input_shape == batch.shape
