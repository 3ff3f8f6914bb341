"""Pickling contract of the NN engine: a model pickles its state, not its
last batch.

A trial's trained model travels as ``pickle.dumps(model)`` — into the
artifact store, the job result, the fleet ``complete`` frame and every
session checkpoint — so what a :class:`~repro.nn.module.Module` pickles
is a wire format.  The contract (``repro.nn.module``): persistent state
only; per-step caches and scratch buffers are restored empty and rebuilt
by the next ``forward``.  Pinned here for every concrete layer and the
four model families: a round trip changes no result, the blob is about
the size of the weights, a restored model cannot run ``backward`` on
state it never computed, and blobs written before the rule still load.
"""

import copyreg
import importlib
import io
import pickle
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn
from repro.errors import ShapeError
from repro.nn import MSELoss, SGD
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
from repro.nn.models import get_model_family, model_names
from repro.nn.module import Module, ParamTensor
from repro.nn.recurrent import ElmanRNN, SequenceStride


def family_case(name, sample_shape, hyperparameters=None):
    family = get_model_family(name)
    return (
        lambda seed: family.instantiate(
            sample_shape, 5, hyperparameters, seed=seed
        ),
        sample_shape,
    )


#: name -> (builder(seed), per-sample input shape): every concrete layer
#: under ``repro.nn`` plus the four model families.
CASES = {
    "Linear": (lambda seed: Linear(6, 4, rng=seed), (6,)),
    "ReLU": (lambda seed: ReLU(), (5,)),
    "Tanh": (lambda seed: Tanh(), (5,)),
    "Dropout": (lambda seed: Dropout(0.3, rng=seed), (7,)),
    "Flatten": (lambda seed: Flatten(), (2, 3)),
    "BatchNorm1d": (lambda seed: BatchNorm1d(5), (5,)),
    "Residual": (lambda seed: Residual(Linear(4, 4, rng=seed)), (4,)),
    "Sequential": (
        lambda seed: Sequential(
            Linear(4, 6, rng=seed), Tanh(), Dropout(0.2, rng=seed)
        ),
        (4,),
    ),
    "Conv1d": (lambda seed: Conv1d(2, 3, 3, stride=2, rng=seed), (2, 12)),
    "MaxPool1d": (lambda seed: MaxPool1d(2), (2, 9)),
    "GlobalAvgPool1d": (lambda seed: GlobalAvgPool1d(), (3, 5)),
    "Conv2d": (lambda seed: Conv2d(2, 3, 3, rng=seed), (2, 6, 6)),
    "MaxPool2d": (lambda seed: MaxPool2d(2), (2, 6, 6)),
    "GlobalAvgPool2d": (lambda seed: GlobalAvgPool2d(), (3, 4, 4)),
    "ElmanRNN": (lambda seed: ElmanRNN(3, 5, rng=seed), (6, 3)),
    "SequenceStride": (lambda seed: SequenceStride(2), (7, 3)),
    "resnet": family_case("resnet", (3, 8, 8)),
    "m5": family_case("m5", (1, 128)),
    "textrnn": family_case("textrnn", (16, 8), {"stride": 2}),
    "yolo": family_case("yolo", (3, 8, 8), {"dropout": 0.3}),
}


def concrete_module_classes():
    for info in pkgutil.walk_packages(repro.nn.__path__, "repro.nn."):
        importlib.import_module(info.name)
    found, pending = set(), [Module]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro.nn"):
                found.add(subclass.__name__)
    return found


def test_cases_cover_every_module_and_family():
    """A layer added to the engine has to be added to CASES, which is
    what subjects its caches to the size bound below."""
    assert concrete_module_classes() | set(model_names()) == set(CASES)


def output_shape(model, sample_shape):
    return tuple(model.flops(sample_shape)[1])


def train_steps(model, sample_shape, batches):
    """A few real SGD steps; returns the per-step losses and outputs
    (the outputs carry the dropout draws)."""
    loss = MSELoss()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    model.train()
    losses, outputs = [], []
    for features in batches:
        targets = np.zeros(
            (len(features),) + output_shape(model, sample_shape)
        )
        optimizer.zero_grad()
        output = model.forward(features)
        losses.append(loss.forward(output, targets))
        outputs.append(np.array(output))
        model.backward(loss.backward())
        optimizer.step()
    return losses, outputs


def eval_forward(model, features):
    model.eval()
    output = np.array(model.forward(features))
    model.train()
    return output


def parameter_bytes(model):
    return sum(p.value.nbytes for p in model.parameters())


def draw_batches(rng, sample_shape, batch, steps):
    return [rng.normal(size=(batch,) + sample_shape) for _ in range(steps)]


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    batch=st.integers(2, 9),
    steps=st.integers(1, 3),
)
def test_round_trip_is_lean_and_changes_nothing(name, seed, batch, steps):
    build, sample_shape = CASES[name]
    rng = np.random.default_rng(seed)
    model = build(seed)
    train_steps(
        model, sample_shape, draw_batches(rng, sample_shape, batch, steps)
    )
    eval_batch = rng.normal(size=(4 * batch,) + sample_shape)
    expected = eval_forward(model, eval_batch)

    blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    restored = pickle.loads(blob)

    # (c) about the size of the weights, whatever batch ran last.
    assert len(blob) <= 1.05 * parameter_bytes(model) + 4096, len(blob)

    # (d) no stale step state: backward needs a forward first.  Dropout
    # legitimately has none in eval mode and passes the gradient through.
    grad = np.ones((4 * batch,) + output_shape(model, sample_shape))
    if isinstance(restored, Dropout):
        assert restored.backward(grad) is grad
    else:
        with pytest.raises(ShapeError):
            restored.backward(grad)

    # (a) eval forward bit-identical.
    assert np.array_equal(eval_forward(restored, eval_batch), expected)

    # (b) original and copy keep training in lock-step: same losses,
    # same dropout draws, same weights.
    more = draw_batches(rng, sample_shape, batch, steps + 1)
    losses, outputs = train_steps(model, sample_shape, more)
    copy_losses, copy_outputs = train_steps(restored, sample_shape, more)
    assert losses == copy_losses
    for ours, theirs in zip(outputs, copy_outputs):
        assert np.array_equal(ours, theirs)
    for ours, theirs in zip(model.parameters(), restored.parameters()):
        assert ours.name == theirs.name
        assert np.array_equal(ours.value, theirs.value)


# ---------------------------------------------------------------------------
# Blobs written before the lean rule still load
# ---------------------------------------------------------------------------


class LegacyPickler(pickle.Pickler):
    """Writes modules the way default pickling did before the lean rule:
    the full ``__dict__`` (caches, scratch and all) for a module, the
    slot state ``(None, {"name", "value", "grad"})`` for a parameter."""

    def reducer_override(self, obj):
        if isinstance(obj, ParamTensor):
            slots = {"name": obj.name, "value": obj.value, "grad": obj.grad}
            return copyreg.__newobj__, (ParamTensor,), (None, slots)
        if isinstance(obj, Module):
            return copyreg.__newobj__, (type(obj),), dict(obj.__dict__)
        return NotImplemented


def legacy_dumps(model):
    buffer = io.BytesIO()
    LegacyPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(model)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "name", ["Linear", "Conv1d", "ElmanRNN", "Dropout", "yolo"]
)
def test_legacy_blob_loads_like_a_fresh_one(name):
    build, sample_shape = CASES[name]
    rng = np.random.default_rng(3)
    model = build(3)
    # Dumped straight after a training step, so every cache is populated
    # (an eval forward would clear Dropout's mask).
    train_steps(model, sample_shape, draw_batches(rng, sample_shape, 8, 2))
    eval_batch = rng.normal(size=(16,) + sample_shape)

    fat = legacy_dumps(model)
    lean = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(fat) > len(lean)  # the legacy blob does carry the caches
    legacy, fresh = pickle.loads(fat), pickle.loads(lean)

    assert np.array_equal(
        eval_forward(legacy, eval_batch), eval_forward(fresh, eval_batch)
    )
    for parameter in legacy.parameters():
        assert not parameter.grad.any()
    # Same persistent state (weights, dropout RNG), empty step state:
    # re-pickling the legacy model gives the lean bytes.
    assert pickle.dumps(legacy, protocol=pickle.HIGHEST_PROTOCOL) == lean
    more = draw_batches(rng, sample_shape, 8, 2)
    assert train_steps(legacy, sample_shape, more)[0] == (
        train_steps(fresh, sample_shape, more)[0]
    )
    for ours, theirs in zip(legacy.parameters(), fresh.parameters()):
        assert np.array_equal(ours.value, theirs.value)


# ---------------------------------------------------------------------------
# A trained model's parameters are views of its optimizer's arena
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["resnet", "m5"])
def test_model_trained_in_an_arena_pickles_like_one_that_was_not(name):
    """``train_model`` leaves every parameter a view of one arena buffer;
    the pickle must carry each tensor's own bytes, not the arena — the
    same bytes the trial leaves when it ran as a lane of a stacked group
    (whose models are written back into their own arrays), which is what
    CI's serial-vs-stacked checksum comparison asserts through the CLI."""
    from repro.datasets import make_cifar10, make_speech_commands
    from repro.nn import train_model
    from repro.nn.batched import train_model_batch

    family = get_model_family(name)
    make = {"resnet": make_cifar10, "m5": make_speech_commands}[name]
    train_set, held_out = make(samples=60, seed=1).split(0.2, rng=0)
    loss = family.make_loss(train_set.num_classes)
    settings = dict(epochs=2, batch_size=16, lr=0.05)

    def build():
        return [
            family.instantiate(
                train_set.sample_shape, train_set.num_classes, seed=seed
            )
            for seed in (3, 4)
        ]

    serial, stacked = build(), build()
    for model, seed in zip(serial, (11, 12)):
        train_model(model, loss, train_set, held_out, seed=seed, **settings)
    train_model_batch(
        stacked, loss, train_set, held_out, seeds=(11, 12), **settings
    )
    for ours, theirs in zip(serial, stacked):
        assert not any(p.value.flags.owndata for p in ours.parameters())
        assert all(p.value.flags.owndata for p in theirs.parameters())
        blob = pickle.dumps(ours, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= 1.05 * parameter_bytes(ours) + 4096, len(blob)
        assert blob == pickle.dumps(theirs, protocol=pickle.HIGHEST_PROTOCOL)

        restored = pickle.loads(blob).parameters()
        for index, parameter in enumerate(restored):
            buffer = parameter.value
            while isinstance(buffer.base, np.ndarray):
                buffer = buffer.base
            assert buffer.size == parameter.value.size  # its own memory
            assert not any(
                np.shares_memory(parameter.value, other.value)
                for other in restored[index + 1:]
            )
            assert np.array_equal(
                parameter.value, ours.parameters()[index].value
            )
