"""Layout is free, bits are not.

The conv trunk lays every gradient buffer out like the activation it
pairs with (``repro.nn.kernels``): channel-last inside a conv trunk,
C order on a data batch.  Which layout a tensor arrives in must change
where bytes live and nothing else.  Pinned here:

* for every conv-trunk layer, the same values arriving C-contiguous and
  channel-last-strided give the same output, parameter gradients and
  input gradient *by* ``tobytes()`` — equal to each other and to the
  kernel oracle (``tests/kernel_oracle.py``) on contiguous input — on
  buffers a previous step left dirty;
* one model driven through the batch shapes every ``train_model`` epoch
  produces (full, short last batch, evaluation batch, full) computes, at
  each step, what a fresh model computes;
* a trained model still pickles to about its weights and restores with
  empty step state, a layer restored from a blob that predates its newer
  step attributes trains, and nothing at module level under ``repro.nn``
  grows with the number of batch shapes seen.
"""

import importlib
import pickle
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.nn
from repro.nn import CrossEntropyLoss
from repro.nn.conv import (
    Conv1d,
    Conv2d,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    MaxPool1d,
    MaxPool2d,
)
from repro.nn.layers import ReLU
from repro.nn.losses import DetectionLoss
from repro.nn.models import build_conv_resnet, build_m5
from repro.nn.models.yolo import build_yolo
from repro.nn.module import STEP_STATE
from tests.kernel_oracle import reference_kernels


def channel_last(array):
    """Same values, channel axis innermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(array, 1, -1)), -1, 1)


def arrive(array, layout):
    return channel_last(array) if layout == "channel_last" else array


#: kind -> (builder(case), spatial rank).  ``case`` carries the drawn
#: channels / kernel / stride.
KINDS = {
    "Conv1d": (lambda c: Conv1d(c["channels"], 3, c["kernel"],
                                stride=c["stride"], rng=c["seed"]), 1),
    "Conv2d": (lambda c: Conv2d(c["channels"], 3, c["kernel"],
                                stride=c["stride"], rng=c["seed"]), 2),
    "MaxPool1d": (lambda c: MaxPool1d(c["kernel"]), 1),
    "MaxPool2d": (lambda c: MaxPool2d(c["kernel"]), 2),
    "ReLU": (lambda c: ReLU(), 1),
    "GlobalAvgPool1d": (lambda c: GlobalAvgPool1d(), 1),
    "GlobalAvgPool2d": (lambda c: GlobalAvgPool2d(), 2),
}

cases = st.fixed_dictionaries({
    "kind": st.sampled_from(sorted(KINDS)),
    "batch": st.integers(1, 4),
    "channels": st.integers(1, 4),
    "kernel": st.integers(2, 4),
    "stride": st.integers(1, 3),
    "extra": st.tuples(st.integers(0, 5), st.integers(0, 5)),
    "seed": st.integers(0, 2**31 - 1),
    "inputs": st.sampled_from(["contiguous", "channel_last"]),
    "grads": st.sampled_from(["contiguous", "channel_last"]),
    "need_input_grad": st.booleans(),
})


def draw_values(rng, shape, kind):
    if kind.startswith("GlobalAvgPool"):
        # numpy's add.reduce associates differently along a contiguous and
        # a strided axis, so a float mean is layout-dependent *inside
        # numpy*; dyadic values sum exactly in any order, which leaves the
        # indexing — ours — as the only thing compared.
        return rng.integers(-64, 65, size=shape) / 8.0
    values = rng.normal(size=shape)
    # Ties and exact zeros, for the pooling argmax and the ReLU mask.
    values[rng.random(shape) < 0.2] = 0.0
    return values


def run_steps(layer, steps, need_input_grad):
    """Forward + backward per ``(inputs, grad)`` step on one layer; the
    last step's output, parameter gradients and input gradient."""
    for inputs, grad in steps:
        for parameter in layer.parameters():
            parameter.grad.fill(0.0)
        output = np.array(layer.forward(inputs))
        if layer.parameters() and not need_input_grad:
            grad_input = layer.backward(grad, need_input_grad=False)
        else:
            grad_input = np.array(layer.backward(grad))
    return output, [np.array(p.grad) for p in layer.parameters()], grad_input


def same_bytes(ours, theirs):
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@given(case=cases)
@example(case={  # batch 1, one channel, stride > kernel-1, trailing cells
    "kind": "Conv1d", "batch": 1, "channels": 1, "kernel": 3, "stride": 3,
    "extra": (4, 0), "seed": 1, "inputs": "channel_last",
    "grads": "contiguous", "need_input_grad": True,
})
@example(case={
    "kind": "Conv2d", "batch": 1, "channels": 1, "kernel": 2, "stride": 2,
    "extra": (3, 1), "seed": 2, "inputs": "contiguous",
    "grads": "channel_last", "need_input_grad": False,
})
@example(case={  # 13 cells pooled by 4: one trailing cell must read 0.0
    "kind": "MaxPool1d", "batch": 1, "channels": 1, "kernel": 4,
    "stride": 1, "extra": (5, 0), "seed": 3, "inputs": "channel_last",
    "grads": "channel_last", "need_input_grad": True,
})
@example(case={
    "kind": "MaxPool2d", "batch": 2, "channels": 3, "kernel": 3,
    "stride": 1, "extra": (2, 1), "seed": 4, "inputs": "channel_last",
    "grads": "contiguous", "need_input_grad": True,
})
@settings(max_examples=150, deadline=None)
def test_layout_moves_no_bit(case):
    kind = case["kind"]
    build, rank = KINDS[kind]
    rng = np.random.default_rng(case["seed"])
    needs_grad = case["need_input_grad"] or not kind.startswith("Conv")
    spatial = tuple(
        2 * case["kernel"] + extra for extra in case["extra"][:rank]
    )
    shape = (case["batch"], case["channels"]) + spatial

    # Two steps per run: the first leaves every reused buffer dirty.
    inputs = [draw_values(rng, shape, kind) for _ in range(2)]
    with reference_kernels():
        probe = build(case)
        out_shape = probe.forward(inputs[0]).shape
    grads = [rng.normal(size=out_shape) for _ in range(2)]

    def steps(layout_in, layout_grad):
        return [
            (arrive(x, layout_in), arrive(g, layout_grad))
            for x, g in zip(inputs, grads)
        ]

    with reference_kernels():
        oracle = run_steps(build(case), steps("contiguous", "contiguous"),
                           needs_grad)
    runs = {
        "contiguous": run_steps(
            build(case), steps("contiguous", "contiguous"), needs_grad
        ),
        "arrived": run_steps(
            build(case), steps(case["inputs"], case["grads"]), needs_grad
        ),
    }
    for output, param_grads, grad_input in runs.values():
        same_bytes(output, oracle[0])
        for ours, theirs in zip(param_grads, oracle[1]):
            same_bytes(ours, theirs)
        if needs_grad:
            if kind.startswith("Conv"):
                # The oracle's input gradient runs a batched gemm where
                # the kernel runs a flattened one; numpy may route the
                # two to different inner kernels (tests/test_nn_kernels.py:
                # the per-kernel contract is 1e-10).  Across layouts of the
                # kernel the bytes must be equal.
                np.testing.assert_allclose(
                    grad_input, oracle[2], rtol=1e-12, atol=1e-10
                )
                same_bytes(grad_input, runs["contiguous"][2])
            else:
                same_bytes(grad_input, oracle[2])
        else:
            assert grad_input is None
    if kind.startswith("MaxPool") and any(
        size % case["kernel"] for size in spatial
    ):
        # Cells no window reaches: zero on the *second* use of the buffer.
        reached = tuple(
            slice(0, size - size % case["kernel"]) for size in spatial
        )
        untouched = np.array(runs["arrived"][2])
        untouched[(..., *reached)] = 0.0
        assert not untouched.any()


# ---------------------------------------------------------------------------
# Buffer reuse across the batch shapes of a training run
# ---------------------------------------------------------------------------

MODELS = {
    "m5": (lambda: build_m5((1, 128), 5, seed=3), (1, 128)),
    "conv_resnet": (
        lambda: build_conv_resnet((3, 12, 12), 5, seed=3), (3, 12, 12)
    ),
    # Dropout off: a fresh model would restart the mask stream.
    "yolo": (lambda: build_yolo((3, 8, 8), 5, dropout=0.0, seed=3), (3, 8, 8)),
}


def one_step(model, loss, features, targets):
    model.zero_grad()
    value = loss.forward(model.forward(features), targets)
    model.backward(loss.backward(), need_input_grad=False)
    return value, [p.grad.tobytes() for p in model.parameters()]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_each_step_of_an_epoch_equals_a_fresh_models(name):
    """full batch -> short last batch -> evaluation batch -> full batch:
    the sequence every ``train_model`` epoch produces.  Buffers and index
    tables carried from one shape to the next must not leak into any
    result."""
    build, sample_shape = MODELS[name]
    rng = np.random.default_rng(11)
    family_loss = DetectionLoss(5) if name == "yolo" else CrossEntropyLoss()

    def batch(size):
        features = rng.normal(size=(size,) + sample_shape)
        if name == "yolo":
            targets = np.concatenate(
                [rng.random((size, 4)), rng.integers(0, 5, (size, 1))],
                axis=1,
            )
        else:
            targets = rng.integers(0, 5, size=size)
        return features, targets

    model = build()
    for size in (7, 3, 16, 7, 2, 7):
        features, targets = batch(size)
        if size == 16:  # evaluate_accuracy: forward only, eval mode
            model.eval()
            ours = np.array(model.forward(features))
            model.train()
            fresh = build().eval()
            assert ours.tobytes() == fresh.forward(features).tobytes()
            continue
        assert one_step(model, family_loss, features, targets) == one_step(
            build(), family_loss, features, targets
        )


def walk(module):
    yield module
    for child in module.children():
        yield from walk(child)


def test_trained_model_pickles_lean_and_restores_empty():
    from repro.datasets import make_speech_commands
    from repro.nn import train_model

    train, held_out = make_speech_commands(samples=60, seed=1).split(
        0.2, rng=0
    )
    model = build_m5(train.sample_shape, train.num_classes, seed=3)
    train_model(
        model, CrossEntropyLoss(), train, held_out,
        epochs=2, batch_size=7, lr=0.05, seed=5,
    )
    blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    weights = sum(p.value.nbytes for p in model.parameters())
    assert len(blob) <= 1.05 * weights + 4096
    held = 0
    for layer in walk(pickle.loads(blob)):
        for name in STEP_STATE.keys() & vars(layer).keys():
            value, empty = getattr(layer, name), STEP_STATE[name](layer)
            held += 1
            if isinstance(empty, np.ndarray):
                assert not value.any() and value.shape == empty.shape
            else:
                assert value == empty, (type(layer).__name__, name)
    assert held > 10  # the walk did look at the conv trunk's state


def test_layer_from_a_blob_older_than_its_step_state_trains():
    """A stored model outlives the code that wrote it: a pooling layer
    pickled before it kept index tables restores without the attribute
    and must get it, empty, on restore."""
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(3, 2, 9))
    for kind, state in [
        (MaxPool1d, {"kernel_size": 2, "_cache": None, "_grad_input": None}),
        (GlobalAvgPool1d, {"_input_shape": None}),
    ]:
        old = kind.__new__(kind)
        old.__setstate__(dict(state))
        new = kind(2) if kind is MaxPool1d else kind()
        grad = rng.normal(size=new.forward(inputs).shape)
        assert old.forward(inputs).tobytes() == new.forward(inputs).tobytes()
        assert old.backward(grad).tobytes() == new.backward(grad).tobytes()
        assert old._backward_scratch is not new._backward_scratch


def module_level_sizes():
    """Length of every container (and ``lru_cache``) bound at module
    level anywhere under ``repro.nn``."""
    for info in pkgutil.walk_packages(repro.nn.__path__, "repro.nn."):
        importlib.import_module(info.name)
    sizes = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.nn") or module is None:
            continue
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[f"{module_name}.{name}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{module_name}.{name}"] = value.cache_info().currsize
    return sizes


def test_no_module_level_cache_grows_with_batch_shapes():
    model = build_m5((1, 128), 5, seed=3)
    loss = CrossEntropyLoss()
    rng = np.random.default_rng(2)
    one_step(model, loss, rng.normal(size=(4, 1, 128)),
             rng.integers(0, 5, size=4))
    before = module_level_sizes()
    for size in (1, 2, 3, 5, 6, 9, 11, 13):
        one_step(model, loss, rng.normal(size=(size, 1, 128)),
                 rng.integers(0, 5, size=size))
    assert module_level_sizes() == before
    # ... and what a layer keeps is bounded by its largest batch, not by
    # how many shapes it saw.
    pool = model.modules[2]
    assert len(pool._backward_scratch["grad_input"]) == 13
