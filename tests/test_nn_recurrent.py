"""``ElmanRNN`` against its oracle, and the zero initial state it skips.

The layer never builds its zero initial state: step 0 is
``tanh(x_0 @ W_in + b)`` and its backward adds nothing into
``W_rec.grad`` (DESIGN §5c, "Zero initial state").  The claim is that
no result bit moves, so these tests compare byte images against the
textbook recurrence kept in ``tests/kernel_oracle.py`` (``reference_rnn``),
which still multiplies the zero state by ``W_rec`` at step 0.

They are needed next to ``TestTrainingEqualsTheOracle`` in
``tests/test_nn_losses_optim.py``: that oracle replaces the optimizer
step and the loss but reuses the model's own layers, so it cannot see a
change inside a layer.

The last section holds ``train_model``'s input stage to the same
standard: striding the split once and stepping the model's tail must
leave every byte that stepping the whole model on full batches leaves
(``full_batches`` in ``tests/kernel_oracle.py``; DESIGN §5c, "Input
stage").
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import make_agnews
from repro.nn import ElmanRNN, train_model
from repro.nn.models import get_model_family
from tests.kernel_oracle import full_batches, reference_rnn
from tests.test_nn_losses_optim import SGD_SETTINGS, engine_steps, raw

RNG = np.random.default_rng(11)

#: The NLP workload's sample is 24 tokens of 12 features; ``textrnn``'s
#: hidden state has 32 units.
FEATURES, HIDDEN = 12, 32


def layer_run(steps, batch, need_input_grad):
    layer = ElmanRNN(FEATURES, HIDDEN, rng=4)
    rng = np.random.default_rng(steps * 100 + batch)
    inputs = rng.normal(size=(batch, steps, FEATURES))
    if steps:
        inputs[0, 0] = -0.0  # a signed-zero token at step 0
    output = layer.forward(inputs)
    grad_inputs = layer.backward(
        rng.normal(size=output.shape), need_input_grad=need_input_grad
    )
    images = raw([output] + [p.grad for p in layer.parameters()])
    if need_input_grad:
        images += raw([grad_inputs])
    else:
        assert grad_inputs is None
    return images


@pytest.mark.parametrize("need_input_grad", [True, False])
@pytest.mark.parametrize("batch", [1, 7, 34])
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 6, 24])
def test_forward_and_backward_equal_the_oracle(steps, batch, need_input_grad):
    """T = 0 included: a zero-length sequence returns the zero state."""
    ours = layer_run(steps, batch, need_input_grad)
    with reference_rnn():
        theirs = layer_run(steps, batch, need_input_grad)
    assert ours == theirs


def test_step_0_does_no_recurrent_arithmetic():
    """With ``W_rec`` all NaN, a one-step sequence never touches it:
    ``0 · NaN`` is NaN, so any product of the zero state would show."""
    layer = ElmanRNN(FEATURES, HIDDEN, rng=4)
    layer.w_rec.value[...] = np.nan
    output = layer.forward(RNG.normal(size=(7, 1, FEATURES)))
    assert np.isfinite(output).all()
    layer.backward(RNG.normal(size=output.shape), need_input_grad=False)
    assert np.isfinite(layer.w_in.grad).all()
    assert np.isfinite(layer.bias.grad).all()
    assert raw([layer.w_rec.grad]) == raw([np.zeros((HIDDEN, HIDDEN))])
    assert np.isnan(layer.forward(RNG.normal(size=(7, 2, FEATURES)))).all()


DATASET = make_agnews(samples=120, seed=1)
TEXTRNN = get_model_family("textrnn")


def build_textrnn(stride):
    return TEXTRNN.instantiate(
        DATASET.sample_shape, DATASET.num_classes, {"stride": stride}, seed=3
    )


@pytest.mark.parametrize("momentum,weight_decay", SGD_SETTINGS)
@pytest.mark.parametrize("stride", [24, 12, 4])  # T = 1, 2, 6
def test_sgd_steps_equal_the_oracle(stride, momentum, weight_decay):
    """Eight steps, so the bias has long left +0.0 by the last one."""
    batches = list(DATASET.batches(34, rng=2)) * 2
    assert len(batches) == 8
    loss = TEXTRNN.make_loss(DATASET.num_classes)

    def run():
        model = build_textrnn(stride)
        losses, optimizer = engine_steps(
            model, loss, batches, 0.05, momentum, weight_decay
        )
        return losses, model, optimizer

    losses, model, optimizer = run()
    with reference_rnn():
        ref_losses, ref_model, ref_optimizer = run()
    assert raw(losses) == raw(ref_losses)
    assert raw(p.value for p in model.parameters()) == raw(
        p.value for p in ref_model.parameters()
    )
    assert raw(optimizer.state_dict()["velocity"]) == raw(
        ref_optimizer.state_dict()["velocity"]
    )


@pytest.mark.parametrize("lr", [0.05, 1e20, 1e100])
@pytest.mark.parametrize("stride", [24, 4])
def test_train_model_equals_the_oracle(stride, lr):
    """Whole trainings, including learning rates that blow the weights
    up: a diverged trial must stop at the same step with the same
    bytes, non-finite ones included."""
    train, held_out = DATASET.split(0.2, rng=0)

    def run():
        model = build_textrnn(stride)
        with np.errstate(all="ignore"):
            result = train_model(
                model, TEXTRNN.make_loss(DATASET.num_classes), train,
                held_out, epochs=3, batch_size=12, lr=lr, seed=5,
            )
        return result, model

    result, model = run()
    with reference_rnn():
        reference, ref_model = run()
    assert result.diverged == reference.diverged == (lr > 1.0)
    assert result.epochs_run == reference.epochs_run
    assert raw(result.losses) == raw(reference.losses)
    assert result.accuracy == reference.accuracy
    assert raw(p.value for p in model.parameters()) == raw(
        p.value for p in ref_model.parameters()
    )


# ---------------------------------------------------------------------------
# The input stage against whole models on full batches
# ---------------------------------------------------------------------------

#: A canonical sample order, so ``nested_subset`` slices prefixes; 96
#: training samples, so batches of 7, 34 and 64 end short.
TRAIN, HELD_OUT = replace(DATASET, order_seed=17).split(0.2, rng=0)


def staged_run(stride, **budget):
    model = build_textrnn(stride)
    with np.errstate(all="ignore"):
        result = train_model(
            model, TEXTRNN.make_loss(DATASET.num_classes), TRAIN, HELD_OUT,
            seed=5, capture_state=True, **budget,
        )
    return result, model


def assert_same_bytes(ours, theirs):
    """Losses, accuracy, weights, velocity, the whole result and the
    model's pickle, by bytes (NaN payloads and signed zeros count)."""
    (result, model), (reference, ref_model) = ours, theirs
    assert raw(result.losses) == raw(reference.losses)
    assert raw([result.accuracy]) == raw([reference.accuracy])
    assert raw(p.value for p in model.parameters()) == raw(
        p.value for p in ref_model.parameters()
    )
    assert raw(result.resume_state["velocity"]) == raw(
        reference.resume_state["velocity"]
    )
    assert pickle.dumps(result) == pickle.dumps(reference)
    assert pickle.dumps(model) == pickle.dumps(ref_model)


def against_full_batches(run):
    ours = run()
    with full_batches():
        theirs = run()
    assert_same_bytes(ours, theirs)
    return ours


STRIDES = [1, 2, 5, 23, 24, 32]  # T = 24, 12, 5, 2, 1, 1


@pytest.mark.parametrize("batch_size", [1, 7, 34, 64])
@pytest.mark.parametrize("stride", STRIDES)
def test_train_model_equals_whole_model_steps(stride, batch_size):
    result, _ = against_full_batches(
        lambda: staged_run(stride, epochs=2, batch_size=batch_size)
    )
    assert not result.diverged
    assert result.samples_seen == 2 * len(TRAIN)


@pytest.mark.parametrize("stride", STRIDES)
def test_a_warm_resume_on_nested_subsets_equals_whole_model_steps(stride):
    """A parent on half the canonical order, and a child restored from
    its captured state that runs two more epochs on three quarters."""

    def run():
        parent, _ = staged_run(
            stride, epochs=1, batch_size=7, data_fraction=0.5,
            nested_subset=True,
        )
        child = staged_run(
            stride, epochs=3, start_epoch=1, batch_size=7,
            data_fraction=0.75, nested_subset=True,
            init_state=parent.resume_state,
        )
        return child

    child, _ = against_full_batches(run)
    assert child.epochs_run == 2
    assert child.samples_seen == 2 * int(0.75 * len(TRAIN))


@pytest.mark.parametrize("lr", [1e20, 1e100])
@pytest.mark.parametrize("stride", [2, 24])
def test_a_diverging_run_equals_whole_model_steps(stride, lr):
    result, _ = against_full_batches(
        lambda: staged_run(
            stride, epochs=3, batch_size=12, lr=lr, data_fraction=0.8
        )
    )
    assert result.diverged
