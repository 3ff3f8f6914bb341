"""Deterministic cost pins for the serial training step (ROADMAP, "Closed
— The serial training step").

A wall-clock gate is noisy on any shared machine; the *number of calls*
one training step makes is not.  This counts, for one serial ``m5`` step
at batch 7 — the shape a spec-C tuning session actually runs — and one
``textrnn`` step at T = 1 and batch 34 — spec R's modal shape — every
call into a ``repro.*`` function and every call the engine makes into
numpy, and pins each total at *equal or lower*: a change that puts a
per-call helper back on the step (``sliding_window_view``, ``np.ogrid``,
``broadcast_to``, a Python ``_mean`` wrapper, ...) fails here in under a
second, on any machine.

What is counted (``sys.setprofile``), chosen so the number does not
depend on the Python or numpy version:

* every Python-level call whose callee is defined under ``repro/`` or
  under ``numpy/`` — so a numpy helper written in Python
  (``sliding_window_view``, ``as_strided``, ``broadcast_to``, ``_mean``)
  costs what it calls inside, not one;
* every C-level numpy callable (``ndarray`` and ``ufunc`` methods,
  ``np.empty`` and friends) called from either.

Not counted: operators and direct ufunc calls (``a * b``,
``np.multiply(a, b, out=c)`` — the interpreter raises no profile event
for them), the ``__array_function__`` dispatch layer (Python wrapper
frames on older numpy, C objects that raise no event on newer: neither
the wrapper nor the C implementation it calls is counted), builtins and
the test itself.
"""

import os
import sys

import numpy as np

import repro
from repro.datasets import make_agnews
from repro.datasets.base import Dataset
from repro.nn import SGD, CrossEntropyLoss, train_model
from repro.nn.models import build_m5, build_textrnn

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
NUMPY_ROOT = os.path.dirname(os.path.abspath(np.__file__)) + os.sep
ROOTS = (REPRO_ROOT, NUMPY_ROOT)

#: Calls per step (Python 3.11, numpy 2.4): 63 into ``repro``, 61 into
#: numpy, since ``Sequential`` finds its first parameter-owning module
#: once per structure instead of once per backward (the generator step
#: and ``parameters()`` calls that did it: 67 + 61 = 128 before).
#: Before that, each public kernel became its own body instead of a
#: switch forwarding to a ``_*_fast`` twin (7 hops a step: 2 ``im2col_1d``,
#: 2 ``maxpool_forward``, 2 ``maxpool1d_backward``, 1
#: ``conv1d_input_grad``; 74 + 61 = 135 before).  Before that, the layers
#: stopped folding a lane axis into the batch axis around their kernels
#: (``_fold`` per conv and pooling call, and the reshape back after each
#: pooling backward: 80 + 69 = 149 before).  The conv-trunk rewrite
#: before that came down from 206 (69 + 137): ``sliding_window_view`` per
#: conv, ``np.ogrid`` per pooling backward, ``broadcast_to`` and ``_mean``
#: in the average pool.  Lower it when a step gets cheaper; never raise
#: it to make a change pass.
STEP_CALLS_PIN = 124

#: Calls per ``textrnn`` step at stride 24 (T = 1) and batch 34: 29,
#: since ``Sequential`` finds its first parameter-owning module once per
#: structure (33 when every backward searched for it again).
#: The step is the one ``train_model`` runs, the model's tail after its
#: input stage: ``SequenceStride``'s forward and shape check run once per
#: dataset, and the backward chain no longer asks it for parameters (36
#: with all three on the step).  Before that, 37 when ``ElmanRNN``
#: built its zero initial state (the ``np.zeros``).  The skipped
#: ``h @ W_rec`` product and its add are operators, which this count
#: cannot see: the test that carries the skip is
#: ``test_step_0_does_no_recurrent_arithmetic`` in
#: ``tests/test_nn_recurrent.py``.  Lower it when a step gets cheaper;
#: never raise it to make a change pass.
TEXTRNN_STEP_CALLS_PIN = 29

#: Feature bytes one ``textrnn`` training step gathers at stride 24 and
#: batch 34: the one kept step of 12 float64 features per sample,
#: 34 x 1 x 12 x 8.  A gather of the whole (24, 12) sequences reads
#: 78,336.  Lower it when a step gathers less; never raise it.
TEXTRNN_STEP_FEATURE_BYTES_PIN = 3_264


def _is_numpy_callable(function) -> bool:
    owner = getattr(function, "__self__", None)
    module = getattr(function, "__module__", None) or type(owner).__module__
    return module.startswith("numpy")


def count_calls(step) -> dict:
    counts = {"repro": 0, "numpy": 0}

    def profile(frame, event, arg):
        filename = frame.f_code.co_filename
        if event == "call":
            if filename.startswith(REPRO_ROOT):
                counts["repro"] += 1
            elif filename.startswith(NUMPY_ROOT):
                counts["numpy"] += 1
        elif event == "c_call":
            if filename.startswith(ROOTS) and _is_numpy_callable(arg):
                counts["numpy"] += 1

    sys.setprofile(profile)
    try:
        step()
    finally:
        sys.setprofile(None)
    return counts


def make_step(model, sample_shape, num_classes, batch):
    rng = np.random.default_rng(0)
    loss = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=0.01)
    features = rng.normal(size=(batch, *sample_shape))
    targets = rng.integers(0, num_classes, size=batch)

    def step():
        optimizer.zero_grad()
        loss.forward(model.forward(features), targets)
        model.backward(loss.backward(), need_input_grad=False)
        optimizer.step()

    return step


def assert_step_calls_at_most(step, pin):
    for _ in range(3):  # warm-up: buffers and index tables get built
        step()
    first, second = count_calls(step), count_calls(step)
    assert first == second, "a steady-state step must repeat exactly"
    total = first["repro"] + first["numpy"]
    assert total <= pin, (
        f"{total} calls per step ({first}) against a pin of "
        f"{pin}: something per-call was added to the step"
    )


def test_a_serial_m5_step_makes_a_pinned_number_of_calls():
    step = make_step(build_m5((1, 128), 10, seed=3), (1, 128), 10, batch=7)
    assert_step_calls_at_most(step, STEP_CALLS_PIN)


def test_a_serial_textrnn_step_makes_a_pinned_number_of_calls():
    """The step ``train_model`` runs: the tail after the input stage, on
    a batch gathered from the strided dataset."""
    view, tail = build_textrnn((24, 12), 4, stride=24, seed=3).input_stage()
    kept = view(np.empty((1, 24, 12))).shape[1:]
    step = make_step(tail, kept, 4, batch=34)
    assert_step_calls_at_most(step, TEXTRNN_STEP_CALLS_PIN)


def test_a_textrnn_step_gathers_only_the_kept_timesteps(monkeypatch):
    gathered = []
    batches = Dataset.batches

    def spy(self, batch_size, *args, **kwargs):
        for features, targets in batches(self, batch_size, *args, **kwargs):
            if batch_size == 34:  # training, not the evaluation pass
                gathered.append(features.nbytes)
            yield features, targets

    monkeypatch.setattr(Dataset, "batches", spy)
    dataset = make_agnews(samples=68, seed=1)
    train_model(
        build_textrnn(dataset.sample_shape, 4, stride=24, seed=3),
        CrossEntropyLoss(), dataset, dataset, epochs=1, batch_size=34,
        seed=5,
    )
    assert len(gathered) == 2
    assert max(gathered) <= TEXTRNN_STEP_FEATURE_BYTES_PIN, gathered
