"""Deterministic cost pin for the serial training step (ROADMAP item 4a).

A wall-clock gate is noisy on any shared machine; the *number of calls*
one training step makes is not.  This counts, for one serial ``m5`` step
at batch 7 — the shape a spec-C tuning session actually runs — every
call into a ``repro.*`` function and every call the engine makes into
numpy, and pins the total at *equal or lower*: a change that puts a
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
from repro.nn import SGD, CrossEntropyLoss
from repro.nn.models import build_m5

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
NUMPY_ROOT = os.path.dirname(os.path.abspath(np.__file__)) + os.sep
ROOTS = (REPRO_ROOT, NUMPY_ROOT)

#: Calls per step (Python 3.11, numpy 2.4): 74 into ``repro``, 61 into
#: numpy, since the layers stopped folding a lane axis into the batch axis
#: around their kernels (``_fold`` per conv and pooling call, and the
#: reshape back after each pooling backward: 80 + 69 = 149 before).  The
#: conv-trunk rewrite before that came down from 206 (69 + 137):
#: ``sliding_window_view`` per conv, ``np.ogrid`` per pooling backward,
#: ``broadcast_to`` and ``_mean`` in the average pool.  Lower it when a
#: step gets cheaper; never raise it to make a change pass.
STEP_CALLS_PIN = 135


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


def make_step(batch=7):
    rng = np.random.default_rng(0)
    model = build_m5((1, 128), 10, seed=3)
    loss = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=0.01)
    features = rng.normal(size=(batch, 1, 128))
    targets = rng.integers(0, 10, size=batch)

    def step():
        optimizer.zero_grad()
        loss.forward(model.forward(features), targets)
        model.backward(loss.backward(), need_input_grad=False)
        optimizer.step()

    return step


def test_a_serial_m5_step_makes_a_pinned_number_of_calls():
    step = make_step()
    for _ in range(3):  # warm-up: buffers and index tables get built
        step()
    first, second = count_calls(step), count_calls(step)
    assert first == second, "a steady-state step must repeat exactly"
    total = first["repro"] + first["numpy"]
    assert total <= STEP_CALLS_PIN, (
        f"{total} calls per step ({first}) against a pin of "
        f"{STEP_CALLS_PIN}: something per-call was added to the step"
    )
