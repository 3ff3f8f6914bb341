"""Gradient-equivalence tests for the vectorized NN kernels.

The kernels in :mod:`repro.nn.kernels` must be *bit-identical* to the
``np.add.at`` / two-pass oracle in ``tests/kernel_oracle.py`` — the
tuning results in storage were produced with seeded training and must
not move by even an ulp.  These tests pin that contract with hypothesis
over randomized shapes, strides and values, at both the kernel and the
layer level, and additionally anchor the convolution gradient to finite
differences.  Regression tests for the trainer's trial-accounting fixes
(epochs_run on divergence, final_loss on empty training sets) and the
meter thread-safety contract ride along.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.datasets import make_cifar10
from repro.datasets.base import Dataset
from repro.nn import CrossEntropyLoss, train_model
from repro.nn.conv import Conv1d, Conv2d, MaxPool1d, MaxPool2d
from repro.nn import kernels
from repro.nn.models import get_model_family
from repro.telemetry.meters import MeterRegistry
from tests.kernel_oracle import reference_kernels


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def engine_and_oracle(fn):
    """Run ``fn()`` on the kernels and on the oracle; both results."""
    fast = fn()
    with reference_kernels():
        reference = fn()
    return fast, reference


def assert_bit_identical(fast, reference):
    """The equivalence contract: not just ≤1e-10 close, but equal bits."""
    fast = np.asarray(fast)
    reference = np.asarray(reference)
    assert fast.shape == reference.shape
    assert fast.dtype == reference.dtype
    np.testing.assert_allclose(fast, reference, rtol=0, atol=1e-10)
    assert np.array_equal(fast, reference)


def assert_grad_equivalent(fast, reference):
    """Conv input gradients include a gemm; numpy may route the fast
    path's flattened gemm and the reference's batched ``@`` to different
    inner kernels depending on shape, so the per-kernel guarantee is
    ≤1e-10, not equal bits.  End-to-end seeded training on the repo's
    workloads is still bit-identical to the oracle — pinned by
    ``test_training_is_bit_identical_across_backends`` below."""
    fast = np.asarray(fast)
    reference = np.asarray(reference)
    assert fast.shape == reference.shape
    assert fast.dtype == reference.dtype
    np.testing.assert_allclose(fast, reference, rtol=1e-12, atol=1e-10)


# ---------------------------------------------------------------------------
# Kernel-level equivalence (randomized shapes, strides and values)
# ---------------------------------------------------------------------------

conv1d_cases = st.tuples(
    st.integers(1, 4),   # batch
    st.integers(1, 4),   # channels
    st.integers(1, 5),   # out_channels
    st.integers(1, 6),   # kernel
    st.integers(1, 4),   # stride
    st.integers(0, 9),   # extra length beyond the kernel
    st.integers(0, 2**31 - 1),
)


@given(case=conv1d_cases)
@settings(max_examples=60, deadline=None)
def test_property_conv1d_kernels_match_reference(case):
    batch, channels, out_channels, kernel, stride, extra, seed = case
    length = kernel + extra
    out_len = (length - kernel) // stride + 1
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(batch, channels, length))
    weight = rng.normal(size=(channels * kernel, out_channels))
    grad_out = rng.normal(size=(batch, out_len, out_channels))

    cols_fast, cols_ref = engine_and_oracle(
        lambda: kernels.im2col_1d(inputs, kernel, stride, out_len)
    )
    assert_bit_identical(cols_fast, cols_ref)

    grad_fast, grad_ref = engine_and_oracle(
        lambda: kernels.conv1d_input_grad(
            grad_out, weight, inputs.shape, kernel, stride, {}
        ).copy()
    )
    assert_grad_equivalent(grad_fast, grad_ref)


conv2d_cases = st.tuples(
    st.integers(1, 3),   # batch
    st.integers(1, 3),   # channels
    st.integers(1, 4),   # out_channels
    st.integers(1, 4),   # kernel
    st.integers(1, 3),   # stride
    st.integers(0, 5),   # extra height
    st.integers(0, 5),   # extra width
    st.integers(0, 2**31 - 1),
)


@given(case=conv2d_cases)
@settings(max_examples=60, deadline=None)
def test_property_conv2d_kernels_match_reference(case):
    batch, channels, out_channels, kernel, stride, eh, ew, seed = case
    height, width = kernel + eh, kernel + ew
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(batch, channels, height, width))
    weight = rng.normal(size=(channels * kernel * kernel, out_channels))
    grad_out = rng.normal(size=(batch, out_h * out_w, out_channels))

    cols_fast, cols_ref = engine_and_oracle(
        lambda: kernels.im2col_2d(inputs, kernel, stride, out_h, out_w)
    )
    assert_bit_identical(cols_fast, cols_ref)

    grad_fast, grad_ref = engine_and_oracle(
        lambda: kernels.conv2d_input_grad(
            grad_out, weight, inputs.shape, out_h, out_w, kernel, stride, {}
        ).copy()
    )
    assert_grad_equivalent(grad_fast, grad_ref)


pool1d_cases = st.tuples(
    st.integers(1, 4),   # batch
    st.integers(1, 4),   # channels
    st.integers(1, 6),   # out_len
    st.sampled_from([2, 3, 4, 5]),  # kernel (2 and 4 hit the fused paths)
    st.integers(0, 2**31 - 1),
    st.booleans(),       # quantize values to force ties
)


@given(case=pool1d_cases)
@settings(max_examples=60, deadline=None)
def test_property_maxpool1d_kernels_match_reference(case):
    batch, channels, out_len, kernel, seed, quantize = case
    rng = np.random.default_rng(seed)
    if quantize:
        # Few distinct values => many tied windows; tie-breaking (first
        # maximum wins) must agree between the engine and the oracle.
        windows = rng.integers(0, 3, size=(batch, channels, out_len, kernel))
        windows = windows.astype(np.float64)
    else:
        windows = rng.normal(size=(batch, channels, out_len, kernel))
    (max_f, arg_f), (max_r, arg_r) = engine_and_oracle(
        lambda: kernels.maxpool_forward(windows)
    )
    assert_bit_identical(max_f, max_r)
    assert np.array_equal(arg_f, arg_r)

    grad_out = rng.normal(size=(batch, channels, out_len))
    input_shape = (batch, channels, out_len * kernel + rng.integers(0, kernel))
    grad_fast, grad_ref = engine_and_oracle(
        lambda: kernels.maxpool1d_backward(
            grad_out, input_shape, out_len, kernel, arg_r
        )
    )
    assert_bit_identical(grad_fast, grad_ref)


pool2d_cases = st.tuples(
    st.integers(1, 3),   # batch
    st.integers(1, 3),   # channels
    st.integers(1, 4),   # out_h
    st.integers(1, 4),   # out_w
    st.sampled_from([2, 3]),  # kernel (2 hits the no-copy fused path)
    st.integers(0, 2**31 - 1),
    st.booleans(),
)


@given(case=pool2d_cases)
@settings(max_examples=60, deadline=None)
def test_property_maxpool2d_kernels_match_reference(case):
    batch, channels, out_h, out_w, kernel, seed, quantize = case
    rng = np.random.default_rng(seed)
    shape = (batch, channels, out_h * kernel, out_w * kernel)
    if quantize:
        trimmed = rng.integers(0, 3, size=shape).astype(np.float64)
    else:
        trimmed = rng.normal(size=shape)
    (max_f, arg_f), (max_r, arg_r) = engine_and_oracle(
        lambda: kernels.maxpool2d_forward(trimmed, kernel)
    )
    assert_bit_identical(max_f, max_r)
    assert np.array_equal(arg_f, arg_r)

    grad_out = rng.normal(size=(batch, channels, out_h, out_w))
    input_shape = (
        batch, channels,
        out_h * kernel + rng.integers(0, kernel),
        out_w * kernel + rng.integers(0, kernel),
    )
    grad_fast, grad_ref = engine_and_oracle(
        lambda: kernels.maxpool2d_backward(
            grad_out, input_shape, out_h, out_w, kernel, arg_r
        )
    )
    assert_bit_identical(grad_fast, grad_ref)


def test_maxpool2d_fused_path_handles_sliced_input():
    """The K=2 fast path reshapes a *trimmed* (sliced) input — the axis
    split must view, not copy, and still agree with the reference."""
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(2, 3, 5, 7))  # odd extent forces trimming
    trimmed = inputs[:, :, :4, :6]
    (max_f, arg_f), (max_r, arg_r) = engine_and_oracle(
        lambda: kernels.maxpool2d_forward(trimmed, 2)
    )
    assert_bit_identical(max_f, max_r)
    assert np.array_equal(arg_f, arg_r)


# ---------------------------------------------------------------------------
# Layer-level equivalence: full forward/backward through the conv layers
# ---------------------------------------------------------------------------

def _layer_roundtrip(make_layer, inputs, grad_seed):
    layer = make_layer()
    out = layer.forward(inputs)
    grad_out = np.random.default_rng(grad_seed).normal(size=out.shape)
    grad_in = layer.backward(grad_out).copy()
    grads = [p.grad.copy() for p in layer.parameters()]
    return out.copy(), grad_in, grads


@given(seed=st.integers(0, 2**31 - 1), stride=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_property_conv1d_layer_backends_agree(seed, stride):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(3, 2, 17))
    run = lambda: _layer_roundtrip(
        lambda: Conv1d(2, 4, 5, stride=stride, rng=seed), inputs, seed
    )
    (out_f, gin_f, pg_f), (out_r, gin_r, pg_r) = engine_and_oracle(run)
    assert_bit_identical(out_f, out_r)
    assert_bit_identical(gin_f, gin_r)
    for grad_fast, grad_ref in zip(pg_f, pg_r):
        assert_bit_identical(grad_fast, grad_ref)


@given(seed=st.integers(0, 2**31 - 1), stride=st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_property_conv2d_layer_backends_agree(seed, stride):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(2, 3, 9, 8))
    run = lambda: _layer_roundtrip(
        lambda: Conv2d(3, 4, 3, stride=stride, rng=seed), inputs, seed
    )
    (out_f, gin_f, pg_f), (out_r, gin_r, pg_r) = engine_and_oracle(run)
    assert_bit_identical(out_f, out_r)
    assert_bit_identical(gin_f, gin_r)
    for grad_fast, grad_ref in zip(pg_f, pg_r):
        assert_bit_identical(grad_fast, grad_ref)


@given(seed=st.integers(0, 2**31 - 1), kernel=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_property_pool_layers_backends_agree(seed, kernel):
    rng = np.random.default_rng(seed)
    inputs1d = rng.normal(size=(3, 2, 13))
    inputs2d = rng.normal(size=(2, 3, 9, 10))
    for make_layer, inputs in [
        (lambda: MaxPool1d(kernel), inputs1d),
        (lambda: MaxPool2d(kernel), inputs2d),
    ]:
        run = lambda: _layer_roundtrip(make_layer, inputs, seed)
        (out_f, gin_f, _), (out_r, gin_r, _) = engine_and_oracle(run)
        assert_bit_identical(out_f, out_r)
        assert_bit_identical(gin_f, gin_r)


def test_conv1d_gradient_matches_finite_differences():
    """Anchor the fast input gradient to first principles, not just to
    the reference implementation."""
    rng = np.random.default_rng(3)
    layer = Conv1d(2, 3, 4, stride=2, rng=1)
    inputs = rng.normal(size=(2, 2, 11))
    out = layer.forward(inputs)
    grad_out = rng.normal(size=out.shape)
    grad_in = layer.backward(grad_out).copy()

    eps = 1e-6
    for index in [(0, 0, 0), (1, 1, 5), (0, 1, 10), (1, 0, 7)]:
        bumped = inputs.copy()
        bumped[index] += eps
        plus = (layer.forward(bumped) * grad_out).sum()
        bumped[index] -= 2 * eps
        minus = (layer.forward(bumped) * grad_out).sum()
        numeric = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad_in[index], numeric, atol=1e-5)


def test_training_is_bit_identical_across_backends():
    """End to end: one seeded M5 training run must produce the same loss
    trajectory and accuracy on the kernels and on the oracle."""
    from repro.datasets import make_speech_commands
    from repro.nn.models import build_m5

    dataset = make_speech_commands(samples=96, length=128, seed=2)
    train, test = dataset.split(0.25, rng=0)

    def run():
        model = build_m5(train.sample_shape, train.num_classes, seed=3)
        return train_model(
            model, CrossEntropyLoss(), train, test,
            epochs=2, batch_size=16, lr=0.01, seed=5,
        )

    fast, reference = engine_and_oracle(run)
    assert fast.losses == reference.losses
    assert fast.accuracy == reference.accuracy


# ---------------------------------------------------------------------------
# Trainer trial-accounting regressions
# ---------------------------------------------------------------------------

class TestEpochsRunAccounting:
    def _train(self, epochs):
        dataset = make_cifar10(samples=128, seed=1)
        train, test = dataset.split(0.25, rng=0)
        family = get_model_family("resnet")
        model = family.instantiate(
            dataset.sample_shape, dataset.num_classes, seed=3
        )
        return train_model(
            model, family.make_loss(dataset.num_classes), train, test,
            epochs=epochs, batch_size=32, lr=0.05, seed=5,
        )

    def test_diverged_run_reports_completed_epochs_only(self):
        # trainer.nan corrupts the first batch, so epoch 0 never finishes:
        # the result must not claim the requested 3 epochs were run.
        faults.configure("seed=1;trainer.nan=1.0", propagate=False)
        result = self._train(epochs=3)
        assert result.diverged
        assert result.epochs_run == 0
        assert result.losses == []

    def test_healthy_run_reports_requested_epochs(self):
        result = self._train(epochs=2)
        assert not result.diverged
        assert result.epochs_run == 2
        assert len(result.losses) == 2

    def test_empty_training_set_yields_none_final_loss(self):
        base = make_cifar10(samples=64, seed=1)
        empty_train = Dataset(
            name="empty",
            features=np.zeros((0,) + base.sample_shape),
            targets=np.zeros((0,), dtype=np.int64),
            num_classes=base.num_classes,
        )
        family = get_model_family("resnet")
        model = family.instantiate(base.sample_shape, base.num_classes, seed=3)
        result = train_model(
            model, family.make_loss(base.num_classes), empty_train, base,
            epochs=2, batch_size=16, lr=0.05, seed=5,
        )
        # Zero batches ran: epochs still "complete" (vacuously) but there
        # is no loss to report — final_loss must be None, not 0.0.
        assert result.samples_seen == 0
        assert result.losses == []
        assert result.final_loss is None
        assert not result.diverged


# ---------------------------------------------------------------------------
# Meter thread-safety
# ---------------------------------------------------------------------------

class TestMeterThreadSafety:
    THREADS = 8
    ITERATIONS = 2000

    def _hammer(self, work):
        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_concurrent_counter_increments_are_not_lost(self):
        registry = MeterRegistry()

        def work():
            for _ in range(self.ITERATIONS):
                registry.count("jobs")

        self._hammer(work)
        assert registry.snapshot()["jobs"] == self.THREADS * self.ITERATIONS

    def test_concurrent_meter_records_are_not_lost(self):
        registry = MeterRegistry()

        def work():
            for value in range(self.ITERATIONS):
                registry.record("latency", float(value))

        self._hammer(work)
        summary = registry.snapshot()["latency"]
        assert summary["count"] == self.THREADS * self.ITERATIONS
        assert (summary["min"], summary["max"]) == (0.0, self.ITERATIONS - 1)

    def test_registry_returns_one_instrument_per_name_under_races(self):
        """Threads racing to create a name share one entry: every first
        use lands in it."""
        registry = MeterRegistry()
        start = threading.Barrier(self.THREADS)

        def work():
            start.wait()
            registry.count("shared")
            registry.record("shared_s", 1.0)

        self._hammer(work)
        snapshot = registry.snapshot()
        assert snapshot["shared"] == self.THREADS
        assert snapshot["shared_s"]["count"] == self.THREADS

    def test_snapshot_while_recording_does_not_crash(self):
        registry = MeterRegistry()
        stop = threading.Event()

        def record():
            while not stop.is_set():
                registry.record("wave", 1.0)
                registry.count("ticks")

        recorder = threading.Thread(target=record)
        recorder.start()
        try:
            for _ in range(200):
                snapshot = registry.snapshot()
                assert isinstance(snapshot, dict)
        finally:
            stop.set()
            recorder.join()
