"""Performance-regression harness for the numpy NN engine.

Times the hot kernels (im2col/col2im convolution gradients, pooling)
and full training trials on both kernel backends — ``fast`` (strided
slice-accumulate, the default) and ``reference`` (the original
``np.add.at`` implementations, kept as oracle and baseline) — and writes
the medians to ``BENCH_nn.json``.

Two kinds of numbers come out:

* absolute medians (milliseconds / trials per second), compared by
  ``check_regression.py`` against the committed ``baseline.json`` with a
  tolerance band;
* fast-over-reference speedup ratios, which are largely machine
  independent and gate the "vectorized kernels actually pay" claim.

Micro shapes and end-to-end workloads run at the paper's native scales
(32x32 CIFAR images, ~8k-sample audio), where the kernels dominate and
are bandwidth-bound.  A tuning session never enters that regime — its
steps run on batches of 4-17 small samples, where per-call overhead and
stride mismatches are the cost — so the ``session_step.*`` rows time one
training step of each conv model at the batch shape its session most
often trains on, inputs reaching every layer through the real layer
chain.  They are report-only (no floor: ROADMAP item 4); the gated
counterpart is the call-count pin in ``tests/test_nn_step_cost.py``.
``--scale smoke`` keeps the shapes but cuts sample counts and repeats
for CI.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py \
        [--repeats N] [--scale full|smoke] [--out BENCH_nn.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.datasets import (
    make_agnews,
    make_cifar10,
    make_coco,
    make_speech_commands,
)
from repro.nn import CrossEntropyLoss, train_model, use_backend
from repro.nn.conv import Conv1d, Conv2d, MaxPool1d, MaxPool2d
from repro.nn.models import build_conv_resnet, build_m5, get_model_family

BACKENDS = ("fast", "reference")


def _best_ms(fn: Callable[[], None], repeats: int) -> float:
    """Best-of-N: the least-interference estimate, used for the long
    end-to-end trials where a single background hiccup skews a median
    taken over few repeats."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return min(times)


def _interleaved_medians(
    timed: Dict[str, Callable[[], None]], repeats: int, unit: str,
    scale: float,
) -> Dict[str, float]:
    """``{fast_<unit>, reference_<unit>, speedup}`` of one callable per
    backend (``scale`` converts milliseconds per call into ``unit``).

    Backend timings are interleaved so background-load drift cannot bias
    one side: within a round the two backends run back-to-back under
    near-identical load, so the per-round ratio — whose median is the
    speedup — is robust even when absolute times wander.
    """
    samples = {backend: [] for backend in BACKENDS}
    for _ in range(repeats):
        for backend in BACKENDS:
            with use_backend(backend):
                samples[backend].append(_best_ms(timed[backend], 1) * scale)
    entry = {
        f"{backend}_{unit}": statistics.median(samples[backend])
        for backend in BACKENDS
    }
    entry["speedup"] = statistics.median(
        reference / fast
        for fast, reference in zip(samples["fast"], samples["reference"])
    )
    return entry


# ---------------------------------------------------------------------------
# Per-layer microbenchmarks
# ---------------------------------------------------------------------------

def _micro_cases(scale: str):
    batch = 64 if scale == "full" else 16
    rng = np.random.default_rng(0)

    def conv1d():
        layer = Conv1d(32, 32, 8, stride=4, rng=1)
        x = rng.normal(size=(batch, 32, 2048))
        return layer, x

    def conv2d():
        layer = Conv2d(16, 16, 3, rng=1)
        x = rng.normal(size=(batch, 16, 32, 32))
        return layer, x

    def maxpool1d():
        layer = MaxPool1d(4)
        x = rng.normal(size=(batch, 32, 4096))
        return layer, x

    def maxpool2d():
        layer = MaxPool2d(2)
        x = rng.normal(size=(batch, 16, 32, 32))
        return layer, x

    return {
        "conv1d": conv1d,
        "conv2d": conv2d,
        "maxpool1d": maxpool1d,
        "maxpool2d": maxpool2d,
    }


def run_micro(scale: str, repeats: int) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for name, make_case in _micro_cases(scale).items():
        for direction in ("forward", "backward"):
            timed = {}
            for backend in BACKENDS:
                with use_backend(backend):
                    layer, x = make_case()
                    out = layer.forward(x)
                    grad_out = np.ones_like(out)
                    if direction == "forward":
                        run = lambda layer=layer, x=x: layer.forward(x)
                    else:
                        run = lambda layer=layer, g=grad_out: layer.backward(g)
                    run()  # warm the layer's scratch buffers
                    timed[backend] = run
            entry = _interleaved_medians(timed, repeats, "ms", 1.0)
            results[f"{name}.{direction}"] = entry
            print(
                f"micro {name}.{direction:8s}  "
                f"fast {entry['fast_ms']:8.2f}ms  "
                f"reference {entry['reference_ms']:8.2f}ms  "
                f"speedup {entry['speedup']:.2f}x"
            )
    return results


# ---------------------------------------------------------------------------
# Session-shaped training steps (report-only)
# ---------------------------------------------------------------------------

def _session_step_cases():
    """name -> (model builder, loss, targets builder, batch shape): each
    conv model at the sample shape of its workload's default dataset and
    the batch size its ``EdgeTune(device="armv7", seed=7)`` session trains
    on most often (SR x80: 7, IC x240: 4, OD x120: 17)."""
    yolo = get_model_family("yolo")
    labels = lambda rng, batch: rng.integers(0, 10, size=batch)
    boxes = lambda rng, batch: np.concatenate(
        [rng.random((batch, 4)), rng.integers(0, 10, (batch, 1))], axis=1
    )
    return {
        "m5": (
            lambda: build_m5((1, 128), 10, seed=3),
            CrossEntropyLoss(), labels, (7, 1, 128),
        ),
        "conv_resnet": (
            lambda: build_conv_resnet((3, 8, 8), 10, seed=3),
            CrossEntropyLoss(), labels, (4, 3, 8, 8),
        ),
        "yolo": (
            lambda: yolo.instantiate((3, 8, 8), 10, seed=3),
            yolo.make_loss(10), boxes, (17, 3, 8, 8),
        ),
    }


def run_session_step(repeats: int, steps: int = 200) -> Dict[str, dict]:
    """One forward + loss + backward step per model, microseconds per
    step (median over ``repeats`` interleaved rounds of ``steps`` steps)."""
    results: Dict[str, dict] = {}
    for name, (build, loss, targets_of, shape) in (
        _session_step_cases().items()
    ):
        rng = np.random.default_rng(0)
        features = rng.normal(size=shape)
        targets = targets_of(rng, shape[0])
        timed = {}
        for backend in BACKENDS:
            model = build()

            def run(model=model):
                for _ in range(steps):
                    model.zero_grad()
                    loss.forward(model.forward(features), targets)
                    model.backward(loss.backward(), need_input_grad=False)

            with use_backend(backend):
                run()  # warm the buffers and index tables
            timed[backend] = run
        entry = {
            "batch_shape": list(shape),
            **_interleaved_medians(timed, repeats, "us", 1000.0 / steps),
        }
        results[name] = entry
        print(
            f"session_step {name:12s} @ {'x'.join(map(str, shape)):9s}  "
            f"fast {entry['fast_us']:8.1f}us  "
            f"reference {entry['reference_us']:8.1f}us  "
            f"ratio {entry['speedup']:.2f}x  (report-only)"
        )
    return results


# ---------------------------------------------------------------------------
# End-to-end training trials (trials/sec per workload)
# ---------------------------------------------------------------------------

def _e2e_cases(scale: str):
    full = scale == "full"

    def ic():
        dataset = make_cifar10(
            samples=800 if full else 120, image_size=32, seed=11
        )
        train, test = dataset.split(0.2, rng=0)
        # The default IC model is the dense ResNet (kept untouched for
        # reproducibility); the conv variant is what exercises the 2-D
        # kernels this harness watches.
        model = lambda: build_conv_resnet(
            train.sample_shape, train.num_classes, seed=3
        )
        loss = get_model_family("resnet").make_loss(dataset.num_classes)
        return model, loss, train, test, 64

    def sr():
        dataset = make_speech_commands(
            samples=600 if full else 80, length=8192, seed=11
        )
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("m5")
        model = lambda: family.instantiate(
            train.sample_shape, train.num_classes, seed=3
        )
        return model, family.make_loss(dataset.num_classes), train, test, 64

    def nlp():
        dataset = make_agnews(samples=640 if full else 160, seed=11)
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("textrnn")
        model = lambda: family.instantiate(
            train.sample_shape, train.num_classes, seed=3
        )
        return model, family.make_loss(dataset.num_classes), train, test, 64

    def od():
        dataset = make_coco(
            samples=480 if full else 120, image_size=16, seed=11
        )
        train, test = dataset.split(0.2, rng=0)
        family = get_model_family("yolo")
        model = lambda: family.instantiate(
            train.sample_shape, train.num_classes, seed=3
        )
        return model, family.make_loss(dataset.num_classes), train, test, 64

    return {
        "IC": (ic, "conv_resnet @ 3x32x32"),
        "SR": (sr, "m5 @ 1x8192"),
        "NLP": (nlp, "textrnn @ 24x12"),
        "OD": (od, "yolo @ 3x16x16"),
    }


def run_e2e(scale: str, repeats: int) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for workload, (make_case, description) in _e2e_cases(scale).items():
        make_model, loss, train, test, batch = make_case()
        entry: Dict[str, object] = {"model": description}

        def trial():
            train_model(
                make_model(), loss, train, test,
                epochs=1, batch_size=batch, lr=0.01, seed=5,
            )

        # Interleave the backends so slow drift in background load (CI
        # machines, shared runners) hits both measurements equally
        # instead of biasing whichever block ran during the busy spell;
        # the speedup is the median of per-round ratios for the same
        # reason (see run_micro).
        rounds = {backend: [] for backend in BACKENDS}
        for _ in range(repeats):
            for backend in BACKENDS:
                with use_backend(backend):
                    rounds[backend].append(_best_ms(trial, 1))
        for backend in BACKENDS:
            entry[f"{backend}_trials_per_sec"] = 1000.0 / min(rounds[backend])
        entry["speedup"] = statistics.median(
            reference / fast
            for fast, reference in zip(rounds["fast"], rounds["reference"])
        )
        results[workload] = entry
        print(
            f"e2e {workload:4s} ({description})  "
            f"fast {entry['fast_trials_per_sec']:.3f} trials/s  "
            f"reference {entry['reference_trials_per_sec']:.3f} trials/s  "
            f"speedup {entry['speedup']:.2f}x"
        )
    return results


# ---------------------------------------------------------------------------
# Batched-trial execution: K stacked lanes vs K serial runs (bit-identical)
# ---------------------------------------------------------------------------

def run_batched(scale: str, repeats: int) -> Dict[str, dict]:
    """Stacked K=8 training vs the same 8 trials run serially.

    Measures exactly what the ``TrialBatch`` execution unit runs in a
    session: the workload's own dataset, model family, and
    ``effective_training``-resolved batch/lr — so the speedup here is
    the one a ``--trial-batch 8`` session actually sees.  Bit-identity
    is asserted before timing (same per-lane seeds the serial path would
    derive), so the speedup can never come from skipped or diverged
    work.  ``speedup`` is the best-of-round serial/stacked wall-clock
    ratio; the floor in ``check_regression`` is 1.5x with 2x the target
    on IC.
    """
    from repro.nn.batched import train_model_batch
    from repro.rng import derive_seed
    from repro.workloads import get_workload

    full = scale == "full"
    lanes = 8
    epochs = 2
    cases = {"IC": 640 if full else 256, "SR": 320 if full else 128}
    results: Dict[str, dict] = {}
    for workload_id, samples in cases.items():
        wl = get_workload(workload_id)
        train_set, eval_set = wl.load(seed=3, samples=samples)
        family = wl.family
        loss = family.make_loss(train_set.num_classes)
        real_batch, lr = wl.effective_training(64)
        seeds = [derive_seed(3, "train", tid) for tid in range(lanes)]

        def make_models():
            return [
                family.instantiate(
                    train_set.sample_shape,
                    train_set.num_classes,
                    {"train_batch_size": 64},
                    seed=wl.model_seed(3, tid),
                )
                for tid in range(lanes)
            ]

        def serial():
            return [
                train_model(
                    model, loss, train_set, eval_set, epochs=epochs,
                    batch_size=real_batch, lr=lr, seed=seeds[tid],
                )
                for tid, model in enumerate(make_models())
            ]

        def stacked():
            return train_model_batch(
                make_models(), loss, train_set, eval_set, epochs=epochs,
                batch_size=real_batch, lr=lr, seeds=seeds,
            )

        with use_backend("fast"):
            serial_ref, stacked_ref = serial(), stacked()  # warms buffers
            for a, b in zip(serial_ref, stacked_ref):
                assert a.accuracy == b.accuracy, (workload_id, "accuracy")
                assert a.losses == b.losses, (workload_id, "losses")
                assert a.samples_seen == b.samples_seen, (
                    workload_id, "samples"
                )
                assert a.train_total_flops == b.train_total_flops, (
                    workload_id, "flops"
                )

            rounds = {"serial": [], "stacked": []}
            for _ in range(max(repeats, 2)):
                rounds["serial"].append(_best_ms(serial, 1))
                rounds["stacked"].append(_best_ms(stacked, 1))
        entry = {
            "model": f"{family.name} @ "
                     f"{'x'.join(str(d) for d in train_set.sample_shape)}",
            "lanes": lanes,
            "serial_trials_per_sec":
                lanes * 1000.0 / min(rounds["serial"]),
            "fast_trials_per_sec":
                lanes * 1000.0 / min(rounds["stacked"]),
            "speedup": min(rounds["serial"]) / min(rounds["stacked"]),
        }
        results[workload_id] = entry
        print(
            f"batched {workload_id:4s} (K={lanes}, {entry['model']})  "
            f"serial {entry['serial_trials_per_sec']:.2f} trials/s  "
            f"stacked {entry['fast_trials_per_sec']:.2f} trials/s  "
            f"speedup {entry['speedup']:.2f}x"
        )
    return results


# ---------------------------------------------------------------------------
# Artifact cache: warm-resume and exact-memoization end-to-end speedups
# ---------------------------------------------------------------------------

def run_artifact(scale: str) -> Dict[str, dict]:
    """Time one BOHB bracket on IC three ways: cold (no cache), warm
    (``--reuse-checkpoints`` on a fresh store) and memo (the same session
    replayed against the populated store).

    Unlike the kernel benchmarks these are whole-session wall-clock
    timings (best of two runs per mode) — the cold/warm work difference
    (40 vs 20.8 budget units over the 31-trial bracket) is far larger
    than scheduler noise.  ``speedup`` is cold-over-{warm,memo}, gated
    by ``check_regression``.
    """
    from repro.core import ModelTuningServer
    from repro.storage import TrialDatabase
    from repro.workloads import get_workload

    # Larger than the e2e cases on purpose: the warm-resume win is a
    # *work* ratio (40 vs 20.8 budget units over the bracket), so the
    # measured wall-clock ratio approaches it only where training time
    # dwarfs the per-trial fixed costs (model build, eval, store I/O).
    samples = 9600 if scale == "full" else 2400

    def session(database: Optional[TrialDatabase] = None,
                reuse: bool = False) -> float:
        server = ModelTuningServer(
            workload=get_workload("IC"),
            algorithm="bohb",
            database=database,
            seed=7,
            samples=samples,
            max_trials=31,  # exactly the first (widest) BOHB bracket
            reuse_checkpoints=reuse,
        )
        start = time.perf_counter()
        server.run()
        return time.perf_counter() - start

    # Min-of-2 per mode: the cold/warm work ratio is systematic, noise
    # spikes only ever slow a run down.  Warm must see a *fresh* store
    # each repeat (a second pass over a populated store is memo, not
    # warm), so the store is rebuilt per repeat and the last one feeds
    # the memo timings.
    cold_s = min(session() for _ in range(2))
    warm_runs, memo_runs = [], []
    for _ in range(2):
        tempdir = tempfile.mkdtemp(prefix="repro-perf-artifacts-")
        try:
            path = os.path.join(tempdir, "artifacts.sqlite")
            database = TrialDatabase(path)
            warm_runs.append(session(database=database, reuse=True))
            database.close()
            database = TrialDatabase(path)
            memo_runs.append(session(database=database, reuse=True))
            database.close()
        finally:
            shutil.rmtree(tempdir, ignore_errors=True)
    warm_s = min(warm_runs)
    memo_s = min(memo_runs)

    results = {
        "IC": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s,
        },
        "IC_memo": {
            "cold_s": cold_s,
            "warm_s": memo_s,
            "speedup": cold_s / memo_s,
        },
    }
    print(
        f"artifact IC       cold {cold_s:7.2f}s  warm {warm_s:7.2f}s  "
        f"speedup {results['IC']['speedup']:.2f}x"
    )
    print(
        f"artifact IC_memo  cold {cold_s:7.2f}s  memo {memo_s:7.2f}s  "
        f"speedup {results['IC_memo']['speedup']:.2f}x"
    )
    return results


# ---------------------------------------------------------------------------
# Scheduler: asynchronous (ASHA) vs wave-synchronous halving under a straggler
# ---------------------------------------------------------------------------

def run_scheduler(scale: str) -> Dict[str, dict]:
    """Virtual-time makespan of one IC bracket, synchronous vs ASHA, on a
    heterogeneous worker pool with one straggler.

    Wall-clock cannot measure parallel scheduling honestly on a loaded
    (or single-core) benchmark host, so this follows the repo's
    virtual-time convention (DESIGN.md §5): both schedulers run inline —
    bit-deterministic, every trial carrying its emulator-virtual
    duration — and the measured quantity is the **simulated makespan**
    of those trials list-scheduled over an 8-worker pool whose first
    worker is 5x slower (the straggler every shared cluster has).  A
    64-wide bracket keeps rung widths above the pool size, so the
    barrier stall — not the longest promotion chain — dominates.  The
    synchronous wave path may not start a rung before the previous rung
    fully completes (the coordinator's barrier); ASHA carries no
    barriers, only true dependencies (a promotion cannot start before
    its parent's result has landed).  Identical pool, identical
    assignment policy, identical trial durations per scheduler's own
    schedule — the ratio isolates exactly the barrier stall.

    ``speedup`` is wave-over-asha makespan (gated at >= 1.3x) and
    ``quality`` is wave-best-score over asha-best-score (lower scores
    are better, so >= ~1 means ASHA's answer is at least as good;
    promotion trial ids differ between the two schedulers, which
    reseeds model init, so bit-equality is not expected and the gate is
    a ratio floor).  Both numbers are bit-reproducible.
    """
    from repro.service import SessionCoordinator, SessionSpec, SessionStore
    from repro.storage import TrialDatabase

    samples = 2400 if scale == "full" else 480
    pool_workers = 8
    slow_factor = 5.0
    #: Wide bracket (vs the eta**rungs = 16 default): rung widths must
    #: exceed the pool for the barrier stall to be the dominant cost —
    #: a pool-sized bracket is dominated by the longest promotion chain,
    #: which no scheduler can compress.
    num_configs = 64

    def session(scheduler: str):
        tempdir = tempfile.mkdtemp(prefix="repro-perf-scheduler-")
        try:
            database = TrialDatabase(
                os.path.join(tempdir, "session.sqlite")
            )
            spec = SessionSpec(
                workload="IC", samples=samples, seed=7,
                scheduler=scheduler, num_configs=num_configs,
            )
            session_id = SessionStore(database).create(spec)
            result = SessionCoordinator(
                database, session_id, workers=0
            ).run()
            record = SessionStore(database).get(session_id)
            database.close()
            return result, record.result["decision_log"]
        finally:
            shutil.rmtree(tempdir, ignore_errors=True)

    def assign(free: List[float], ready: float, duration: float) -> float:
        """Place on the worker that frees first; returns the end time.

        This is lease-queue order: a worker takes the head of the queue
        the moment it frees, blind to how long the unit will run.
        Earliest-*finish* placement would be omniscient — it would route
        long trials away from the straggler and hide exactly the stall
        this gate measures.
        """
        w = min(range(pool_workers), key=lambda i: (max(free[i], ready), i))
        factor = slow_factor if w == 0 else 1.0
        end = max(free[w], ready) + duration * factor
        free[w] = end
        return end

    def wave_makespan(result) -> float:
        free = [0.0] * pool_workers
        barrier = 0.0
        rung_key, rung_end = None, 0.0
        for trial in result.trials:
            if (trial.bracket, trial.rung) != rung_key:
                rung_key = (trial.bracket, trial.rung)
                barrier = max(barrier, rung_end)
            rung_end = max(
                rung_end, assign(free, barrier, trial.trial_runtime_s)
            )
        return max(free)

    def asha_makespan(result, decision_log) -> float:
        parent_of = {
            entry[4]: entry[1]
            for entry in decision_log
            if entry[4] is not None
        }
        free = [0.0] * pool_workers
        done: Dict[int, float] = {}
        for trial in result.trials:  # issue order (inline = pin order)
            ready = done.get(parent_of.get(trial.trial_id), 0.0)
            done[trial.trial_id] = assign(
                free, ready, trial.trial_runtime_s
            )
        return max(free)

    wave_result, _ = session("sha")
    asha_result, decision_log = session("asha")
    wave_s = wave_makespan(wave_result)
    asha_s = asha_makespan(asha_result, decision_log)

    results = {
        "asha": {
            "wave_s": wave_s,
            "asha_s": asha_s,
            "speedup": wave_s / asha_s,
            "quality": wave_result.best_score / asha_result.best_score,
        }
    }
    print(
        f"scheduler IC      wave {wave_s:7.2f}s  "
        f"asha {asha_s:7.2f}s  (virtual)  "
        f"speedup {results['asha']['speedup']:.2f}x  "
        f"quality {results['asha']['quality']:.3f}"
    )
    return results


# ---------------------------------------------------------------------------
# Traffic replay: simulated requests/sec through the discrete-event engine
# ---------------------------------------------------------------------------

def run_traffic(scale: str, repeats: int) -> Dict[str, dict]:
    """Replay throughput of :func:`repro.traffic.replay.replay_trace`.

    The SLO-aware objectives replay a full trace per candidate
    configuration, so replay speed bounds how much load-aware tuning
    costs on top of steady-state scoring; ``check_regression`` holds the
    floor at 50k simulated requests/sec.
    """
    from repro.traffic import build_trace, replay_trace

    duration = 60 if scale == "full" else 12
    trace = build_trace(f"poisson:rate=5000,duration={duration},seed=1")

    def latency_fn(batch: int) -> float:
        return 0.0005 + 0.0001 * batch

    def replay() -> None:
        replay_trace(trace, latency_fn, max_batch=64)

    replay()  # warm the latency tables / allocator
    best_ms = _best_ms(replay, max(repeats, 3))
    stats = replay_trace(trace, latency_fn, max_batch=64)
    results = {
        "replay": {
            "requests": stats.requests,
            "mean_batch": stats.mean_batch,
            "replay_ms": best_ms,
            "requests_per_sec": stats.requests / (best_ms / 1000.0),
        }
    }
    print(
        f"traffic replay    {stats.requests} requests in {best_ms:8.2f}ms  "
        f"({results['replay']['requests_per_sec']:,.0f} req/s)"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per measurement (median is reported)",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke keeps the paper-native shapes but cuts sample counts",
    )
    parser.add_argument(
        "--out", default="BENCH_nn.json", help="output JSON path"
    )
    args = parser.parse_args()

    e2e_repeats = max(3, args.repeats // 2) if args.scale == "full" else 1
    report = {
        "schema": 1,
        "scale": args.scale,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "micro": run_micro(args.scale, args.repeats),
        "session_step": run_session_step(args.repeats),
        "e2e": run_e2e(args.scale, e2e_repeats),
        "batched": run_batched(args.scale, e2e_repeats),
        "artifact": run_artifact(args.scale),
        "scheduler": run_scheduler(args.scale),
        "traffic": run_traffic(args.scale, args.repeats),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
