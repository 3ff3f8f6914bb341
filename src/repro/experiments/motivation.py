"""Motivation experiments: Figures 1-5 (paper §2).

These figures establish why inference-aware, multi-parameter tuning is
needed: perf-counter divergence between training-forward and inference
(Fig 1), and the non-obvious cost landscapes of model hyperparameters
(Fig 2), batch sizes (Fig 3), training GPUs (Fig 4) and inference CPU
cores (Fig 5).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..datasets import build_dataset
from ..hardware import Emulator, collect_counters, get_device, magnitude_bucket
from ..nn import BACKWARD_FLOPS_FACTOR, train_model
from ..nn.models import get_model_family
from ..rng import derive_seed
from ..workloads import get_workload
from .runner import ExperimentContext, ExperimentResult


def _ic_architecture(ctx: ExperimentContext, num_layers: int = 18):
    """Probe the IC (ResNet/CIFAR10) architecture: flops & params."""
    workload = get_workload("IC")
    train_set, eval_set = workload.load(seed=ctx.seed, samples=ctx.samples)
    family = workload.family
    model = family.instantiate(
        train_set.sample_shape,
        train_set.num_classes,
        {"num_layers": num_layers},
        seed=derive_seed(ctx.seed, "probe", num_layers),
    )
    flops, _ = model.flops(train_set.sample_shape)
    return workload, train_set, eval_set, model, int(flops)


def figure_01_counters(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 1: perf-counter events, training-forward vs inference.

    Expectation: cpu-category events fall in the same magnitude bucket in
    both phases; memory-category events diverge.
    """
    result = ExperimentResult(
        experiment_id="fig01",
        title="Performance counter events: forward-of-training vs inference",
        columns=["event", "category", "train_forward", "inference",
                 "bucket_train", "bucket_inference", "ratio"],
    )
    device = get_device(ctx.device)
    emulator = Emulator()
    _, _, _, _, flops = _ic_architecture(ctx)
    # Steady-state virtual FLOP rate of the workload on this device.
    inference = emulator.measure_inference(flops, 12842, 8, device, cores=2)
    flop_rate = emulator.virtual_flops(flops) * 8 / inference.batch_latency_s
    train_rates = collect_counters(flop_rate, "train_forward", device,
                                   seed=ctx.seed)
    inference_rates = collect_counters(flop_rate, "inference", device,
                                       seed=ctx.seed)
    from ..hardware import EVENTS

    for event in EVENTS:
        t, i = train_rates[event.name], inference_rates[event.name]
        result.add_row(
            event=event.name,
            category=event.category,
            train_forward=t,
            inference=i,
            bucket_train=magnitude_bucket(t),
            bucket_inference=magnitude_bucket(i),
            ratio=t / i,
        )
    result.note(
        "cpu-bound events consistent across phases; memory-bound diverge"
    )
    return result


def figure_02_model_hparams(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 2: ResNet depth vs training runtime/energy (a) and inference
    throughput/energy (b)."""
    result = ExperimentResult(
        experiment_id="fig02",
        title="Model hyperparameters (ResNet layers): training + inference",
        columns=["layers", "train_runtime_m", "train_energy_kj",
                 "inference_throughput_sps", "inference_energy_j"],
    )
    emulator = Emulator()
    for layers in (18, 34, 50):
        workload, train_set, eval_set, model, flops = _ic_architecture(
            ctx, layers
        )
        params = model.parameter_count()
        epochs = 16
        samples = len(train_set) * epochs
        total_flops = flops * samples * (1 + BACKWARD_FLOPS_FACTOR)
        training = emulator.measure_training(
            train_total_flops=total_flops,
            forward_flops_per_sample=flops,
            parameter_count=params,
            samples_seen=samples,
            batch_size=256,
            gpus=1,
        )
        inference = emulator.measure_inference(
            flops, params, batch_size=1, device=ctx.device, cores=2
        )
        result.add_row(
            layers=layers,
            train_runtime_m=training.runtime_minutes,
            train_energy_kj=training.energy_kj,
            inference_throughput_sps=inference.throughput_sps,
            inference_energy_j=inference.energy_per_sample_j,
        )
    result.note("throughput inversely proportional to depth, energy "
                "proportional (paper §2.3.1)")
    return result


def figure_03_batch_sizes(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 3: training batch size (a: runtime/energy to target accuracy)
    and inference batch size (b: throughput/energy with saturation)."""
    result = ExperimentResult(
        experiment_id="fig03",
        title="Training batch (to target accuracy) and inference batch",
        columns=["phase", "batch", "runtime_m", "energy_kj",
                 "throughput_sps", "energy_per_img_j", "epochs"],
    )
    emulator = Emulator()
    workload, train_set, eval_set, _, flops = _ic_architecture(ctx)
    family = workload.family
    target = 0.8
    max_epochs = 48
    for batch in (256, 512, 1024):
        real_batch, lr = workload.effective_training(batch)
        model = family.instantiate(
            train_set.sample_shape, train_set.num_classes,
            seed=derive_seed(ctx.seed, "fig3", batch),
        )
        loss = family.make_loss(train_set.num_classes)
        epochs_used = 0
        accuracy = 0.0
        total_samples = 0
        # Train in 4-epoch slices until the target accuracy (paper trains
        # each configuration until >= 80 %).
        while epochs_used < max_epochs and accuracy < target:
            outcome = train_model(
                model, loss, train_set, eval_set,
                epochs=4, batch_size=real_batch, lr=lr,
                seed=derive_seed(ctx.seed, "fig3", batch, epochs_used),
            )
            accuracy = outcome.accuracy
            epochs_used += 4
            total_samples += outcome.samples_seen
        per_sample = flops
        training = emulator.measure_training(
            train_total_flops=per_sample * total_samples
            * (1 + BACKWARD_FLOPS_FACTOR),
            forward_flops_per_sample=per_sample,
            parameter_count=model.parameter_count(),
            samples_seen=total_samples,
            batch_size=batch,
            gpus=1,
        )
        result.add_row(
            phase="train",
            batch=batch,
            runtime_m=training.runtime_minutes,
            energy_kj=training.energy_kj,
            throughput_sps="",
            energy_per_img_j="",
            epochs=epochs_used,
        )
    params = 12842
    for batch in (1, 10, 100):
        inference = emulator.measure_inference(
            flops, params, batch_size=batch, device=ctx.device, cores=4
        )
        result.add_row(
            phase="inference",
            batch=batch,
            runtime_m="",
            energy_kj="",
            throughput_sps=inference.throughput_sps,
            energy_per_img_j=inference.energy_per_sample_j,
            epochs="",
        )
    result.note("inference throughput rises with batch then saturates; "
                "too-large batches decay (paper §2.3.3)")
    return result


def figure_04_gpus(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 4: number of training GPUs x batch {32, 1024}."""
    result = ExperimentResult(
        experiment_id="fig04",
        title="Training system parameters: GPUs x batch size",
        columns=["batch", "gpus", "runtime_m", "energy_kj",
                 "vs_1gpu_runtime_pct"],
    )
    emulator = Emulator()
    _, train_set, _, model, flops = _ic_architecture(ctx)
    epochs = 16
    samples = len(train_set) * epochs
    total = flops * samples * (1 + BACKWARD_FLOPS_FACTOR)
    for batch in (32, 1024):
        base = None
        for gpus in (1, 4, 8):
            training = emulator.measure_training(
                train_total_flops=total,
                forward_flops_per_sample=flops,
                parameter_count=model.parameter_count(),
                samples_seen=samples,
                batch_size=batch,
                gpus=gpus,
            )
            base = base or training.runtime_s
            result.add_row(
                batch=batch,
                gpus=gpus,
                runtime_m=training.runtime_minutes,
                energy_kj=training.energy_kj,
                vs_1gpu_runtime_pct=(training.runtime_s / base - 1) * 100,
            )
    result.note("small batches degrade with more GPUs (up to ~120 %); "
                "large batches speed up sub-linearly while energy grows")
    return result


def figure_05_cpu_cores(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 5: inference CPU cores x batch {1, 10} on the edge device."""
    result = ExperimentResult(
        experiment_id="fig05",
        title="Inference system parameters: CPU cores x batch size",
        columns=["batch", "cores", "throughput_sps", "energy_per_img_j"],
    )
    emulator = Emulator()
    _, _, _, model, flops = _ic_architecture(ctx)
    params = model.parameter_count()
    for batch in (1, 10):
        for cores in (1, 2, 4):
            inference = emulator.measure_inference(
                flops, params, batch_size=batch, device=ctx.device,
                cores=cores,
            )
            result.add_row(
                batch=batch,
                cores=cores,
                throughput_sps=inference.throughput_sps,
                energy_per_img_j=inference.energy_per_sample_j,
            )
    result.note("single-image: cores do not raise throughput but raise "
                "energy; multi-image: throughput saturates beyond 2 cores")
    return result
