"""Emulation-precision experiment: Figure 15 (paper §5.3)."""

from __future__ import annotations

from typing import List

from ..hardware import Emulator, RealEdgeDevice, edge_device_names, get_device
from ..nn.models import get_model_family
from ..rng import derive_seed
from ..telemetry import MetricSummary, percent_error
from ..workloads import get_workload
from .runner import ExperimentContext, ExperimentResult


def figure_15_emulation_error(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 15: percent error of emulator throughput/energy estimates
    against the (modelled) physical edge devices, swept across the
    inference configuration space — the box-and-whisker data."""
    result = ExperimentResult(
        experiment_id="fig15",
        title="Inference emulation percent error vs physical edge devices",
        columns=["metric", "count", "mean", "p50", "p90", "max"],
    )
    emulator = Emulator()
    workload = get_workload("IC")
    train_set, _ = workload.load(seed=ctx.seed, samples=ctx.samples)
    family = workload.family
    throughput_errors: List[float] = []
    energy_errors: List[float] = []
    for device_name in edge_device_names():
        real = RealEdgeDevice.of(
            device_name, emulator, seed=derive_seed(ctx.seed, "fig15")
        )
        spec = get_device(device_name)
        for layers in (18, 34, 50):
            model = family.instantiate(
                train_set.sample_shape, train_set.num_classes,
                {"num_layers": layers},
                seed=derive_seed(ctx.seed, "fig15", layers),
            )
            flops, _ = model.flops(train_set.sample_shape)
            params = model.parameter_count()
            for batch in (1, 5, 20, 100):
                for cores in (1, 2, spec.cores):
                    estimated = emulator.measure_inference(
                        flops, params, batch, spec, cores=cores
                    )
                    actual = real.measure_inference(
                        flops, params, batch, cores=cores
                    )
                    throughput_errors.append(percent_error(
                        actual.throughput_sps, estimated.throughput_sps
                    ))
                    energy_errors.append(percent_error(
                        actual.energy_per_sample_j,
                        estimated.energy_per_sample_j,
                    ))
    for metric, errors in (("throughput", throughput_errors),
                           ("energy", energy_errors)):
        summary = MetricSummary.of(errors)
        result.add_row(
            metric=metric,
            count=summary.count,
            mean=summary.mean,
            p50=summary.p50,
            p90=summary.p90,
            max=summary.maximum,
        )
    result.note("paper reports small errors (<= ~20 % in most "
                "configurations) validating simulation-based inference "
                "tuning")
    return result
