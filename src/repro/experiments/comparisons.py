"""System-comparison experiments: Figures 14, 16 and 17 (paper §5.3-5.5)."""

from __future__ import annotations

from ..baselines import HyperPowerBaseline, TuneBaseline
from ..budgets import EpochBudget
from ..core import EdgeTune
from ..hardware import Emulator
from ..rng import derive_seed
from ..workloads import get_workload
from .runner import ExperimentContext, ExperimentResult

WORKLOAD_IDS = ("IC", "SR", "NLP", "OD")


def figure_14_vs_tune(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 14: EdgeTune vs the Tune baseline (no inference server, fixed
    system parameters, epoch budgets): tuning duration and energy with
    the percentage difference the paper plots."""
    result = ExperimentResult(
        experiment_id="fig14",
        title="EdgeTune vs Tune: tuning duration and energy",
        columns=["workload", "system", "tuning_runtime_m",
                 "tuning_energy_kj", "runtime_diff_pct", "energy_diff_pct",
                 "accuracy"],
    )
    for workload_id in WORKLOAD_IDS:
        target = ctx.target_for(workload_id)
        edgetune = EdgeTune(
            workload=workload_id,
            device=ctx.device,
            seed=derive_seed(ctx.seed, "fig14", workload_id),
            samples=ctx.comparison_samples,
            target_accuracy=target,
        ).tune()
        tune = TuneBaseline(
            workload=workload_id,
            budget=EpochBudget(),
            seed=derive_seed(ctx.seed, "fig14", workload_id),
            samples=ctx.comparison_samples,
            target_accuracy=target,
        ).tune()
        runtime_diff = (
            edgetune.tuning_runtime_s / tune.tuning_runtime_s - 1
        ) * 100
        energy_diff = (
            edgetune.tuning_energy_j / tune.tuning_energy_j - 1
        ) * 100
        result.add_row(
            workload=workload_id, system="tune",
            tuning_runtime_m=tune.tuning_runtime_minutes,
            tuning_energy_kj=tune.tuning_energy_kj,
            runtime_diff_pct=0.0, energy_diff_pct=0.0,
            accuracy=tune.best_accuracy,
        )
        result.add_row(
            workload=workload_id, system="edgetune",
            tuning_runtime_m=edgetune.tuning_runtime_minutes,
            tuning_energy_kj=edgetune.tuning_energy_kj,
            runtime_diff_pct=runtime_diff, energy_diff_pct=energy_diff,
            accuracy=edgetune.best_accuracy,
        )
    result.note("paper reports EdgeTune reducing tuning duration by ~18 % "
                "and energy by ~53 % (IC, OD); negative diffs = wins")
    return result


def figure_16_objectives(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 16: runtime-based vs energy-based objective functions."""
    result = ExperimentResult(
        experiment_id="fig16",
        title="Objective functions: runtime-optimised vs energy-optimised",
        columns=["workload", "objective", "tuning_runtime_m",
                 "tuning_energy_kj", "inference_throughput_sps",
                 "inference_energy_j"],
    )
    for workload_id in WORKLOAD_IDS:
        for metric in ("runtime", "energy"):
            run = EdgeTune(
                workload=workload_id,
                device=ctx.device,
                tuning_metric=metric,
                inference_metric=metric
                if metric in ("runtime", "energy") else "energy",
                seed=derive_seed(ctx.seed, "fig16", workload_id),
                samples=ctx.samples,
                target_accuracy=ctx.target_for(workload_id),
            ).tune()
            inference = run.inference
            result.add_row(
                workload=workload_id,
                objective=f"obj:{metric}",
                tuning_runtime_m=run.tuning_runtime_minutes,
                tuning_energy_kj=run.tuning_energy_kj,
                inference_throughput_sps=(
                    inference.measurement.throughput_sps if inference else ""
                ),
                inference_energy_j=(
                    inference.measurement.energy_per_sample_j
                    if inference else ""
                ),
            )
    result.note("runtime objective: slightly lower tuning time, higher "
                "energy; energy objective mirrors (paper §5.4, diffs "
                "bounded ~20-29 %)")
    return result


def figure_17_vs_hyperpower(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 17: EdgeTune vs HyperPower.

    Tuning: HyperPower explores a smaller (hyper-only) space, so its
    duration/energy are lower.  Inference: following the paper's
    methodology, both final models are evaluated under EdgeTune's
    recommended inference configuration — EdgeTune's inference-aware
    choice of architecture yields higher throughput and lower energy.
    """
    result = ExperimentResult(
        experiment_id="fig17",
        title="EdgeTune vs HyperPower: tuning + inference",
        columns=["workload", "system", "tuning_runtime_m",
                 "tuning_energy_kj", "inference_throughput_sps",
                 "inference_energy_j"],
    )
    emulator = Emulator()
    for workload_id in WORKLOAD_IDS:
        target = ctx.target_for(workload_id)
        edgetune = EdgeTune(
            workload=workload_id,
            device=ctx.device,
            seed=derive_seed(ctx.seed, "fig17", workload_id),
            samples=ctx.comparison_samples,
            target_accuracy=target,
        ).tune()
        hyperpower = HyperPowerBaseline(
            workload=workload_id,
            seed=derive_seed(ctx.seed, "fig17", workload_id),
            samples=ctx.comparison_samples,
            target_accuracy=target,
        ).tune()
        recommendation = edgetune.inference
        rows = []
        for system, run in (("edgetune", edgetune),
                            ("hyperpower", hyperpower)):
            # Evaluate the system's winning architecture under EdgeTune's
            # recommended inference parameters (paper §5.5).
            workload = get_workload(workload_id)
            train_set, _ = workload.load(
                seed=derive_seed(ctx.seed, "fig17", workload_id),
                samples=ctx.comparison_samples,
            )
            family = workload.family
            probe = family.instantiate(
                train_set.sample_shape, train_set.num_classes,
                run.best_configuration,
                seed=derive_seed(ctx.seed, "fig17-probe", system),
            )
            flops, _ = probe.flops(train_set.sample_shape)
            config = recommendation.configuration if recommendation else {}
            inference = emulator.measure_inference(
                forward_flops_per_sample=flops,
                parameter_count=probe.parameter_count(),
                batch_size=int(config.get("inference_batch_size", 1)),
                device=ctx.device,
                cores=int(config.get("cores", 1)),
                frequency_ghz=config.get("frequency_ghz"),
            )
            rows.append((system, run, inference))
        for system, run, inference in rows:
            result.add_row(
                workload=workload_id,
                system=system,
                tuning_runtime_m=run.tuning_runtime_minutes,
                tuning_energy_kj=run.tuning_energy_kj,
                inference_throughput_sps=inference.throughput_sps,
                inference_energy_j=inference.energy_per_sample_j,
            )
    result.note("paper: HyperPower tunes up to 39 %/33 % cheaper, but "
                "EdgeTune's model serves >=12 % faster at >=29 % less "
                "energy")
    return result
