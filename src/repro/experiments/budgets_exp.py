"""Budget-strategy experiments: Figures 12 and 13 (paper §5.2)."""

from __future__ import annotations

from typing import Dict

from ..budgets import BudgetStrategy, DatasetBudget, EpochBudget, MultiBudget
from ..core import EdgeTune, ModelTuningServer
from ..objectives import AccuracyObjective
from ..rng import derive_seed
from ..storage import TrialDatabase
from ..workloads import get_workload
from .runner import ExperimentContext, ExperimentResult

BUDGETS = {
    "epochs": EpochBudget,
    "dataset": DatasetBudget,
    "multi-budget": MultiBudget,
}


def figure_12_budget_convergence(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 12: per-trial duration (a) and accuracy (b) for the three
    budget strategies on ResNet18/CIFAR10.

    Expected shapes: epoch-budget reaches the target accuracy in few
    trials but with very long trials; dataset-budget keeps trials short
    but accuracy plateaus low; multi-budget balances both.
    """
    result = ExperimentResult(
        experiment_id="fig12",
        title="Trial duration and accuracy convergence per budget strategy",
        columns=["budget", "trial", "fidelity", "duration_m", "accuracy"],
    )
    workload = get_workload("IC")
    target = ctx.target_for("IC")
    for name, budget_cls in BUDGETS.items():
        server = ModelTuningServer(
            workload=workload,
            algorithm="bohb",
            budget=budget_cls(),
            objective=AccuracyObjective(),
            database=TrialDatabase(),
            seed=derive_seed(ctx.seed, "fig12", name),
            include_system_parameters=False,
            fixed_gpus=1,
            samples=ctx.samples,
            system_name=f"fig12-{name}",
            max_trials=50,
            target_accuracy=target,
        )
        run = server.run()
        for record in run.trials:
            result.add_row(
                budget=name,
                trial=record.trial_id,
                fidelity=record.fidelity,
                duration_m=record.training.runtime_minutes,
                accuracy=record.accuracy,
            )
    result.note(f"target accuracy: {target}")
    result.note("epoch: fast accuracy / slow trials; dataset: fast trials "
                "/ low accuracy ceiling; multi-budget: balanced (Fig 12)")
    return result


def figure_13_budget_comparison(ctx: ExperimentContext) -> ExperimentResult:
    """Fig 13: tuning duration/energy + inference throughput/energy for
    the three budgets across the four workloads."""
    result = ExperimentResult(
        experiment_id="fig13",
        title="Budget strategies across workloads: tuning + inference",
        columns=["workload", "budget", "tuning_runtime_m",
                 "tuning_energy_kj", "inference_throughput_sps",
                 "inference_energy_j", "accuracy"],
    )
    for workload_id in ("IC", "SR", "NLP", "OD"):
        for name, budget_cls in BUDGETS.items():
            # Fixed tuning session (the paper's setting): the accuracy
            # target constrains the objective but does not stop the run,
            # so every budget pays for its full trial schedule.
            run = EdgeTune(
                workload=workload_id,
                device=ctx.device,
                budget=budget_cls(),
                seed=derive_seed(ctx.seed, "fig13", workload_id, name),
                samples=ctx.samples,
                target_accuracy=ctx.target_for(workload_id),
                stop_on_target=False,
            ).tune()
            inference = run.inference
            result.add_row(
                workload=workload_id,
                budget=name,
                tuning_runtime_m=run.tuning_runtime_minutes,
                tuning_energy_kj=run.tuning_energy_kj,
                inference_throughput_sps=(
                    inference.measurement.throughput_sps if inference else ""
                ),
                inference_energy_j=(
                    inference.measurement.energy_per_sample_j
                    if inference else ""
                ),
                accuracy=run.best_accuracy,
            )
    result.note("multi-budget consistently cheapest in runtime and energy "
                "with comparable inference results (paper §5.2)")
    return result
