"""Ablation experiments for the design choices DESIGN.md calls out.

Not figures of the paper, but claims it makes in prose:

* §4.1 — *onefold vs hierarchical*: "We implement a prototype for each
  strategy, and compared the results" — reproduced as an explicit
  comparison;
* §3.4 — the *historical-results cache*: "allows us to improve
  performance since it avoids retuning architectures ... with the cost of
  a small storage overhead" — reproduced by toggling the cache off;
* §4.3 — the reduction factor η: halving aggressiveness trades trial
  count against per-trial budget.
"""

from __future__ import annotations

from ..baselines import HierarchicalTuner
from ..core import EdgeTune, InferenceTuningServer, ModelTuningServer
from ..hardware import Emulator
from ..objectives import RatioObjective
from ..rng import derive_seed
from ..storage import TrialDatabase
from ..workloads import get_workload
from .runner import ExperimentContext, ExperimentResult


def ablation_onefold_vs_hierarchical(
    ctx: ExperimentContext,
) -> ExperimentResult:
    """§4.1: joint (onefold) tuning vs hyper-then-system (hierarchical).

    Both tune the same workloads with the same budget and search
    algorithm; the hierarchical tuner pays a second phase to sweep the
    system parameter for its phase-1 winner, and its phase-1 choice could
    not account for hyper/system interactions.
    """
    result = ExperimentResult(
        experiment_id="ablation_onefold",
        title="Onefold vs hierarchical tuning (paper §4.1)",
        columns=["workload", "approach", "tuning_runtime_m",
                 "tuning_energy_kj", "accuracy", "gpus_chosen"],
    )
    for workload_id in ("IC", "SR"):
        onefold = EdgeTune(
            workload=workload_id,
            device=ctx.device,
            seed=derive_seed(ctx.seed, "ab-onefold", workload_id),
            samples=ctx.samples,
            target_accuracy=ctx.target_for(workload_id),
        ).tune()
        hierarchical = HierarchicalTuner(
            workload=workload_id,
            device=ctx.device,
            seed=derive_seed(ctx.seed, "ab-onefold", workload_id),
            samples=ctx.samples,
        ).tune()
        for approach, run in (("onefold", onefold),
                              ("hierarchical", hierarchical)):
            result.add_row(
                workload=workload_id,
                approach=approach,
                tuning_runtime_m=run.tuning_runtime_minutes,
                tuning_energy_kj=run.tuning_energy_kj,
                accuracy=run.best_accuracy,
                gpus_chosen=run.best_configuration.get("gpus", ""),
            )
    result.note("hierarchical pays an extra full-budget system-parameter "
                "sweep after hyperparameter tuning")
    return result


def ablation_inference_cache(ctx: ExperimentContext) -> ExperimentResult:
    """§3.4: the historical-results cache on vs off.

    Without the cache every trial re-tunes its architecture's inference
    parameters, loading the inference lane and stalling the model lane.
    """
    result = ExperimentResult(
        experiment_id="ablation_cache",
        title="Inference historical cache: enabled vs disabled (§3.4)",
        columns=["cache", "tuning_runtime_m", "tuning_energy_kj",
                 "stall_s", "inference_tunes"],
    )
    workload = get_workload("IC")
    for enabled in (True, False):
        database = TrialDatabase()
        emulator = Emulator()
        inference_server = InferenceTuningServer(
            device=ctx.device,
            emulator=emulator,
            database=database,
            seed=derive_seed(ctx.seed, "ab-cache"),
            use_cache=enabled,
        )
        server = ModelTuningServer(
            workload=workload,
            objective=RatioObjective(
                "runtime", accuracy_target=ctx.target_for("IC")
            ),
            emulator=emulator,
            inference_server=inference_server,
            database=database,
            seed=derive_seed(ctx.seed, "ab-cache"),
            samples=ctx.samples,
            target_accuracy=ctx.target_for("IC"),
            max_trials=24,
        )
        run = server.run()
        result.add_row(
            cache="on" if enabled else "off",
            tuning_runtime_m=run.tuning_runtime_minutes,
            tuning_energy_kj=run.tuning_energy_kj,
            stall_s=run.stall_s,
            # With the cache on, only distinct architectures are tuned
            # (the cache size); off, every trial launches a fresh tune.
            inference_tunes=(
                database.inference_cache_size() if enabled
                else run.num_trials
            ),
        )
    result.note("cache off: every trial re-tunes inference -> more lane "
                "load, more energy, potential stalls")
    return result


def ablation_reduction_factor(ctx: ExperimentContext) -> ExperimentResult:
    """§4.3: the halving reduction factor η under the multi-budget."""
    result = ExperimentResult(
        experiment_id="ablation_eta",
        title="Reduction factor (eta) sensitivity under multi-budget",
        columns=["eta", "trials", "tuning_runtime_m", "tuning_energy_kj",
                 "accuracy"],
    )
    for eta in (2, 3, 4):
        run = EdgeTune(
            workload="IC",
            device=ctx.device,
            seed=derive_seed(ctx.seed, "ab-eta", eta),
            samples=ctx.samples,
            target_accuracy=ctx.target_for("IC"),
        )
        run.model_server.eta = eta
        outcome = run.tune()
        result.add_row(
            eta=eta,
            trials=outcome.num_trials,
            tuning_runtime_m=outcome.tuning_runtime_minutes,
            tuning_energy_kj=outcome.tuning_energy_kj,
            accuracy=outcome.best_accuracy,
        )
    result.note("larger eta prunes harder: fewer promotions, cheaper "
                "tuning, riskier convergence")
    return result


def ablation_warm_start(ctx: ExperimentContext) -> ExperimentResult:
    """Search warm-starting: trials-to-target, cold vs warm.

    A first session populates the trial database; a second session over
    the same workload then runs twice from one seed — once cold, once
    with its TPE model warm-started from the first session's trials.
    Seeds and sample count are pinned (not ``ctx``-scaled) because the
    claim under test is a deterministic trial-count comparison.
    """
    from ..baselines import TuneBaseline

    result = ExperimentResult(
        experiment_id="ablation_warmstart",
        title="Search warm-start: trials to target, cold vs warm",
        columns=["phase", "seed", "trials", "accuracy", "warm_started",
                 "tuning_runtime_m"],
    )
    target, samples = 0.75, 200
    seed_first, seed_second = 7, 21

    def session(database, seed, warm):
        baseline = TuneBaseline(
            workload="IC",
            algorithm="tpe",
            seed=seed,
            samples=samples,
            target_accuracy=target,
            max_trials=40,
            database=database,
        )
        baseline.server.warm_start = warm
        run = baseline.tune()
        return run, baseline.server.warm_started_trials

    shared = TrialDatabase()
    first, _ = session(shared, seed_first, warm=False)
    cold, _ = session(TrialDatabase(), seed_second, warm=False)
    warm, absorbed = session(shared, seed_second, warm=True)
    for phase, seed, run, started in (
        ("first", seed_first, first, 0),
        ("cold", seed_second, cold, 0),
        ("warm", seed_second, warm, absorbed),
    ):
        result.add_row(
            phase=phase,
            seed=seed,
            trials=run.num_trials,
            accuracy=run.best_accuracy,
            warm_started=started,
            tuning_runtime_m=run.tuning_runtime_minutes,
        )
    result.note("warm and cold share a seed; the only difference is the "
                "prior-session trials seeding the TPE model")
    return result
