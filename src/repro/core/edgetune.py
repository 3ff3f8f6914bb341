"""The EdgeTune facade: one call wires both servers together (Algorithm 1).

Typical use::

    from repro import EdgeTune

    result = EdgeTune(workload="IC", device="armv7", seed=7).tune()
    print(result.best_configuration)
    print(result.inference.configuration)   # deploy-ready edge settings

Inputs mirror the paper's §3.1 list: the workload, the parameter sets
(derived from the workload's search spaces), the tuning objective, the
inference objective, and the per-server search algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..budgets import BudgetStrategy, MultiBudget, build_budget
from ..hardware import Emulator
from ..objectives import (
    InferenceObjective,
    RatioObjective,
    TrafficSLOObjective,
)
from ..rng import SeedLike
from ..storage import TrialDatabase
from ..traffic import SLOSpec, parse_scenario
from ..workloads import Workload, get_workload
from .inference_server import InferenceTuningServer
from .model_server import ModelTuningServer
from .results import TuningRunResult


class EdgeTune:
    """Inference-aware multi-parameter tuning, end to end."""

    def __init__(
        self,
        workload: Union[str, Workload] = "IC",
        device: str = "armv7",
        tuning_metric: str = "runtime",
        inference_metric: str = "energy",
        algorithm: str = "bohb",
        inference_algorithm: str = "grid",
        budget: Union[str, BudgetStrategy] = "multi-budget",
        seed: SeedLike = None,
        database: Optional[TrialDatabase] = None,
        emulator: Optional[Emulator] = None,
        max_trials: Optional[int] = None,
        num_configs: Optional[int] = None,
        target_accuracy: Optional[float] = None,
        samples: Optional[int] = None,
        stop_on_target: bool = True,
        warm_start: bool = False,
        reuse_checkpoints: bool = False,
        traffic: Optional[str] = None,
        traffic_metric: str = "p99",
        slo: Optional[SLOSpec] = None,
    ):
        self.workload = (
            get_workload(workload) if isinstance(workload, str) else workload
        )
        self.device = device
        self.database = database or TrialDatabase()
        self.emulator = emulator or Emulator()
        budget_strategy = (
            build_budget(budget) if isinstance(budget, str) else budget
        )
        #: When a serving-load scenario is given, the inference server
        #: replays it through every candidate and scores deployments with
        #: the SLO-aware objective instead of one steady-state call.
        self.traffic_spec = (
            parse_scenario(traffic) if traffic is not None else None
        )
        if self.traffic_spec is not None:
            inference_objective: InferenceObjective = TrafficSLOObjective(
                traffic_metric,
                scenario=self.traffic_spec.canonical(),
                slo=slo,
            )
        else:
            inference_objective = InferenceObjective(inference_metric)
        self.inference_server = InferenceTuningServer(
            device=device,
            objective=inference_objective,
            algorithm=inference_algorithm,
            emulator=self.emulator,
            database=self.database,
            seed=seed,
            traffic=self.traffic_spec,
            slo=slo,
        )
        self.model_server = ModelTuningServer(
            workload=self.workload,
            algorithm=algorithm,
            budget=budget_strategy,
            objective=RatioObjective(
                tuning_metric, accuracy_target=target_accuracy
            ),
            emulator=self.emulator,
            inference_server=self.inference_server,
            database=self.database,
            seed=seed,
            include_system_parameters=True,
            max_trials=max_trials,
            num_configs=num_configs,
            target_accuracy=target_accuracy,
            samples=samples,
            system_name="edgetune",
            stop_on_target=stop_on_target,
            warm_start=warm_start,
            reuse_checkpoints=reuse_checkpoints,
            traffic=(
                self.traffic_spec.canonical()
                if self.traffic_spec is not None else None
            ),
        )

    def tune(self) -> TuningRunResult:
        """Run the full onefold tuning process and return the result:
        the optimal trained model plus the inference recommendation."""
        return self.model_server.run()
