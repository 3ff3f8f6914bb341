"""Session specifications: what a submitted tuning job asks for.

A :class:`SessionSpec` is the JSON-serializable contract between
``service submit`` and the coordinator/workers that later execute the
session — everything needed to rebuild the tuner deterministically in any
process: system, workload, device, budget, objective metric, seed, sample
count and stopping rules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..budgets import build_budget
from ..errors import ServiceError
from ..storage import TrialDatabase

#: Systems the service can run.  The hierarchical tuner is excluded: it is
#: a two-phase meta-tuner without a single scheduler to checkpoint.
SERVICE_SYSTEMS = ("edgetune", "tune", "hyperpower")


@dataclass(frozen=True)
class SessionSpec:
    """Deterministic description of one tuning session."""

    system: str = "edgetune"
    workload: str = "IC"
    device: str = "armv7"
    budget: str = "multi-budget"
    tuning_metric: str = "runtime"
    seed: int = 7
    samples: Optional[int] = None
    max_trials: Optional[int] = None
    target_accuracy: Optional[float] = None
    #: Seed the session's search model from historical trials of the same
    #: experiment, read from the ``trials`` table up to the session's
    #: ``history_watermark``, before the first suggestion.
    warm_start: bool = False
    #: Warm-resume promoted trials from their parent rung's checkpoint
    #: (the artifact cache's cross-rung tier).  Opt-in: resumed trials
    #: train fewer epochs from inherited weights, so scores differ from
    #: the retrain-from-scratch default.
    reuse_checkpoints: bool = False
    #: Override the edgetune search algorithm (``asha``, ``sha``,
    #: ``bohb``, ...).  ``None`` keeps the system default.
    scheduler: Optional[str] = None
    #: Bracket width for the halving schedulers: how many fresh
    #: configurations enter the bottom rung.  Only meaningful with
    #: ``scheduler`` set to ``sha`` or ``asha``; ``None`` keeps the
    #: scheduler default (``eta ** num_rungs``).
    num_configs: Optional[int] = None
    #: Serving-load scenario this session tunes under (``repro.traffic``
    #: spec string), with the SLO metric/targets scored against it.
    traffic: Optional[str] = None
    traffic_metric: str = "p99"
    slo_p99_s: Optional[float] = None
    slo_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.system not in SERVICE_SYSTEMS:
            raise ServiceError(
                f"system {self.system!r} cannot run as a service session; "
                f"expected one of {SERVICE_SYSTEMS}"
            )
        if self.scheduler is not None:
            if self.system != "edgetune":
                raise ServiceError(
                    "--scheduler only applies to the edgetune system"
                )
            from ..search import SCHEDULER_NAMES

            if self.scheduler not in SCHEDULER_NAMES:
                raise ServiceError(
                    f"unknown scheduler {self.scheduler!r}; "
                    f"expected one of {SCHEDULER_NAMES}"
                )
        if self.num_configs is not None:
            if self.scheduler not in ("sha", "asha"):
                raise ServiceError(
                    "--num-configs only applies to the 'sha'/'asha' "
                    "schedulers (pass --scheduler)"
                )
            if self.num_configs < 1:
                raise ServiceError("--num-configs must be >= 1")
        if self.traffic is not None:
            if self.system != "edgetune":
                raise ServiceError(
                    "traffic-aware tuning is only supported by the "
                    "edgetune system"
                )
            # Validate (and normalise implicitly) at submit time so a bad
            # scenario fails in the submitting shell, not inside a worker.
            from ..traffic import parse_scenario

            parse_scenario(self.traffic)
        elif self.slo_p99_s is not None or self.slo_deadline_s is not None:
            raise ServiceError(
                "SLO targets need a traffic scenario to replay"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SessionSpec":
        """Rebuild a spec stored by :meth:`to_dict`."""
        return cls(**raw)


def build_server(spec: SessionSpec, database: TrialDatabase):
    """Instantiate the :class:`~repro.core.model_server.ModelTuningServer`
    described by ``spec``, wired to ``database``.

    Import is deferred so worker processes that never coordinate avoid the
    heavier core imports.
    """
    from .. import EdgeTune
    from ..baselines import HyperPowerBaseline, TuneBaseline

    common = dict(
        workload=spec.workload,
        seed=spec.seed,
        samples=spec.samples,
        max_trials=spec.max_trials,
        target_accuracy=spec.target_accuracy,
        database=database,
    )
    if spec.system == "edgetune":
        slo = None
        if spec.slo_p99_s is not None or spec.slo_deadline_s is not None:
            from ..traffic import SLOSpec

            slo = SLOSpec(
                p99_target_s=spec.slo_p99_s,
                deadline_s=spec.slo_deadline_s,
            )
        extra: Dict[str, Any] = {}
        if spec.scheduler is not None:
            extra["algorithm"] = spec.scheduler
        if spec.num_configs is not None:
            extra["num_configs"] = spec.num_configs
        server = EdgeTune(
            device=spec.device,
            budget=spec.budget,
            tuning_metric=spec.tuning_metric,
            traffic=spec.traffic,
            traffic_metric=spec.traffic_metric,
            slo=slo,
            **extra,
            **common,
        ).model_server
    elif spec.system == "tune":
        server = TuneBaseline(budget=build_budget(spec.budget), **common).server
    elif spec.system == "hyperpower":
        server = HyperPowerBaseline(
            budget=build_budget(spec.budget), **common
        ).server
    else:
        raise ServiceError(f"unsupported service system {spec.system!r}")
    # All systems run on a ModelTuningServer, so transfer works uniformly.
    server.warm_start = bool(spec.warm_start)
    if spec.reuse_checkpoints:
        server.enable_checkpoint_reuse()
    return server
