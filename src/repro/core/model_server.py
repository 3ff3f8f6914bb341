"""The Model Tuning Server (paper §3.3, Algorithm 1 lines 1-10).

Runs budgeted training trials proposed by a multi-fidelity scheduler,
asynchronously requesting inference tuning for every new architecture, and
scores each trial with the combined objective.  All training is *real*
(numpy SGD on the synthetic workload); all runtime/energy is *virtual*:

* trials are placed on a shared **GPU pool** (greedy list scheduling with
  synchronous rung barriers), so tuning runtime is the schedule makespan —
  a trial asking for 8 GPUs runs alone while eight 1-GPU trials overlap;
* inference-tuning jobs run pipelined on the CPU-only inference lane,
  hidden inside trial durations unless they finish late, in which case the
  rung barrier *stalls* (§3.3's containment argument, made measurable);
* tuning energy sums every trial's consumption — parallelism hides
  latency, never joules.

The server is a *stepwise engine*, driven by one loop, :func:`drive`:

* :meth:`ModelTuningServer.prepare` builds a :class:`RunState`;
* :meth:`ModelTuningServer.next_wave` drains every trial the scheduler can
  issue right now (a rung's worth for halving schedulers);
  :meth:`~ModelTuningServer.next_trials` draws what an asynchronous
  scheduler can run without demanding progress;
* :meth:`ModelTuningServer.make_task` turns a trial into a serializable
  :class:`TrialTask` that any worker process can execute via
  :func:`evaluate_trial` — the pure, heavy part (real numpy training);
* :meth:`ModelTuningServer.integrate` merges one evaluation back —
  inference recommendation (cache look-up, else a search), scoring,
  virtual-time accounting, scheduler report — and must be called in
  issue order, which is what makes an N-worker run identical to a
  1-worker run.  It writes nothing: it returns a :class:`Merge`, whose
  rows the caller writes with :meth:`~ModelTuningServer.write`, and
  whose :class:`MergeNote`, handed back, replays that merge exactly —
  which is how the service resumes a crashed session (the scheduler and
  the run state are rebuilt by re-running the session, not restored
  from a snapshot).

:func:`drive` is the tuning loop (Algorithm 1); its only parameter is
where evaluations come from.  :class:`InProcess` trains each trial here
when the loop reaches it (:meth:`ModelTuningServer.run`, the paper
path); :class:`~repro.service.coordinator.SessionCoordinator` hands
trials to a job queue and merges what its workers settle.
"""

from __future__ import annotations

import functools
import json
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..artifacts import ArtifactStore, pack_velocity, trial_key
from ..budgets import BudgetStrategy, MultiBudget
from ..datasets.base import Dataset
from ..errors import TuningError
from ..hardware import Emulator, get_device
from ..nn import train_model
from ..nn.models import get_model_family
from ..objectives import WORST_SCORE, RatioObjective, TuningObjective
from ..rng import SeedLike, derive_seed, ensure_seed
from ..search import ScheduledTrial, TrialReport, build_scheduler
from ..sim.pool import GpuPool
from ..space import ParameterSpace
from ..storage import TrialDatabase
from ..telemetry import TrainingMeasurement
from ..workloads import WORKLOADS, Workload, get_workload
from .inference_server import (
    InferenceTrialRecord, InferenceTuningServer, architecture_key_of,
)
from .results import InferenceRecommendation, TrialRecord, TuningRunResult

#: Per-trial fixed orchestration overhead on the tuning server, seconds
#: (checkpointing, worker startup — present in any real tuning system).
TRIAL_OVERHEAD_S = 10.0


def _plain(value: Any) -> Any:
    """Coerce a configuration value to a JSON-round-trippable builtin."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


@dataclass(frozen=True)
class TrialTask:
    """Self-contained, serializable description of one trial evaluation.

    Carries everything a worker process needs to reproduce the training
    bit-for-bit: the configuration values, the resolved budget, and the
    seeds/workload identifiers the serial path would have used.

    The warm-resume fields are populated only under
    ``--reuse-checkpoints``: ``reuse`` switches the trainer to the nested
    budget subset (and asks it to capture resume state), ``parent_key``
    names the parent rung's artifact, and ``start_epoch`` is how many
    epochs the restored state already trained.
    """

    trial_id: int
    values: Dict[str, Any]
    fidelity: int
    bracket: int
    rung: int
    epochs: int
    data_fraction: float
    workload_id: str
    seed: int
    samples: Optional[int]
    reuse: bool = False
    parent_key: Optional[str] = None
    start_epoch: int = 0
    #: Canonical traffic scenario the session tunes under (``None`` for
    #: steady-state sessions).  Part of the artifact trial key so cached
    #: evaluations never leak between load and steady-state semantics.
    traffic: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "trial_id": self.trial_id,
                "values": self.values,
                "fidelity": self.fidelity,
                "bracket": self.bracket,
                "rung": self.rung,
                "epochs": self.epochs,
                "data_fraction": self.data_fraction,
                "workload_id": self.workload_id,
                "seed": self.seed,
                "samples": self.samples,
                "reuse": self.reuse,
                "parent_key": self.parent_key,
                "start_epoch": self.start_epoch,
                "traffic": self.traffic,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "TrialTask":
        raw = json.loads(payload)
        return cls(**raw)


@dataclass
class TrialEvaluation:
    """Serializable outcome of the heavy (worker-side) part of a trial."""

    trial_id: int
    accuracy: float
    final_loss: Optional[float]
    samples_seen: int
    forward_flops_per_sample: int
    train_total_flops: int
    parameter_count: int
    #: Pickled trained :class:`~repro.nn.module.Module` (optional — the
    #: serial path keeps the live object instead).
    model_blob: Optional[bytes] = None
    #: Training diverged (NaN/Inf loss) and was aborted early; the trial
    #: scores :data:`~repro.objectives.WORST_SCORE` so the scheduler
    #: prunes the configuration instead of the run crashing.
    diverged: bool = False
    #: The trial never produced a real evaluation (job exhausted its
    #: retries and was dead-lettered); a substitute record keeps the
    #: wave merge — and N-worker determinism — intact.
    failed: bool = False
    #: Human-readable cause for ``failed``/``diverged`` records.
    failure: Optional[str] = None

    @property
    def degraded(self) -> bool:
        return self.failed or self.diverged


def failure_evaluation(trial_id: int, error: Optional[str]) -> TrialEvaluation:
    """The substitute evaluation integrated for a dead-lettered job.

    Deterministic by construction (all-zero compute, worst-case
    accuracy), so a session containing quarantined jobs still merges
    identically for any worker count.
    """
    return TrialEvaluation(
        trial_id=int(trial_id),
        accuracy=0.0,
        final_loss=None,
        samples_seen=0,
        forward_flops_per_sample=0,
        train_total_flops=0,
        parameter_count=0,
        failed=True,
        failure=error,
    )


#: Dataset memo: (workload_id, seed, samples) -> (train, eval), one per
#: process.  A coordinator's :meth:`ModelTuningServer.prepare` and a
#: worker's trials look a session's datasets up here, so a long-lived
#: process (a hub running session after session, a worker serving many
#: jobs, a benchmark tuning in a loop) builds each synthetic dataset
#: once.  FIFO capped: at most :data:`_DATASET_CACHE_MAX` materialised
#: datasets are held.
_DATASET_CACHE: Dict[Tuple[str, int, Optional[int]], Tuple[Dataset, Dataset]] = {}
_DATASET_CACHE_MAX = 4

#: Lifetime telemetry for the dataset memo (process-local, monotonic).
#: Published by the service workers and reported by ``service status``.
_DATASET_CACHE_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def dataset_cache_stats() -> Dict[str, int]:
    """Snapshot of the dataset-memo meters (hits/misses/evictions/size)."""
    stats = dict(_DATASET_CACHE_COUNTERS)
    stats["size"] = len(_DATASET_CACHE)
    return stats


def load_datasets(
    workload_id: str, seed: int, samples: Optional[int]
) -> Tuple[Dataset, Dataset]:
    """(train, eval) splits of a registry workload, through the memo.

    Datasets are immutable after construction and fully determined by
    ``(workload_id, seed, samples)``, so sharing one instance across the
    process cannot change results.
    """
    cache_key = (workload_id, seed, samples)
    cached = _DATASET_CACHE.get(cache_key)
    if cached is None:
        _DATASET_CACHE_COUNTERS["misses"] += 1
        workload = get_workload(workload_id)
        cached = workload.load(seed=seed, samples=samples)
        while len(_DATASET_CACHE) >= _DATASET_CACHE_MAX:
            _DATASET_CACHE.pop(next(iter(_DATASET_CACHE)))
            _DATASET_CACHE_COUNTERS["evictions"] += 1
        _DATASET_CACHE[cache_key] = cached
    else:
        _DATASET_CACHE_COUNTERS["hits"] += 1
    return cached


def load_task_datasets(task: TrialTask) -> Tuple[Dataset, Dataset]:
    """(train, eval) splits for a task — identical to the serial path."""
    return load_datasets(task.workload_id, task.seed, task.samples)


#: Probe sizing memo: (family, sample shape, classes, model values) ->
#: (FLOPs per sample, parameter count).  Both depend on the architecture
#: alone, not on the probe's initialisation seed, so every session in the
#: process shares them.  Bounded because a continuous model parameter
#: (OD's ``dropout``) makes nearly every trial a new key.
SIZING_CACHE_MAX = 256


@functools.lru_cache(maxsize=SIZING_CACHE_MAX)
def architecture_size(
    family_name: str,
    sample_shape: Tuple[int, ...],
    num_classes: int,
    model_values: Tuple[Tuple[str, Any], ...],
) -> Tuple[int, int]:
    """(FLOPs per sample, parameter count) of a randomly-initialised probe
    model (Algorithm 1's ``model.random_init()``)."""
    probe = get_model_family(family_name).instantiate(
        sample_shape, num_classes, dict(model_values), seed=0
    )
    flops, _ = probe.flops(sample_shape)
    return int(flops), probe.parameter_count()


def evaluate_trial(
    task: TrialTask,
    train_set: Optional[Dataset] = None,
    eval_set: Optional[Dataset] = None,
    workload: Optional[Workload] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> Tuple[TrialEvaluation, Any]:
    """Run the real numpy training for one :class:`TrialTask`.

    Pure with respect to process state: depends only on the task (seeds
    included), so re-running a crashed job reproduces the same result.
    Returns ``(evaluation, trained_model)``; callers shipping the result
    across a process boundary pickle the model into ``model_blob`` (a
    worker takes the pickle :func:`train_trial` hands back).
    ``workload`` short-circuits the registry lookup for in-process callers
    holding a custom workload object.

    ``artifacts`` plugs in the trial artifact cache.  Tier 1 (exact
    memoization): a task whose :func:`~repro.artifacts.trial_key` is
    already stored returns the stored evaluation and model bit-for-bit
    without training.  Tier 2 (warm-resume, only when ``task.reuse``): the
    parent rung's weights/momentum are restored and training starts at
    ``task.start_epoch``.  A missing parent artifact degrades to a cold
    run — the task is re-keyed with the lineage stripped so the stored
    artifact always describes what actually ran.
    """
    evaluation, model, _ = train_trial(
        task, train_set, eval_set, workload, artifacts
    )
    return evaluation, model


def train_trial(
    task: TrialTask,
    train_set: Optional[Dataset] = None,
    eval_set: Optional[Dataset] = None,
    workload: Optional[Workload] = None,
    artifacts: Optional[ArtifactStore] = None,
    probed_key: Optional[str] = None,
) -> Tuple[TrialEvaluation, Any, Optional[bytes]]:
    """:func:`evaluate_trial` as a worker runs it: also returns the model
    pickle the artifact store now holds when this call stored the trial
    (else ``None``), which the worker completes its job with rather than
    pickle the model again.

    ``probed_key`` is the task's trial key when the caller has already
    probed ``artifacts`` for it and missed without counting the miss (a
    worker, which serves a hit itself): the key is not probed again, and
    its miss is counted here, once.
    """
    key: Optional[str] = probed_key
    if artifacts is not None:
        if key is not None:
            artifacts.session_misses += 1
        else:
            key = trial_key(task)
            cached = artifacts.load_trial(key)
            if cached is not None:
                return cached[0], cached[1], None
    workload = workload or get_workload(task.workload_id)
    resume: Optional[Tuple[Dict[str, Any], List[Any]]] = None
    if artifacts is not None and task.reuse and task.parent_key is not None:
        resume = artifacts.resume_state(task.parent_key)
        if resume is None:
            # Parent evicted (gc) or never stored: fall back to a cold
            # run under the cold key, which may itself already be cached.
            task = replace(task, parent_key=None, start_epoch=0)
            key = trial_key(task)
            cached = artifacts.load_trial(key)
            if cached is not None:
                return cached[0], cached[1], None
    if train_set is None or eval_set is None:
        train_set, eval_set = workload.load(
            seed=task.seed, samples=task.samples
        )
    family = workload.family
    model = family.instantiate(
        train_set.sample_shape,
        train_set.num_classes,
        dict(task.values),
        seed=workload.model_seed(task.seed, task.trial_id),
    )
    real_batch, learning_rate = workload.effective_training(
        int(task.values["train_batch_size"])
    )
    init_state: Optional[Dict[str, Any]] = None
    if resume is not None:
        init_state = {"weights": resume[0], "velocity": resume[1]}
    result = train_model(
        model,
        family.make_loss(train_set.num_classes),
        train_set,
        eval_set,
        epochs=task.epochs,
        batch_size=real_batch,
        lr=learning_rate,
        data_fraction=task.data_fraction,
        seed=derive_seed(task.seed, "train", task.trial_id),
        start_epoch=task.start_epoch if init_state is not None else 0,
        init_state=init_state,
        nested_subset=task.reuse,
        capture_state=task.reuse and artifacts is not None,
    )
    evaluation = TrialEvaluation(
        trial_id=task.trial_id,
        accuracy=result.accuracy,
        final_loss=result.final_loss,
        samples_seen=result.samples_seen,
        forward_flops_per_sample=result.forward_flops_per_sample,
        train_total_flops=result.train_total_flops,
        parameter_count=result.parameter_count,
        diverged=result.diverged,
        failure="training diverged (non-finite loss)"
        if result.diverged else None,
    )
    if artifacts is not None and key is not None:
        resume_blob = None
        if result.resume_state is not None:
            # Only the optimizer half travels in the resume blob; the
            # post-training weights are already the stored model pickle.
            resume_blob = pack_velocity(result.resume_state["velocity"])
        return evaluation, model, artifacts.store_trial(
            key,
            evaluation,
            model,
            resume_blob,
            workload=task.workload_id,
            epochs=task.epochs,
            data_fraction=task.data_fraction,
        )
    return evaluation, model, None


@dataclass
class RunState:
    """Mutable state of one tuning run (everything :meth:`integrate` touches).

    Never persisted: a resumed service session rebuilds it by re-issuing
    the session's trials and replaying their merges (:class:`MergeNote`).
    """

    train_set: Dataset
    eval_set: Dataset
    space: ParameterSpace
    scheduler: Any
    pool: GpuPool
    inference_lane_free: float = 0.0
    rung_key: Optional[Tuple[int, int]] = None
    rung_end: float = 0.0
    barrier: float = 0.0
    stall_total: float = 0.0
    inference_energy_total: float = 0.0
    records: List[TrialRecord] = field(default_factory=list)
    best: Optional[TrialRecord] = None
    best_model: Optional[Any] = None
    stopped: bool = False
    #: trial_id -> artifact key, the rung-lineage chain the warm-resume
    #: tier walks when a promoted child looks up its parent's checkpoint
    #: (filled by :meth:`make_task`, so a replay rebuilds it too).
    artifact_keys: Dict[int, str] = field(default_factory=dict)
    #: architecture key -> a fresh search merged but not written yet
    #: (:meth:`ModelTuningServer.write` drops it): a later trial of the
    #: same architecture gets the cache hit it would get from the row.
    unstored: Dict[str, InferenceRecommendation] = field(default_factory=dict)


@dataclass(frozen=True)
class MergeNote:
    """What one :meth:`ModelTuningServer.integrate` drew from outside the
    run state and the scheduler: the inference recommendation it used
    (``None`` for a degraded trial or a server without inference tuning),
    and whether that recommendation was tuned fresh for this trial — only
    then does its cost land on the virtual timeline.

    The inference cache is persistent, so on a replay the architecture a
    crashed run tuned already reads as cached; the note is what keeps the
    replayed stall and energy those of the original merge.
    """

    inference: Optional[InferenceRecommendation] = None
    tuned: bool = False


@dataclass(frozen=True)
class Merge:
    """What one :meth:`ModelTuningServer.integrate` hands its caller: the
    trial's record, the note that replays the merge, and what
    :meth:`~ModelTuningServer.write` writes for it — the record's
    ``trials`` row and, when the note's recommendation was searched
    fresh, its inference-cache row (the architecture key and the
    search's candidate records)."""

    record: TrialRecord
    note: MergeNote
    architecture_key: Optional[str] = None
    search_records: Tuple[InferenceTrialRecord, ...] = ()


class ModelTuningServer:
    """Drives the tuning loop for one workload."""

    def __init__(
        self,
        workload: Workload,
        algorithm: str = "bohb",
        budget: Optional[BudgetStrategy] = None,
        objective: Optional[TuningObjective] = None,
        emulator: Optional[Emulator] = None,
        inference_server: Optional[InferenceTuningServer] = None,
        database: Optional[TrialDatabase] = None,
        seed: SeedLike = None,
        include_system_parameters: bool = True,
        fixed_gpus: int = 1,
        max_trials: Optional[int] = None,
        target_accuracy: Optional[float] = None,
        samples: Optional[int] = None,
        system_name: str = "edgetune",
        eta: int = 2,
        num_configs: Optional[int] = None,
        server_device: str = "titan-server",
        stop_on_target: bool = True,
        warm_start: bool = False,
        warm_start_records: Optional[List[Dict[str, Any]]] = None,
        reuse_checkpoints: bool = False,
        artifacts: Optional[ArtifactStore] = None,
        traffic: Optional[str] = None,
    ):
        self.workload = workload
        self.algorithm = algorithm
        self.budget = budget or MultiBudget()
        self.objective = objective or RatioObjective("runtime")
        self.emulator = emulator or Emulator()
        self.inference_server = inference_server
        self.database = database or TrialDatabase()
        self.seed = ensure_seed(seed)
        self.include_system_parameters = include_system_parameters
        self.fixed_gpus = fixed_gpus
        self.max_trials = max_trials
        self.target_accuracy = target_accuracy
        self.samples = samples
        self.system_name = system_name
        self.eta = eta
        #: Bracket width override for the halving schedulers.  ``None``
        #: keeps the scheduler's own default (``eta ** num_rungs``); only
        #: ``sha``/``asha`` accept the knob, so reject it early for any
        #: other algorithm instead of failing later inside ``prepare``.
        if num_configs is not None and algorithm not in ("sha", "asha"):
            raise TuningError(
                "num_configs only applies to the 'sha'/'asha' schedulers, "
                f"not {algorithm!r}"
            )
        self.num_configs = num_configs
        self.server_device = server_device
        self.stop_on_target = stop_on_target
        #: Transfer tuning knowledge from prior sessions (§3.4's reuse
        #: principle applied to *training* search): when enabled,
        #: :meth:`prepare` seeds the scheduler's model from historical
        #: trials of the same experiment before the first suggestion.
        self.warm_start = warm_start
        self.warm_start_records = warm_start_records
        #: Records actually absorbed by the last :meth:`prepare` (telemetry).
        self.warm_started_trials = 0
        #: Cross-rung checkpoint reuse (the artifact cache's warm-resume
        #: tier).  Off by default: warm-resumed trials train fewer epochs
        #: from a parent's weights, which changes scores vs. the paper's
        #: retrain-from-scratch semantics.
        self.reuse_checkpoints = bool(reuse_checkpoints)
        #: Canonical scenario string of the serving load this session
        #: tunes under (stamped onto every :class:`TrialTask`); ``None``
        #: preserves the historical steady-state trial keys bit-exactly.
        self.traffic_spec = traffic
        if artifacts is not None:
            self.artifacts: Optional[ArtifactStore] = artifacts
        elif self.reuse_checkpoints or self.database.path != ":memory:":
            # Exact memoization is bit-safe, so any persistent database
            # gets a store by default; pure in-memory runs skip the
            # bookkeeping unless warm-resume asks for it.
            self.artifacts = ArtifactStore(self.database)
        else:
            self.artifacts = None

    def enable_checkpoint_reuse(self) -> None:
        """Turn on warm-resume after construction (CLI flag plumbing)."""
        self.reuse_checkpoints = True
        if self.artifacts is None:
            self.artifacts = ArtifactStore(self.database)

    @property
    def experiment_name(self) -> str:
        """The ``trials`` table experiment this server reads and writes."""
        return f"{self.system_name}:{self.workload.workload_id}"

    # -- architecture sizing ---------------------------------------------------
    def _architecture_key(self, configuration, train_set):
        """(cache key, flops/sample, params) for a configuration, sized by
        the process-wide :func:`architecture_size` memo."""
        family = self.workload.family.name
        flops, params = architecture_size(
            family,
            train_set.sample_shape,
            train_set.num_classes,
            tuple(sorted(configuration.subset(["model"]).items())),
        )
        key = architecture_key_of(family, flops, params)
        return key, flops, params

    # -- stepwise engine ----------------------------------------------------
    def prepare(self) -> RunState:
        """Load data, build the scheduler, and return a fresh run state.

        A registry workload's datasets come from the process's memo; a
        custom :class:`Workload` object builds its own.
        """
        if WORKLOADS.get(self.workload.workload_id) is self.workload:
            train_set, eval_set = load_datasets(
                self.workload.workload_id, self.seed, self.samples
            )
        else:
            train_set, eval_set = self.workload.load(
                seed=self.seed, samples=self.samples
            )
        space = self.workload.training_space(
            include_system=self.include_system_parameters
        )
        scheduler_kwargs: Dict[str, Any] = {}
        if self.num_configs is not None:
            scheduler_kwargs["num_configs"] = self.num_configs
        scheduler = build_scheduler(
            self.algorithm,
            space,
            seed=derive_seed(self.seed, "scheduler"),
            max_fidelity=self.budget.max_iteration,
            eta=self.eta,
            num_trials=self.max_trials,
            **scheduler_kwargs,
        )
        if self.warm_start:
            records = self.warm_start_records
            if records is None:
                records = self.database.trials_for(self.experiment_name)
            self.warm_started_trials = scheduler.warm_start(records)
        pool = GpuPool(get_device(self.server_device).gpus or 1)
        return RunState(
            train_set=train_set,
            eval_set=eval_set,
            space=space,
            scheduler=scheduler,
            pool=pool,
        )

    def next_wave(self, state: RunState) -> List[ScheduledTrial]:
        """Every trial the scheduler can issue before it needs reports:
        for synchronous-halving schedulers (the remainder of) one rung —
        exactly the set of trials that may execute concurrently."""
        return self.next_trials(state)

    def next_trials(
        self,
        state: RunState,
        in_flight: int = 0,
        limit: Optional[int] = None,
    ) -> List[ScheduledTrial]:
        """Draw runnable trials, at most ``limit``, until the scheduler
        needs reports.  ``in_flight`` counts issued-but-unmerged trials,
        so the ``max_trials`` cap holds across ``records + in flight +
        drawn``.  Empty when nothing can run now; :func:`drive` tells a
        finished run from a stalled one.
        """
        trials: List[ScheduledTrial] = []
        while limit is None or len(trials) < limit:
            if state.stopped:
                break
            if (
                self.max_trials is not None
                and len(state.records) + in_flight + len(trials)
                >= self.max_trials
            ):
                break
            trial = state.scheduler.next_trial()
            if trial is None:
                break
            trials.append(trial)
        return trials

    def make_task(
        self, trial: ScheduledTrial, state: Optional[RunState] = None
    ) -> TrialTask:
        """The serializable job payload for one scheduled trial.

        Under ``reuse_checkpoints`` (and given ``state`` to consult), the
        task carries the warm-resume lineage: the parent rung's artifact
        key and how many epochs its checkpoint already trained.  The
        child's own key is recorded in ``state.artifact_keys`` so *its*
        promotions can chain from it.
        """
        budget = self.budget.budget(trial.fidelity)
        values = {
            name: _plain(value)
            for name, value in trial.configuration.to_dict().items()
        }
        task = TrialTask(
            trial_id=trial.trial_id,
            values=values,
            fidelity=trial.fidelity,
            bracket=trial.bracket,
            rung=trial.rung,
            epochs=budget.epochs,
            data_fraction=budget.data_fraction,
            workload_id=self.workload.workload_id,
            seed=self.seed,
            samples=self.samples,
            traffic=self.traffic_spec,
        )
        if self.reuse_checkpoints and self.artifacts is not None:
            parent_key: Optional[str] = None
            start_epoch = 0
            parent_id = getattr(trial, "parent_id", None)
            parent_fidelity = getattr(trial, "parent_fidelity", None)
            if (
                state is not None
                and parent_id is not None
                and parent_fidelity is not None
            ):
                parent_key = state.artifact_keys.get(parent_id)
                if parent_key is not None:
                    parent_budget = self.budget.budget(parent_fidelity)
                    start_epoch = min(parent_budget.epochs, budget.epochs)
            task = replace(
                task,
                reuse=True,
                parent_key=parent_key,
                start_epoch=start_epoch,
            )
            if state is not None:
                state.artifact_keys[trial.trial_id] = trial_key(task)
        return task

    def _recommend(
        self,
        state: RunState,
        trial: ScheduledTrial,
        evaluation: TrialEvaluation,
    ) -> Tuple[MergeNote, Optional[str], Tuple[InferenceTrialRecord, ...]]:
        """The trial's inference recommendation — the historical cache's
        (``state.unstored`` included), else a fresh search — as its
        :class:`MergeNote`, plus, after a search, the architecture key and
        the candidate records its cache row keeps.  Degraded evaluations
        (diverged training, dead-lettered jobs) get none: no inference
        tuning for a configuration that produced no usable model."""
        server = self.inference_server
        if server is None or getattr(evaluation, "degraded", False):
            return MergeNote(), None, ()
        key, flops, params = self._architecture_key(
            trial.configuration, state.train_set
        )
        cached = server.cached(key, state.unstored)
        if cached is not None:
            return MergeNote(inference=cached), None, ()
        fresh, records = server.search(
            forward_flops_per_sample=flops,
            parameter_count=params,
            space=self.workload.inference_space(server.device),
        )
        state.unstored[key] = fresh
        return MergeNote(inference=fresh, tuned=True), key, tuple(records)

    def integrate(
        self,
        state: RunState,
        trial: ScheduledTrial,
        evaluation: TrialEvaluation,
        model: Any = None,
        note: Optional[MergeNote] = None,
    ) -> Merge:
        """Merge one finished evaluation back into the run; returns the
        :class:`Merge`: the trial's record, the note that replays this
        merge, and the rows :meth:`write` writes for it.

        Must be called in issue order: this is where inference tuning,
        the virtual timeline and the scheduler report happen, all of
        which are order-sensitive.  Calling it in a fixed order makes the
        run independent of *when* evaluations finished — the determinism
        contract of the parallel worker pool.

        Writes nothing.  The recommendation is the historical cache's,
        else a fresh search, which waits in ``state.unstored`` until its
        row is written.  Given the ``note`` an earlier merge of the same
        trial returned, the merge is *replayed*: the recommendation comes
        from the note, nothing is read from the database, and the caller
        writes nothing (the trial's rows already exist).
        """
        configuration = trial.configuration
        budget = self.budget.budget(trial.fidelity)
        asynchronous = bool(getattr(state.scheduler, "asynchronous", False))
        if not asynchronous and (trial.bracket, trial.rung) != state.rung_key:
            # Synchronous halving: a new rung starts only after every
            # trial (and pending inference job) of the previous one.
            # Asynchronous schedulers (ASHA) have no rung barriers —
            # interleaved rungs must not thrash the barrier, so a
            # promoted trial starts as soon as the GPU pool can place it.
            state.rung_key = (trial.bracket, trial.rung)
            state.barrier = max(state.barrier, state.rung_end)

        # Degraded evaluations are contained here too: a finite
        # worst-case score so the scheduler prunes them without poisoning
        # its model fit.
        degraded = getattr(evaluation, "degraded", False)

        architecture_key: Optional[str] = None
        search_records: Tuple[InferenceTrialRecord, ...] = ()
        if note is None:
            note, architecture_key, search_records = self._recommend(
                state, trial, evaluation
            )
        inference_rec, inference_is_new = note.inference, note.tuned

        gpus = (
            int(configuration["gpus"])
            if self.include_system_parameters and "gpus" in configuration
            else self.fixed_gpus
        )
        if evaluation.train_total_flops > 0:
            training_measurement = self.emulator.measure_training(
                train_total_flops=evaluation.train_total_flops,
                forward_flops_per_sample=evaluation.forward_flops_per_sample,
                parameter_count=evaluation.parameter_count,
                samples_seen=evaluation.samples_seen,
                batch_size=int(configuration["train_batch_size"]),
                device=self.server_device,
                gpus=gpus,
            )
        else:
            # No completed step (instant divergence, substituted failure):
            # nothing to emulate, and the hardware model rejects
            # zero-FLOP runs anyway.  A zero-cost measurement keeps the
            # virtual timeline identical for every worker count.
            spec = get_device(self.server_device)
            training_measurement = TrainingMeasurement(
                runtime_s=0.0, energy_j=0.0, power_w=0.0,
                working_set_bytes=0, device=spec.name, gpus=gpus,
                cores=spec.cores,
            )
        if degraded:
            score = WORST_SCORE
        else:
            score = self.objective.score(
                evaluation.accuracy,
                training_measurement,
                inference_rec.measurement if inference_rec else None,
            )

        placement = state.pool.schedule(
            width=gpus,
            duration=training_measurement.runtime_s + TRIAL_OVERHEAD_S,
            earliest=state.barrier,
        )
        trial_end = placement.end
        stall = 0.0
        if inference_is_new and inference_rec is not None:
            # Pipelined CPU lane: job starts when the trial starts and
            # the lane is free; its result is needed by the trial's
            # promotion decision (the rung barrier).
            job_start = max(state.inference_lane_free, placement.start)
            job_end = job_start + inference_rec.tuning_runtime_s
            state.inference_lane_free = job_end
            state.inference_energy_total += inference_rec.tuning_energy_j
            if job_end > trial_end:
                stall = job_end - trial_end
                trial_end = job_end
        state.stall_total += stall
        state.rung_end = max(state.rung_end, trial_end)

        record = TrialRecord(
            trial_id=trial.trial_id,
            configuration=configuration.to_dict(),
            fidelity=trial.fidelity,
            epochs=budget.epochs,
            data_fraction=budget.data_fraction,
            accuracy=evaluation.accuracy,
            score=score,
            training=training_measurement,
            inference=inference_rec.measurement if inference_rec else None,
            bracket=trial.bracket,
            rung=trial.rung,
            stall_s=stall,
            failure=getattr(evaluation, "failure", None),
        )
        state.records.append(record)
        state.scheduler.report(
            TrialReport(
                trial=trial, score=score, accuracy=evaluation.accuracy
            )
        )
        incumbent_ok = (
            state.best is not None and state.best.failure is None
        )
        if state.best is None or (
            not degraded
            and (not incumbent_ok or self._better(record, state.best))
        ):
            # A healthy trial always displaces a degraded incumbent;
            # degraded records only ever seed an empty best slot (so a
            # fully-poisoned session still finalizes).
            state.best = record
            state.best_model = (
                model if model is not None else evaluation.model_blob
            )
        if (
            self.stop_on_target
            and self.target_accuracy is not None
            and trial.fidelity >= self.budget.max_iteration
            and evaluation.accuracy >= self.target_accuracy
        ):
            state.stopped = True  # the target accuracy at full fidelity
        return Merge(record, note, architecture_key, search_records)

    def write(self, state: RunState, merge: Merge) -> None:
        """Write the rows a fresh (not replayed) ``merge`` leaves: a
        fresh search's inference-cache row, then the trial's history
        row."""
        if merge.architecture_key is not None:
            self.inference_server.store(
                merge.architecture_key, merge.note.inference,
                merge.search_records,
            )
            state.unstored.pop(merge.architecture_key, None)
        record = merge.record
        self.database.record_trial(
            experiment=self.experiment_name,
            trial_id=record.trial_id,
            configuration=record.configuration,
            fidelity=record.fidelity,
            epochs=record.epochs,
            data_fraction=record.data_fraction,
            accuracy=record.accuracy,
            score=record.score,
            train_runtime_s=record.training.runtime_s,
            train_energy_j=record.training.energy_j,
        )

    def finalize(self, state: RunState) -> TuningRunResult:
        """Close the run and assemble the :class:`TuningRunResult`."""
        best = state.best
        if best is None:
            raise TuningError("tuning produced no trials")
        inference_rec_final: Optional[InferenceRecommendation] = None
        if self.inference_server is not None:
            key, _, _ = self._architecture_key(
                state.space.configuration(**best.configuration),
                state.train_set,
            )
            inference_rec_final = self.inference_server.cached(key)
        best_model = state.best_model
        if isinstance(best_model, bytes):
            best_model = pickle.loads(best_model)
        return TuningRunResult(
            system=self.system_name,
            workload_id=self.workload.workload_id,
            best_configuration=best.configuration,
            best_accuracy=best.accuracy,
            best_score=best.score,
            tuning_runtime_s=max(state.pool.makespan, state.rung_end),
            tuning_energy_j=sum(
                r.training.energy_j for r in state.records
            )
            + state.inference_energy_total,
            trials=state.records,
            inference=inference_rec_final,
            stall_s=state.stall_total,
            best_model=best_model,
        )

    def snapshot_run(
        self, state: RunState, wave: Optional[List[ScheduledTrial]] = None
    ) -> bytes:
        """Never called: a service session's durable state is its job log
        (:class:`MergeNote`), not a pickle of the run state.

        ``benchmarks/session/ledger.py``'s frozen ``TARGETS`` still names
        this method; that is the only reason it exists, and its ledger
        rows read 0.  The ROADMAP item "Spans and counters move in-tree"
        deletes it with ``TARGETS``.
        """
        raise NotImplementedError("run-state snapshots were removed")

    def run(self) -> TuningRunResult:
        """Execute the tuning loop in process to completion."""
        return drive(self, self.prepare(), InProcess(self))

    @staticmethod
    def _better(candidate: TrialRecord, incumbent: TrialRecord) -> bool:
        """Prefer higher fidelity; within a fidelity, lower score."""
        if candidate.fidelity != incumbent.fidelity:
            return candidate.fidelity > incumbent.fidelity
        return candidate.score < incumbent.score


#: Issue lookahead of the asynchronous policy: at most this many trials in
#: flight at once.  A *constant* (never derived from the worker count) on
#: purpose — the issue schedule is part of what makes pinned-order
#: decision logs bit-identical across worker counts — and big enough to
#: keep the default pools saturated while leaving ``max_trials`` headroom
#: for the promotions each result unlocks (greedy issuance would spend a
#: capped session's whole budget on bottom-rung trials before the first
#: promotion could claim a slot).
ASYNC_MAX_IN_FLIGHT = 8


class Settled(NamedTuple):
    """An issued trial an evaluation source hands back for merging: its
    evaluation, the trained model when it is still live, and the note of
    an earlier merge when this one replays it."""

    trial: ScheduledTrial
    evaluation: TrialEvaluation
    model: Any = None
    note: Optional[MergeNote] = None


def drive(
    server: ModelTuningServer, state: RunState, source: Any
) -> TuningRunResult:
    """Issue trials and merge their results until the run is complete;
    the finalized result.

    ``source`` is where evaluations come from (:class:`InProcess`, or the
    service's :class:`~repro.service.coordinator.SessionCoordinator`):
    ``issue(state, trials)`` takes newly drawn trials,
    ``settled(state, pending, barrier)`` hands back :class:`Settled`
    trials of ``pending`` in the order to merge them (possibly none),
    ``wait()`` blocks until that may change, and ``commit(state,
    merges)`` writes the merges of one turn.

    ``pending`` holds issued-but-unmerged trials in issue order.  The
    policy is read off the scheduler (DESIGN.md §8): a **barrier**
    (synchronous) scheduler is asked for more only once ``pending`` has
    drained, a whole :meth:`~ModelTuningServer.next_wave` at a time; an
    asynchronous one every turn, up to :data:`ASYNC_MAX_IN_FLIGHT` in
    flight, so a promotion is issued before the next merge.  A trial
    that stops the run ends the turn; work still in flight then is
    dropped unmerged, as a one-at-a-time run would never have drawn it.
    """
    barrier = not getattr(state.scheduler, "asynchronous", False)
    pending: List[ScheduledTrial] = []
    while not state.stopped:
        if barrier:
            fresh = [] if pending else server.next_wave(state)
        else:
            fresh = server.next_trials(
                state,
                in_flight=len(pending),
                limit=max(0, ASYNC_MAX_IN_FLIGHT - len(pending)),
            )
        if fresh:
            source.issue(state, fresh)
            pending.extend(fresh)
        if not pending:
            capped = (
                server.max_trials is not None
                and len(state.records) >= server.max_trials
            )
            if not (capped or state.scheduler.finished):
                raise TuningError(
                    "scheduler stalled with no runnable or in-flight trials"
                )
            break
        settled = source.settled(state, pending, barrier)
        if not settled:
            source.wait()
            continue
        merges = []
        for trial, evaluation, model, note in settled:
            merges.append(
                server.integrate(state, trial, evaluation, model=model)
                if note is None
                else server.integrate(state, trial, evaluation, note=note)
            )
            pending.remove(trial)
            if state.stopped:
                break
        source.commit(state, merges)
    return server.finalize(state)


class InProcess:
    """The evaluation source of an in-process run: the head pending trial
    is trained when the loop asks for a settled one, so exactly one
    trained model is alive at a time, and each merge's rows are written
    as soon as it merges."""

    def __init__(self, server: ModelTuningServer):
        self.server = server

    def issue(self, state: RunState, trials: List[ScheduledTrial]) -> None:
        """Nothing to hand anyone: a trial trains when it is the head."""

    def settled(
        self, state: RunState, pending: List[ScheduledTrial], barrier: bool
    ) -> List[Settled]:
        server, trial = self.server, pending[0]
        evaluation, model = evaluate_trial(
            server.make_task(trial, state),
            state.train_set,
            state.eval_set,
            workload=server.workload,
            artifacts=server.artifacts,
        )
        return [Settled(trial, evaluation, model)]

    def wait(self) -> None:
        """Never reached: the head is settled whenever it is asked for."""

    def commit(self, state: RunState, merges: List[Merge]) -> None:
        for merge in merges:
            self.server.write(state, merge)
