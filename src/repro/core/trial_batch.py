"""The ``TrialBatch`` execution unit: group and stack trial evaluations.

Sits between the scheduler/queue layer (which thinks in single
:class:`~repro.core.model_server.TrialTask`\\ s) and the batched training
path (:func:`repro.nn.batched.train_model_batch`).  Three pieces:

* :func:`batch_signature` — the grouping key.  Two tasks may share a
  stacked run only when every *shape-determining* input matches: model
  family and its shape hyperparameters, real batch size, epochs,
  data fraction, dataset seed/samples.  Scalar hyperparameters (lr via
  ``train_batch_size`` is shape-relevant and therefore *in* the
  signature; dropout is per-lane) ride along the lane axis.  ``None``
  means "not stackable — use the serial path".
* :func:`group_tasks` — partition a task list into execution groups of
  at most K signature-sharers plus serial singletons.
* :func:`evaluate_trial_batch` — the K-wide form of
  :func:`~repro.core.model_server.evaluate_trial`: per-member artifact
  memo check first, one stacked training run for the misses, K per-trial
  evaluations out, each built and stored by the serial path's own
  :func:`~repro.core.model_server.finish_trial`.  Artifact keys stay
  per-trial (the cache must hit identically whether a trial ran stacked
  or serial), so each member is stored under exactly the key the serial
  path would have used.

Bit-identity per member with the serial path is the invariant; the
signature gates (fast backend, no warm-resume lineage) exclude every
path the batched training loop does not have.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..artifacts import ArtifactStore, trial_key
from ..nn import kernels
from ..nn.batched import UnstackableModelError, train_model_batch
from ..nn.trainer import TrainingResult
from ..workloads import Workload, get_workload
from .model_server import (
    TrialEvaluation,
    TrialTask,
    _plain,
    evaluate_trial,
    finish_trial,
    train_trial,
    trial_setup,
)

#: Stacking width when the CLI/spec leaves ``--trial-batch`` on auto.
DEFAULT_TRIAL_BATCH = 8


def resolve_trial_batch(
    value: Optional[int] = None, default: int = DEFAULT_TRIAL_BATCH
) -> int:
    """Effective stacking width K: explicit value, else ``$REPRO_TRIAL_BATCH``,
    else ``default``.  Any K <= 1 disables batching (returns 1).

    The in-process driver passes the auto default (batching is
    bit-identical, so it is safe to turn on); queue workers pass
    ``default=1`` so service-side grouping is opt-in per session
    (``--trial-batch`` on submit/workers, or the environment override).
    """
    if value is None:
        raw = os.environ.get("REPRO_TRIAL_BATCH", "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                value = default
        else:
            value = default
    value = int(value)
    return value if value > 1 else 1


def batch_signature(
    task: TrialTask, workload: Optional[Workload] = None
) -> Optional[Tuple]:
    """Grouping key for ``task``, or ``None`` when it must run serially.

    Serial-only cases: warm-resume lineage (``reuse``/``parent_key``/
    ``start_epoch`` change the training loop in ways the batched loop
    does not have), non-stackable model families (recurrent), and the
    reference kernel backend (the serial-rank oracle: its kernels take no
    lane stack).
    """
    if task.reuse or task.parent_key is not None or task.start_epoch:
        return None
    if kernels.get_backend() != "fast":
        return None
    workload = workload or get_workload(task.workload_id)
    family = workload.family
    if not family.stackable:
        return None
    merged = dict(family.default_hyperparameters)
    merged.update(
        (k, v) for k, v in task.values.items() if k in merged
    )
    shape_values = tuple(
        _plain(merged[name]) for name in family.shape_hyperparameters
    )
    configured_batch = int(task.values["train_batch_size"])
    real_batch, _ = workload.effective_training(configured_batch)
    return (
        task.workload_id,
        family.name,
        shape_values,
        real_batch,
        int(task.epochs),
        float(task.data_fraction),
        int(task.seed),
        task.samples,
        task.traffic,
    )


def group_tasks(
    tasks: Sequence[TrialTask],
    limit: int,
    workload: Optional[Workload] = None,
) -> List[List[int]]:
    """Partition ``tasks`` into execution groups (lists of indices).

    Signature-sharers are grouped up to ``limit`` wide, in first-seen
    order; unstackable tasks become singletons at their own position.
    Every index appears exactly once.
    """
    buckets: Dict[Any, List[int]] = {}
    order: List[Any] = []
    for index, task in enumerate(tasks):
        signature = None
        if limit > 1:
            signature = batch_signature(task, workload=workload)
        key = ("solo", index) if signature is None else ("sig", signature)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = bucket = []
            order.append(key)
        bucket.append(index)
    groups: List[List[int]] = []
    for key in order:
        bucket = buckets[key]
        for start in range(0, len(bucket), max(limit, 1)):
            groups.append(bucket[start:start + max(limit, 1)])
    return groups


def evaluate_trial_batch(
    tasks: Sequence[TrialTask],
    train_set=None,
    eval_set=None,
    workload: Optional[Workload] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> List[Tuple[TrialEvaluation, Any]]:
    """Evaluate K signature-matched tasks as one stacked training run.

    Returns ``[(evaluation, model), ...]`` aligned with ``tasks``; each
    element is bit-identical to ``evaluate_trial(task, ...)`` run alone.
    Members already memoized in the artifact store are served from it
    (and excluded from the stack); a single remaining miss trains
    serially, as does every miss when stacking fails (defensive — the
    signature should prevent it).  Each member's key is probed once.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workload = workload or get_workload(tasks[0].workload_id)
    if train_set is None or eval_set is None:
        head = tasks[0]
        train_set, eval_set = workload.load(
            seed=head.seed, samples=head.samples
        )
    results: List[Optional[Tuple[TrialEvaluation, Any]]] = [None] * len(tasks)
    pending: List[Tuple[int, TrialTask, Optional[str]]] = []
    for index, task in enumerate(tasks):
        key: Optional[str] = None
        if artifacts is not None:
            key = trial_key(task)
            cached = artifacts.load_trial(key)
            if cached is not None:
                results[index] = (cached[0], cached[1])
                continue
        pending.append((index, task, key))
    trained = None
    if len(pending) > 1:
        try:
            trained = _train_stacked(
                [task for _, task, _ in pending],
                train_set, eval_set, workload,
            )
        except UnstackableModelError:
            pass
    for lane, (index, task, key) in enumerate(pending):
        if trained is None:
            results[index] = train_trial(
                task, key, train_set, eval_set, workload, artifacts
            )
        else:
            model, result = trained[lane]
            results[index] = (
                finish_trial(task, key, model, result, artifacts), model
            )
    return results


def _train_stacked(
    tasks: Sequence[TrialTask], train_set, eval_set, workload: Workload
) -> List[Tuple[Any, TrainingResult]]:
    """One stacked training run: ``(model, training result)`` per task.

    Every lane is set up by the serial path's own
    :func:`~repro.core.model_server.trial_setup`; the signature
    guarantees the members resolve to the same loss, real batch size and
    learning rate, so the head's stand for all.
    """
    setups = [trial_setup(task, workload, train_set) for task in tasks]
    models = [setup.model for setup in setups]
    head, head_setup = tasks[0], setups[0]
    results = train_model_batch(
        models,
        head_setup.loss,
        train_set,
        eval_set,
        epochs=head.epochs,
        batch_size=head_setup.batch_size,
        lr=head_setup.learning_rate,
        data_fraction=head.data_fraction,
        seeds=[setup.seed for setup in setups],
    )
    return list(zip(models, results))


def evaluate_task_groups(
    tasks: Sequence[TrialTask],
    train_set,
    eval_set,
    limit: int,
    workload: Optional[Workload] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> List[Tuple[TrialEvaluation, Any]]:
    """Evaluate a task list with stacking, preserving task order.

    The driver for the in-process ``run()`` path: partitions the list
    with :func:`group_tasks`, evaluates each group (stacked or serial),
    and returns results aligned with ``tasks``.
    """
    tasks = list(tasks)
    results: List[Optional[Tuple[TrialEvaluation, Any]]] = [None] * len(tasks)
    for indices in group_tasks(tasks, limit, workload=workload):
        group = [tasks[i] for i in indices]
        if len(group) == 1:
            outputs = [evaluate_trial(
                group[0], train_set, eval_set,
                workload=workload, artifacts=artifacts,
            )]
        else:
            outputs = evaluate_trial_batch(
                group, train_set, eval_set,
                workload=workload, artifacts=artifacts,
            )
        for index, value in zip(indices, outputs):
            results[index] = value
    return results
