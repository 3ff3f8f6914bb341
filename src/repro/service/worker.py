"""Trial-evaluation workers: the processes that do the real training.

:func:`worker_main` is the entry point of each pool process (also usable
standalone).  A worker:

1. leases the oldest runnable job from the persistent queue;
2. spawns a heartbeat thread that renews the lease while training runs —
   a worker killed mid-trial stops heartbeating, so its job is reclaimed
   and retried by someone else;
3. executes the trial's real numpy training via
   :func:`repro.core.model_server.evaluate_trial` (datasets cached per
   workload/seed/sample-count, so a session pays the synthesis cost once
   per worker);
4. writes the pickled :class:`TrialEvaluation` back into the job row.

Workers are stateless by design: every piece of information needed to run
a job travels inside the job payload, which is what makes retries after a
crash bit-identical.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
import traceback
from typing import Any, Callable, List, Optional, Tuple

from ..artifacts import ArtifactStore, pack_result, trial_key
from ..core.model_server import (
    TrialTask,
    dataset_cache_stats,
    evaluate_trial,
    load_task_datasets,
)
from ..core.trial_batch import (
    batch_signature,
    evaluate_trial_batch,
    resolve_trial_batch,
)
from ..faults import fault_point
from ..storage import TrialDatabase
from .doorbell import Doorbell
from .failures import run_with_deadline
from .queue import DEFAULT_LEASE_TTL_S, Job, JobQueue, _env_float

#: An idle worker's fallback tick (its longest unrung wait), seconds.
IDLE_POLL_S = 0.05

#: Lease renewal period as a fraction of the TTL.
HEARTBEAT_FRACTION = 0.25

#: Explicit lease-renewal period; ``None`` derives it from the TTL via
#: :data:`HEARTBEAT_FRACTION`.  Overridable per deployment through
#: ``$REPRO_HEARTBEAT_INTERVAL_S`` (and per run via ``--heartbeat-interval``).
DEFAULT_HEARTBEAT_INTERVAL_S: Optional[float] = (
    _env_float("REPRO_HEARTBEAT_INTERVAL_S", 0.0) or None
)


def heartbeat_interval(
    ttl_s: float, interval_s: Optional[float] = None
) -> float:
    """Resolve the effective lease-renewal period for a TTL."""
    if interval_s is None:
        interval_s = DEFAULT_HEARTBEAT_INTERVAL_S
    if interval_s is not None and interval_s > 0:
        return float(interval_s)
    return max(0.05, ttl_s * HEARTBEAT_FRACTION)


def result_blob(evaluation: Any, model: Any) -> bytes:
    """The bytes a job that just trained ``model`` is completed with."""
    return pack_result(
        evaluation, pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    )


class Periodic:
    """Daemon thread calling ``tick`` every ``interval_s`` for as long as
    the ``with`` block runs, or until ``tick`` returns ``False``.

    What keeps a lease alive while its trial runs — the local worker's
    queue heartbeat and the fleet host's ``extend`` frames alike; a
    process that dies mid-trial stops ticking, so the lease expires and
    someone else gets the job.
    """

    def __init__(self, interval_s: float, tick: Callable[[], Any],
                 join_timeout_s: float = 1.0):
        self._interval_s = interval_s
        self._tick = tick
        self._join_timeout_s = join_timeout_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Periodic":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        # Bounded join: a tick stuck inside a wedged sqlite call or socket
        # must not delay the caller past the point where a sibling
        # reclaims the job anyway.  The thread is a daemon; abandon it.
        self._thread.join(timeout=self._join_timeout_s)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            if self._tick() is False:
                return


class TrialWorker:
    """Executes trial-evaluation jobs from a shared database file."""

    def __init__(
        self,
        db_path: Optional[str] = None,
        worker_id: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = IDLE_POLL_S,
        database: Optional[TrialDatabase] = None,
        trial_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        trial_batch: Optional[int] = None,
        jobs_bell: Optional[Doorbell] = None,
        results_bell: Optional[Doorbell] = None,
    ):
        if database is None and db_path is None:
            raise ValueError("TrialWorker needs a db_path or a database")
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.database = database or TrialDatabase(db_path)
        self._owns_database = database is None
        self.queue = JobQueue(self.database)
        self.lease_ttl_s = lease_ttl_s
        self.poll_interval_s = poll_interval_s
        #: Hand-off with the coordinator: wait on ``jobs_bell`` while
        #: idle, ring ``results_bell`` after every job.  The private
        #: defaults make a standalone worker's idle wait a plain tick.
        self.jobs_bell = jobs_bell or Doorbell()
        self.results_bell = results_bell or Doorbell()
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Wall-clock budget per trial; ``None`` disables the deadline.
        self.trial_timeout_s = trial_timeout_s
        self.jobs_done = 0
        self.jobs_failed = 0
        #: Trial artifact cache over the session database.  Exact
        #: memoization is always on (bit-safe); warm-resume activates
        #: only for tasks that carry lineage (``--reuse-checkpoints``).
        self.artifacts = ArtifactStore(self.database)
        #: Machine-registry presence: every worker registers itself with
        #: its host's capability tags so ``service status`` can report
        #: per-machine liveness instead of bare worker PIDs.
        from ..fleet.registry import MachineRegistry, local_capabilities

        self.registry = MachineRegistry(self.database)
        self.registry.register(
            self.worker_id, capabilities=local_capabilities()
        )
        self._machine_touched_at = time.time()
        #: Stacking width K for batched-trial execution.  Opt-in for
        #: queue workers (``None`` falls back to ``$REPRO_TRIAL_BATCH``,
        #: else stays serial): the session spec or the ``--trial-batch``
        #: flag is what turns grouping on service-side.
        self.trial_batch = resolve_trial_batch(trial_batch, default=1)
        self._dataset_cache_last = dataset_cache_stats()

    def _touch_machine(self) -> None:
        """Throttled machine-liveness heartbeat (cheap: one UPDATE at
        most every quarter-TTL, piggybacking on existing loops)."""
        now = time.time()
        if now - self._machine_touched_at >= max(
            0.25, self.lease_ttl_s * HEARTBEAT_FRACTION
        ):
            self.registry.heartbeat(self.worker_id, now=now)
            self._machine_touched_at = now

    def _heartbeat(self, job: Job) -> Periodic:
        """Renews ``job``'s lease (and this machine's liveness) until the
        block exits or the lease is lost — the retry owns the job then."""
        def beat() -> bool:
            renewed = self.queue.heartbeat(
                job.id, self.worker_id, ttl_s=self.lease_ttl_s
            )
            if renewed:
                self._touch_machine()
            return renewed

        return Periodic(
            heartbeat_interval(self.lease_ttl_s, self.heartbeat_interval_s),
            beat, join_timeout_s=min(self.lease_ttl_s, 1.0),
        )

    # -- execution ----------------------------------------------------------
    def run_job(self, job: Job) -> None:
        """Execute one leased job to completion (or record its failure)."""
        with self._heartbeat(job):
            try:
                # Chaos sites: keyed by trial id and gated on the lease
                # attempt, so (by default) the retry of an injected
                # failure runs clean and the session still converges.
                fault_point("worker.crash", key=job.trial_id,
                            attempt=job.attempts)
                fault_point("worker.fail", key=job.trial_id,
                            attempt=job.attempts)
                task = TrialTask.from_json(job.payload)
                blob = self._evaluate(task, job.attempts)
            except Exception:
                self.jobs_failed += 1
                self.queue.fail(
                    job.id, self.worker_id, traceback.format_exc(limit=8)
                )
                return
        if self.queue.complete(job.id, self.worker_id, blob):
            self.jobs_done += 1
            self.registry.record_done(self.worker_id)

    # -- batched execution --------------------------------------------------
    def run_leased(self, job: Job) -> None:
        """Execute a freshly leased job, stacking groupmates when enabled;
        rings the results bell once its verdict rows have committed."""
        try:
            if self.trial_batch <= 1:
                self.run_job(job)
                return
            group = self._form_group(job)
            if len(group) <= 1:
                self.registry.bump("batch.serial_fallback")
                self.run_job(job)
            else:
                self.run_job_group(group)
            self._publish_dataset_cache_stats()
        finally:
            self.results_bell.ring()

    def _form_group(self, head: Job) -> List[Job]:
        """Claim up to K-1 stackable groupmates for an already-leased job.

        Only first-attempt jobs group (retries — including the survivors
        of a failed group — re-run serially, keeping fault-injection and
        dead-letter semantics identical to the serial worker), and only
        when no per-trial deadline is configured (the group shares one
        training loop, which a member-level deadline cannot cut).
        """
        if self.trial_timeout_s is not None or head.attempts != 1:
            return [head]
        try:
            head_task = TrialTask.from_json(head.payload)
            signature = batch_signature(head_task)
        except Exception:
            return [head]
        if signature is None:
            return [head]
        group = [head]
        candidates = self.queue.peek_queued(
            session_id=head.session_id,
            limit=max(16, 4 * self.trial_batch),
        )
        for candidate in candidates:
            if len(group) >= self.trial_batch:
                break
            if candidate.id == head.id or candidate.attempts != 0:
                continue
            try:
                task = TrialTask.from_json(candidate.payload)
                if batch_signature(task) != signature:
                    continue
            except Exception:
                continue
            leased = self.queue.lease_by_id(
                candidate.id, self.worker_id,
                ttl_s=self.lease_ttl_s, fresh_only=True,
            )
            if leased is not None:
                group.append(leased)
        return group

    def run_job_group(self, jobs: List[Job]) -> None:
        """Execute K signature-matched leased jobs as one stacked run.

        Failure containment mirrors the serial worker per member: fault
        sites fire with each member's own key/attempt (an injected crash
        kills the process, every lease expires, and all members retry
        serially); a training error fails *every* member, whose serial
        retries then isolate any poisoned one into the dead-letter queue
        alone.
        """
        completed: List[Tuple[Job, bytes]] = []
        with contextlib.ExitStack() as heartbeats:
            for job in jobs:
                heartbeats.enter_context(self._heartbeat(job))
            live: List[Tuple[Job, TrialTask]] = []
            for job in jobs:
                try:
                    fault_point("worker.crash", key=job.trial_id,
                                attempt=job.attempts)
                    fault_point("worker.fail", key=job.trial_id,
                                attempt=job.attempts)
                    fault_point("worker.hang", key=job.trial_id,
                                attempt=job.attempts)
                    task = TrialTask.from_json(job.payload)
                    blob = self.artifacts.load_result(
                        trial_key(task), count_miss=False
                    )
                    if blob is None:
                        live.append((job, task))
                    else:  # memoized members sit the stack out
                        completed.append((job, blob))
                except Exception:
                    self.jobs_failed += 1
                    self.queue.fail(
                        job.id, self.worker_id,
                        traceback.format_exc(limit=8),
                    )
            if live:
                try:
                    train_set, eval_set = load_task_datasets(live[0][1])
                    outputs = evaluate_trial_batch(
                        [task for _, task in live], train_set, eval_set,
                        artifacts=self.artifacts,
                    )
                    completed.extend([
                        (job, result_blob(*output))
                        for (job, _), output in zip(live, outputs)
                    ])
                except Exception:
                    error = traceback.format_exc(limit=8)
                    for job, _ in live:
                        self.jobs_failed += 1
                        self.queue.fail(job.id, self.worker_id, error)
        for job, blob in completed:
            if self.queue.complete(job.id, self.worker_id, blob):
                self.jobs_done += 1
                self.registry.record_done(self.worker_id)
        # Batch-group occupancy, fleet-wide, for ``service status``.
        self.registry.bump("batch.groups")
        self.registry.bump("batch.members", float(len(jobs)))
        self.registry.bump_max("batch.max_k", float(len(jobs)))

    def _publish_dataset_cache_stats(self) -> None:
        """Push dataset-memo deltas into the shared fleet-stats table."""
        stats = dataset_cache_stats()
        for key in ("hits", "misses", "evictions"):
            delta = stats[key] - self._dataset_cache_last.get(key, 0)
            if delta:
                self.registry.bump(f"dataset_cache.{key}", float(delta))
        self._dataset_cache_last = stats

    def _evaluate(self, task: TrialTask, attempt: int) -> bytes:
        """Run one trial to its result blob, under the wall-clock deadline
        when configured.  A memo hit is passed on as stored bytes; a miss
        is left for :func:`evaluate_trial` to count.  (The coordinator
        probed at issue time; this covers what landed since.)"""

        def execute() -> bytes:
            fault_point("worker.hang", key=task.trial_id, attempt=attempt)
            blob = self.artifacts.load_result(
                trial_key(task), count_miss=False
            )
            if blob is not None:
                return blob
            train_set, eval_set = load_task_datasets(task)
            return result_blob(*evaluate_trial(
                task, train_set, eval_set, artifacts=self.artifacts
            ))

        if self.trial_timeout_s is None:
            return execute()
        return run_with_deadline(
            execute, self.trial_timeout_s, name=f"trial-{task.trial_id}"
        )

    # -- main loop -----------------------------------------------------------
    def run_forever(
        self,
        stop_event: Optional["threading.Event"] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> int:
        """Lease-execute until stopped (or idle past ``idle_timeout_s``).

        Returns the number of jobs completed.  Also moonlights as the
        queue janitor: on every fallback tick nobody rang for, an idle
        worker reclaims expired leases so a crashed sibling's jobs are
        not stuck until the coordinator notices.
        """
        idle_since = time.time()
        while stop_event is None or not stop_event.is_set():
            self._touch_machine()
            job = self.queue.lease(
                self.worker_id, ttl_s=self.lease_ttl_s
            )
            if job is None:
                if (
                    idle_timeout_s is not None
                    and time.time() - idle_since > idle_timeout_s
                ):
                    break
                if not self.jobs_bell.wait(self.poll_interval_s):
                    self.queue.reclaim_expired()
                continue
            self.run_leased(job)
            idle_since = time.time()
        return self.jobs_done

    def close(self) -> None:
        if self._owns_database:
            self.database.close()


def worker_main(
    db_path: str,
    worker_id: Optional[str] = None,
    idle_timeout_s: Optional[float] = None,
    **options: Any,
) -> int:
    """Process entry point for pool workers (importable, hence
    spawn-safe); ``options`` are :class:`TrialWorker` keyword arguments."""
    worker = TrialWorker(db_path, worker_id=worker_id, **options)
    try:
        return worker.run_forever(idle_timeout_s=idle_timeout_s)
    except KeyboardInterrupt:
        return worker.jobs_done
    finally:
        worker.close()
