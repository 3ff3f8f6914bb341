"""Trial-evaluation workers: the one executor that does the real training.

A :class:`TrialWorker` leases jobs from a *job source* — ``lease(wait_s,
stop)`` (``None`` once up to ``wait_s`` has passed), ``renew(job)``,
``complete(job, blob)``, ``fail(job, error)`` and ``touch(counters)``
(machine liveness, carrying dataset-memo counter deltas).
:class:`LocalJobs` is the source over a shared database file; a fleet
host runs the same worker over the hub (:mod:`repro.fleet.host`).  Per
job the worker renews the lease on a :class:`Periodic` (a worker killed
mid-trial stops renewing, so its job is reclaimed and retried), serves a
trial its artifact store already holds, or else trains it via
:func:`~repro.core.model_server.evaluate_trial` under the optional
deadline, and completes the job with the result blob or fails it with
the traceback.

Workers are stateless by design: every piece of information needed to run
a job travels inside the job payload, which is what makes retries after a
crash bit-identical.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional

from ..artifacts import ArtifactStore, pack_result, trial_key
from ..core.model_server import (
    TrialTask,
    dataset_cache_stats,
    evaluate_trial,
    load_task_datasets,
)
from ..faults import fault_point
from ..storage import TrialDatabase
from .doorbell import Doorbell
from .failures import run_with_deadline
from .queue import DEFAULT_LEASE_TTL_S, Job, JobQueue, _env_float

#: An idle worker's fallback tick (its longest unrung wait), seconds.
IDLE_POLL_S = 0.05

#: Lease renewal and machine touch periods as a fraction of their TTL.
HEARTBEAT_FRACTION = 0.25

#: Explicit lease-renewal period (``None``: a fraction of the TTL), from
#: ``$REPRO_HEARTBEAT_INTERVAL_S`` (per run: ``--heartbeat-interval``).
DEFAULT_HEARTBEAT_INTERVAL_S: Optional[float] = (
    _env_float("REPRO_HEARTBEAT_INTERVAL_S", 0.0) or None
)

#: The dataset-memo counters a worker publishes with its touch.
DATASET_CACHE_KEYS = ("hits", "misses", "evictions")


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
    the ``with`` block runs, or until ``tick`` returns ``False`` — the
    executor's one timer, renewing a job's lease whatever its source."""

    def __init__(self, interval_s: float, tick: Callable[[], Any],
                 join_timeout_s: float = 1.0):
        self._stop = threading.Event()
        self._join_timeout_s = join_timeout_s

        def run() -> None:
            while not self._stop.wait(interval_s) and tick() is not False:
                pass

        self._thread = threading.Thread(target=run, daemon=True)

    def __enter__(self) -> "Periodic":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        # Bounded join: a tick stuck in a wedged sqlite call or socket is
        # abandoned (a daemon) rather than outlive a sibling's reclaim.
        self._thread.join(timeout=self._join_timeout_s)


class LocalJobs:
    """The local job source: a shared database's :class:`JobQueue`, with
    leases owned by ``owner``, and its machine registry."""

    def __init__(self, database: TrialDatabase, owner: str,
                 lease_ttl_s: float, jobs_bell: Doorbell):
        from ..fleet.registry import MachineRegistry, local_capabilities

        self.queue = JobQueue(database)
        #: ``service status`` reports per-machine liveness from here.
        self.registry = MachineRegistry(database)
        self.registry.register(owner, capabilities=local_capabilities())
        self.owner = owner
        self.lease_ttl_s = lease_ttl_s
        #: Rung by the coordinator once enqueued jobs have committed.
        self.jobs_bell = jobs_bell
        self.touch_interval_s = max(0.25, lease_ttl_s * HEARTBEAT_FRACTION)

    def lease(self, wait_s: float, stop: threading.Event) -> Optional[Job]:
        """The oldest runnable job, else a wait on the jobs bell; on a tick
        nobody rang for, reclaim expired leases (a crashed sibling's jobs
        need not wait for the coordinator to notice)."""
        job = self.queue.lease(self.owner, ttl_s=self.lease_ttl_s)
        if job is None and not self.jobs_bell.wait(wait_s):
            self.queue.reclaim_expired()
        return job

    def renew(self, job: Job) -> bool:
        return self.queue.heartbeat(job.id, self.owner, ttl_s=self.lease_ttl_s)

    def complete(self, job: Job, blob: bytes) -> bool:
        if not self.queue.complete(job.id, self.owner, blob):
            return False
        self.registry.record_done(self.owner)
        return True

    def fail(self, job: Job, error: str) -> None:
        self.queue.fail(job.id, self.owner, error)

    def touch(self, counters: Dict[str, float]) -> bool:
        self.registry.heartbeat(self.owner)
        self.registry.database.bump_stats({
            f"dataset_cache.{key}": delta for key, delta in counters.items()
        })
        return True


class TrialWorker:
    """Executes trial-evaluation jobs from a job source — by default the
    local queue of a shared database file."""

    def __init__(
        self,
        db_path: Optional[str] = None,
        worker_id: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = IDLE_POLL_S,
        database: Optional[TrialDatabase] = None,
        trial_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        jobs_bell: Optional[Doorbell] = None,
        results_bell: Optional[Doorbell] = None,
    ):
        if database is None and db_path is None:
            raise ValueError("TrialWorker needs a db_path or a database")
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.database = database or TrialDatabase(db_path)
        self._owns_database = database is None
        self.poll_interval_s = poll_interval_s
        #: Rung after every job (private defaults: plain ticks).
        self.results_bell = results_bell or Doorbell()
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Wall-clock budget per trial; ``None`` disables the deadline.
        self.trial_timeout_s = trial_timeout_s
        self.jobs_done = 0
        self.jobs_failed = 0
        #: Exact memoization is always on (bit-safe); warm-resume only for
        #: tasks that carry lineage (``--reuse-checkpoints``).
        self.artifacts = ArtifactStore(self.database)
        self.source = self._job_source(lease_ttl_s, jobs_bell or Doorbell())
        self._machine_touched_at = time.time()
        #: Dataset-memo counters as last published (the lock: both the
        #: main loop and a job's renewal thread touch the machine).
        self._dataset_cache_last = dataset_cache_stats()
        self._dataset_cache_lock = threading.Lock()

    def _job_source(self, lease_ttl_s: float, jobs_bell: Doorbell) -> Any:
        """Where this worker's jobs come from: its database's own queue (a
        fleet host's come from the hub)."""
        return LocalJobs(self.database, self.worker_id, lease_ttl_s, jobs_bell)

    def _touch_machine(self) -> None:
        """Throttled touch, piggybacking on the lease and renewal loops."""
        now = time.time()
        if now - self._machine_touched_at >= self.source.touch_interval_s:
            self._machine_touched_at = now
            self._publish_dataset_cache_stats(touch=True)

    def _publish_dataset_cache_stats(self, touch: bool = False) -> None:
        """Send the dataset-memo deltas since the last accepted send with
        a touch (``touch``: also when there are none); a source that
        could not deliver them gets them again next time."""
        with self._dataset_cache_lock:
            stats = dataset_cache_stats()
            deltas = {
                key: float(stats[key] - self._dataset_cache_last[key])
                for key in DATASET_CACHE_KEYS
                if stats[key] != self._dataset_cache_last[key]
            }
            if (deltas or touch) and self.source.touch(deltas):
                self._dataset_cache_last = stats

    # -- execution ----------------------------------------------------------
    def run_job(self, job: Job) -> None:
        """Execute one leased job to completion (or record its failure),
        renewing its lease (and touching the machine) meanwhile; a lost
        lease stops the renewals — the retry owns the job then."""
        def renew() -> bool:
            renewed = self.source.renew(job)
            if renewed:
                self._touch_machine()
            return renewed

        ttl_s = self.source.lease_ttl_s
        with Periodic(heartbeat_interval(ttl_s, self.heartbeat_interval_s),
                      renew, join_timeout_s=min(ttl_s, 1.0)):
            try:
                # Chaos sites, keyed by trial and gated on the attempt: the
                # retry of an injected failure runs clean by default.
                fault_point("worker.crash", key=job.trial_id,
                            attempt=job.attempts)
                fault_point("worker.fail", key=job.trial_id,
                            attempt=job.attempts)
                task = TrialTask.from_json(job.payload)
                blob = self._evaluate(task, job.attempts)
            except Exception:
                self.jobs_failed += 1
                self.source.fail(job, traceback.format_exc(limit=8))
                return
        if self.source.complete(job, blob):
            self.jobs_done += 1

    def run_leased(self, job: Job) -> None:
        """Execute a freshly leased job; rings the results bell once its
        verdict rows have committed."""
        try:
            self.run_job(job)
        finally:
            self.results_bell.ring()

    def _evaluate(self, task: TrialTask, attempt: int) -> bytes:
        """One trial's result blob, under the deadline when configured.  A
        memo hit (landed since the coordinator's probe at issue) is passed
        on as stored bytes; a miss is left for :func:`evaluate_trial` to
        count.  A warm resume's parent that the local store lacks is
        fetched the same way before training, so a child resumes
        whichever host ran its parent."""

        def execute() -> bytes:
            fault_point("worker.hang", key=task.trial_id, attempt=attempt)
            key = trial_key(task)
            blob = self.artifacts.load_result(key, count_miss=False)
            if blob is None and self._prefetch(task, key):
                blob = self.artifacts.load_result(key, count_miss=False)
            if blob is not None:
                return blob
            parent = task.parent_key if task.reuse else None
            if parent is not None and not self.artifacts.contains(parent):
                # A warm resume whose parent ran elsewhere (a fleet host).
                self._prefetch(task, parent)
            train_set, eval_set = load_task_datasets(task)
            blob = result_blob(*evaluate_trial(
                task, train_set, eval_set, artifacts=self.artifacts
            ))
            self._publish(task, key)
            return blob

        if self.trial_timeout_s is None:
            return execute()
        return run_with_deadline(
            execute, self.trial_timeout_s, name=f"trial-{task.trial_id}"
        )

    def _prefetch(self, task: TrialTask, key: str) -> bool:
        """Install ``key`` from elsewhere (a fleet host asks the hub)."""
        return False

    def _publish(self, task: TrialTask, key: str) -> None:
        """Share a cold run's artifact (a fleet host uploads it)."""

    # -- main loop -----------------------------------------------------------
    def run_forever(
        self,
        stop_event: Optional["threading.Event"] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> int:
        """Lease-execute until stopped (or idle past ``idle_timeout_s``);
        returns the jobs completed.  An empty ``lease`` takes one fallback
        tick (``poll_interval_s``)."""
        stop = stop_event or threading.Event()
        idle_since = time.time()
        while not stop.is_set():
            self._touch_machine()
            job = self.source.lease(self.poll_interval_s, stop)
            if job is not None:
                self.run_leased(job)
                idle_since = time.time()
            elif (
                idle_timeout_s is not None
                and time.time() - idle_since > idle_timeout_s
            ):
                break
        return self.jobs_done

    def close(self) -> None:
        """Publish the last dataset-memo counters, then let go of the
        database (if this worker opened it)."""
        self._publish_dataset_cache_stats()
        if self._owns_database:
            self.database.close()


def serve_worker(worker: TrialWorker) -> int:
    """Run ``worker`` as its process's main loop.  A pool stops it with
    SIGTERM, which unwinds like an interrupt here, so
    :meth:`TrialWorker.close` still publishes the counters."""
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return worker.run_forever()
    except KeyboardInterrupt:
        return worker.jobs_done
    finally:
        worker.close()


def worker_main(
    db_path: str, worker_id: Optional[str] = None, **options: Any
) -> int:
    """Process entry point for pool workers (importable, hence
    spawn-safe); ``options`` are :class:`TrialWorker` keyword arguments."""
    return serve_worker(TrialWorker(db_path, worker_id=worker_id, **options))
