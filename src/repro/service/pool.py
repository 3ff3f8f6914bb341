"""The parallel worker pool: N OS processes pulling from one queue.

``multiprocessing.Process`` rather than a thread pool because the trial
workload is pure-numpy compute — real parallel speed-up needs separate
interpreters.  The pool is supervision-light by design: workers share
nothing with the parent but the database path and the hand-off doorbells
(:mod:`repro.service.doorbell`), crashes are tolerated (the queue reclaims
their leases), and :meth:`WorkerPool.ensure_alive` simply respawns
replacements.
"""

from __future__ import annotations

import logging
import multiprocessing
from typing import List, Optional

from .doorbell import Doorbell, Doorbells
from .queue import DEFAULT_LEASE_TTL_S
from .worker import IDLE_POLL_S, worker_main

logger = logging.getLogger(__name__)


class ProcessPool:
    """``size`` supervised daemon processes, one per slot.

    Subclasses say what a slot runs (:meth:`_spawn_one`); spawning,
    respawning the dead and the escalating shutdown are shared with the
    fleet's :class:`~repro.fleet.host.HostPool`.
    """

    def __init__(self, size: int, what: str):
        if size < 1:
            raise ValueError(f"{what} pool needs >= 1 {what}s, got {size}")
        self.size = size
        self._processes: List[multiprocessing.Process] = []

    def _spawn_one(self, slot: int) -> multiprocessing.Process:
        raise NotImplementedError

    def start(self):
        while len(self._processes) < self.size:
            self._processes.append(self._spawn_one(len(self._processes)))
        return self

    def ensure_alive(self) -> int:
        """Replace dead processes; returns how many were respawned."""
        respawned = 0
        for slot, process in enumerate(self._processes):
            if not process.is_alive():
                self._processes[slot] = self._spawn_one(slot)
                respawned += 1
        return respawned

    def alive(self) -> int:
        return sum(1 for p in self._processes if p.is_alive())

    def stop(self, timeout_s: float = 5.0) -> None:
        """Terminate every process (leases they held will be reclaimed).

        Idempotent: the process list is detached up front, so a second
        ``stop`` (coordinator teardown racing ``__exit__``, for example)
        is a no-op — and an exception mid-shutdown can never terminate
        the same process twice.

        Escalates SIGTERM -> SIGKILL; a process that survives even the
        kill (unkillable D-state) is logged and abandoned rather than
        blocking shutdown forever — its lease expires and the job is
        retried elsewhere.
        """
        processes, self._processes = self._processes, []
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=timeout_s)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeout_s)
            if process.is_alive():
                logger.warning(
                    "%s (pid %s) survived SIGKILL; abandoning it",
                    process.name, process.pid,
                )

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def pids(self) -> List[Optional[int]]:
        return [p.pid for p in self._processes]


class WorkerPool(ProcessPool):
    """Spawns and supervises trial-evaluation worker processes."""

    def __init__(
        self,
        db_path: str,
        workers: int,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = IDLE_POLL_S,
        name_prefix: str = "worker",
        trial_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        trial_batch: Optional[int] = None,
    ):
        super().__init__(workers, "worker")
        self.db_path = db_path
        self.lease_ttl_s = lease_ttl_s
        self.poll_interval_s = poll_interval_s
        self.name_prefix = name_prefix
        self.trial_timeout_s = trial_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.trial_batch = trial_batch
        #: Rung by the coordinator once enqueued jobs have committed; one
        #: bell per worker slot (a respawned worker inherits its slot's).
        self.jobs_bell = Doorbells()
        self._slot_bells = [self.jobs_bell.add() for _ in range(workers)]
        #: Rung by a worker once a result row has committed.
        self.results_bell = Doorbell()
        self._spawned = 0

    def _spawn_one(self, slot: int) -> multiprocessing.Process:
        self._spawned += 1
        worker_id = f"{self.name_prefix}-{self._spawned}"
        process = multiprocessing.Process(
            target=worker_main,
            args=(self.db_path, worker_id),
            kwargs={
                "lease_ttl_s": self.lease_ttl_s,
                "poll_interval_s": self.poll_interval_s,
                "trial_timeout_s": self.trial_timeout_s,
                "heartbeat_interval_s": self.heartbeat_interval_s,
                "trial_batch": self.trial_batch,
                "jobs_bell": self._slot_bells[slot],
                "results_bell": self.results_bell,
            },
            name=worker_id,
            daemon=True,
        )
        process.start()
        return process
