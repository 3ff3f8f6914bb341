"""Process pools: N OS processes, each running one trial executor.

Processes, not threads: the trial workload is pure-numpy compute.  A
:class:`ProcessPool` only spawns, respawns and stops; each slot runs an
entry point wrapping a :class:`~repro.service.worker.TrialWorker` —
:func:`worker_main` here, :func:`~repro.fleet.host.host_main` in the
fleet's :class:`~repro.fleet.host.HostPool`.  Workers share nothing with
the parent but the database path and the hand-off doorbells
(:mod:`repro.service.doorbell`); a crashed one's leases are reclaimed
and :meth:`ProcessPool.ensure_alive` respawns it.
"""

from __future__ import annotations

import logging
import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Tuple

from .doorbell import Doorbell, Doorbells
from .queue import DEFAULT_LEASE_TTL_S
from .worker import IDLE_POLL_S, worker_main

logger = logging.getLogger(__name__)


class ProcessPool:
    """``size`` supervised daemon processes running ``target``, one per
    slot; subclasses name each slot's process and arguments
    (:meth:`_slot`)."""

    def __init__(self, size: int, what: str, target: Callable[..., Any]):
        if size < 1:
            raise ValueError(f"{what} pool needs >= 1 {what}s, got {size}")
        self.size = size
        self.target = target
        #: The live process of each slot, in slot order.
        self.processes: List[multiprocessing.Process] = []

    def _slot(self, slot: int) -> Tuple[str, tuple, Dict[str, Any]]:
        """``(process name, args, kwargs)`` for a (re)spawn of ``slot``."""
        raise NotImplementedError

    def _spawn_one(self, slot: int) -> multiprocessing.Process:
        name, args, kwargs = self._slot(slot)
        process = multiprocessing.Process(
            target=self.target, args=args, kwargs=kwargs, name=name,
            daemon=True,
        )
        process.start()
        return process

    def start(self):
        while len(self.processes) < self.size:
            self.processes.append(self._spawn_one(len(self.processes)))
        return self

    def ensure_alive(self) -> int:
        """Replace dead processes; returns how many were respawned."""
        respawned = 0
        for slot, process in enumerate(self.processes):
            if not process.is_alive():
                self.processes[slot] = self._spawn_one(slot)
                respawned += 1
        return respawned

    def alive(self) -> int:
        return sum(1 for p in self.processes if p.is_alive())

    def stop(self, timeout_s: float = 5.0) -> None:
        """Terminate every process (their leases will be reclaimed);
        idempotent.  Escalates SIGTERM -> SIGKILL, and a process that
        survives even that (D-state) is logged and abandoned."""
        processes, self.processes = self.processes, []
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


class WorkerPool(ProcessPool):
    """Spawns and supervises trial-evaluation worker processes."""

    def __init__(
        self,
        db_path: str,
        workers: int,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = IDLE_POLL_S,
        trial_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
    ):
        super().__init__(workers, "worker", worker_main)
        self.db_path = db_path
        #: Rung by the coordinator once enqueued jobs have committed; one
        #: bell per worker slot (a respawned worker inherits its slot's).
        self.jobs_bell = Doorbells()
        self._slot_bells = [self.jobs_bell.add() for _ in range(workers)]
        #: Rung by a worker once a result row has committed.
        self.results_bell = Doorbell()
        self._options = dict(
            lease_ttl_s=lease_ttl_s, poll_interval_s=poll_interval_s,
            trial_timeout_s=trial_timeout_s,
            heartbeat_interval_s=heartbeat_interval_s,
            results_bell=self.results_bell,
        )
        self._spawned = 0

    def _slot(self, slot: int) -> Tuple[str, tuple, Dict[str, Any]]:
        self._spawned += 1
        worker_id = f"worker-{self._spawned}"
        return worker_id, (self.db_path, worker_id), dict(
            self._options, jobs_bell=self._slot_bells[slot]
        )
