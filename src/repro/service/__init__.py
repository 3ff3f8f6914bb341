"""Persistent tuning service: job queue, worker pool, crash-safe resume.

The service decomposes a tuning run along the seam built into
:class:`~repro.core.model_server.ModelTuningServer`:

* :mod:`repro.service.spec` — what a session runs (serializable spec);
* :mod:`repro.service.queue` — persistent job queue with leases,
  heartbeats and capped-backoff retries (``jobs`` table);
* :mod:`repro.service.sessions` — session lifecycle + checkpoints
  (``sessions`` table);
* :mod:`repro.service.worker` — processes doing the real numpy training;
* :mod:`repro.service.pool` — multiprocessing worker-pool supervisor;
* :mod:`repro.service.doorbell` — ring/wait wake-ups replacing polls;
* :mod:`repro.service.coordinator` — wave scheduling and the ordered
  merge that keeps N-worker runs bit-identical to 1-worker runs.

CLI: ``python -m repro.service submit|status|workers|resume|gc``.
"""

from .coordinator import SessionCoordinator, serve
from .failures import run_with_deadline
from .pool import WorkerPool
from .queue import DeadLetter, Job, JobQueue, backoff_delay
from .sessions import SessionRecord, SessionStore
from .spec import SERVICE_SYSTEMS, SessionSpec, build_server
from .worker import TrialWorker, worker_main

__all__ = [
    "SessionSpec",
    "SERVICE_SYSTEMS",
    "build_server",
    "DeadLetter",
    "Job",
    "JobQueue",
    "backoff_delay",
    "run_with_deadline",
    "SessionRecord",
    "SessionStore",
    "TrialWorker",
    "worker_main",
    "WorkerPool",
    "SessionCoordinator",
    "serve",
]
