"""The remote worker host: a separate process (machine) serving the fleet.

A fleet host is the service's one executor, a
:class:`~repro.service.worker.TrialWorker`, on its own isolated database
and artifact store, whose job source is the hub.  :class:`HubJobs` maps
the worker's lease / renew / complete / fail / touch onto the hub's
``lease`` (a long poll), ``extend``, ``complete``, ``fail`` and
``heartbeat`` frames, and holds what only a remote source needs:
registration, epoch fencing and ``resync`` (a restarted hub fences our
frames until :meth:`HubJobs.recover`), :meth:`HubJobs.call_healing`,
held-lease tracking and the artifact federation — a cold run is
published to the hub, and a trial the hub gained after issuing the job
(another host's upload from a concurrent session) is prefetched rather
than trained again.  ``fleet.stale_lease`` stops one job's renewals;
``fleet.partition`` and ``fleet.reconnect_storm`` fire inside
:class:`~repro.fleet.client.FleetClient`.
"""

from __future__ import annotations

import logging
import os
import threading
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple

from .. import clock
from ..artifacts import ArtifactStore, artifact_checksum
from ..core.model_server import TrialTask
from ..errors import FleetError
from ..faults import should
from ..service.pool import ProcessPool
from ..service.worker import (
    HEARTBEAT_FRACTION, IDLE_POLL_S, TrialWorker, serve_worker,
)
from .client import FleetClient
from .registry import local_capabilities
from .wire import pack_bytes, unpack_bytes

logger = logging.getLogger(__name__)

#: Hosts retry deeper than the default client: with capped backoff this
#: rides out a several-second hub restart instead of shedding work.
HOST_RETRIES = 8
HOST_BACKOFF_S = 0.1

#: The host's worker name: its leases are owned by ``<machine>/w0``.
WORKER = "w0"

#: Ops that must carry the registration epoch so a restarted hub can
#: fence writes granted by its previous incarnation.
_EPOCH_OPS = frozenset({"lease", "extend", "complete", "fail", "artifact_put"})


class HubJobs:
    """A fleet host's job source: the hub, over one dispatch connection."""

    def __init__(self, machine_id: str, server_host: str, server_port: int):
        self.machine_id = machine_id
        self.client = FleetClient(
            server_host, server_port,
            retries=HOST_RETRIES, backoff_s=HOST_BACKOFF_S,
        )
        #: One socket, one line protocol: the worker's main loop and its
        #: renewal thread take turns.
        self._client_lock = threading.Lock()
        #: Lease terms and hub incarnation (0: not registered yet).
        self.lease_ttl_s = 10.0
        self.touch_interval_s = 30.0 * HEARTBEAT_FRACTION
        self.epoch = 0
        self.federation_hits = 0
        self.federation_uploads = 0
        #: Ids of the leases held now (resynced after a fenced rejection).
        self._held: set = set()

    # -- protocol ------------------------------------------------------------
    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        """One dispatch request with this machine's identity attached."""
        if op in _EPOCH_OPS and "epoch" not in params:
            params["epoch"] = self.epoch
        with self._client_lock:
            return self.client.request(
                op, machine_id=self.machine_id, **params
            )

    def call_healing(self, op: str, **params: Any) -> Dict[str, Any]:
        """:meth:`call`; a ``fenced`` rejection (the hub restarted since we
        registered) is healed by :meth:`recover` and the frame retried
        once, under the new epoch."""
        response = self.call(op, **params)
        if not response.get("ok") and response.get("fenced"):
            if not self._recovered():
                return response
            response = self.call(op, **params)
        return response

    def register(self) -> None:
        response = self.call("register", capabilities=local_capabilities())
        if not response.get("ok"):
            raise FleetError(
                f"registration refused: {response.get('error')}"
            )
        self.lease_ttl_s = float(response["lease_ttl_s"])
        self.touch_interval_s = max(
            0.05, float(response["machine_ttl_s"]) * HEARTBEAT_FRACTION
        )
        self.epoch = int(response.get("epoch", 0))

    def recover(self) -> None:
        """Re-register (adopting the new epoch), then resync every held
        lease.  Leases the hub reclaimed meanwhile are dropped: their
        attempts are wasted work whose ``complete`` the hub will reject,
        exactly as a zombie's would be."""
        self.register()
        held = {str(job_id): WORKER for job_id in set(self._held)}
        if not held:
            return
        response = self.call("resync", held=held)
        dropped = response.get("dropped") or [] if response.get("ok") else []
        self._held.difference_update(int(job_id) for job_id in dropped)
        if dropped:
            logger.warning("hub restart: leases %s were reclaimed while we "
                           "were fenced (epoch %d)", dropped, self.epoch)

    def _recovered(self) -> bool:
        try:
            self.recover()
            return True
        except FleetError:
            return False  # still unreachable: the next frame tries again

    # -- the job-source verbs ------------------------------------------------
    def lease(self, wait_s: float, stop: threading.Event) -> Optional[Any]:
        """Long-poll the hub: it holds an empty ``lease`` for up to
        ``wait_s`` (one tick) and answers the moment a job is enqueued.
        The rest of the tick is slept out here — nothing when the hub
        held the request, all of it when the answer came at once (a
        rejection, a partition)."""
        if not self.epoch:
            self.register()  # the first lease: join the fleet
        asked_at = clock.monotonic()
        try:
            response = self.call("lease", worker=WORKER, wait_s=wait_s)
        except FleetError:
            response = {"ok": False, "error": "unreachable"}
        frame = response.get("job") if response.get("ok") else None
        if response.get("reregister"):
            # Declared dead (and revived), or fenced by a restarted hub.
            self._recovered()
        if frame is None:
            stop.wait(max(0.0, wait_s - (clock.monotonic() - asked_at)))
            return None
        self._held.add(int(frame["id"]))
        return SimpleNamespace(**frame)

    def renew(self, job: Any) -> bool:
        # ``fleet.stale_lease``: pretend to extend but never do.
        if should("fleet.stale_lease", key=job.trial_id,
                  attempt=job.attempts):
            return True
        try:
            # Healing: a hub restart mid-trial must not cost the lease.
            response = self.call_healing(
                "extend", job_id=job.id, worker=WORKER
            )
        except FleetError:
            return True  # partition: keep trying until stopped
        # Answered but not renewed: lease lost, the retry owns the job.
        return bool(not response.get("ok") or response.get("renewed"))

    def complete(self, job: Any, blob: bytes) -> bool:
        try:
            # Healing matters most here: this frame may replay a result
            # whose first send raced a hub crash; the hub acknowledges
            # the duplicate without writing, so it lands exactly once.
            response = self.call_healing(
                "complete", job_id=job.id, worker=WORKER,
                result=pack_bytes(blob),
            )
        except FleetError:
            return False  # lost to the partition; the retry recomputes
        finally:
            self._held.discard(job.id)
        return bool(response.get("ok") and response.get("accepted"))

    def fail(self, job: Any, error: str) -> None:
        try:
            self.call_healing("fail", job_id=job.id, worker=WORKER,
                              error=error)
        except FleetError:
            pass  # lease expiry will requeue the job
        finally:
            self._held.discard(job.id)

    def touch(self, counters: Dict[str, float]) -> bool:
        """Machine heartbeat; non-zero dataset-memo deltas ride along."""
        extra = {"dataset_cache": counters} if counters else {}
        try:
            response = self.call("heartbeat", **extra)
        except FleetError:
            return False  # partition: the lease loop keeps retrying
        if response.get("reregister"):
            self._recovered()
        return bool(response.get("ok"))

    # -- artifact federation -------------------------------------------------
    def prefetch(self, task: TrialTask, key: str,
                 artifacts: ArtifactStore) -> bool:
        """Install ``key`` from the hub's store into ``artifacts``;
        ``False`` when the fleet has never run this trial, the hub cannot
        be asked, or the transfer fails its checksum — a cold run is due."""
        try:
            response = self.call("artifact_get", key=key)
        except FleetError:
            return False
        payload = unpack_bytes(response.get("payload"))
        if payload is None:
            return False
        claimed = response.get("checksum")
        if claimed is not None and artifact_checksum(payload) != claimed:
            # Strictly safer to train than to warm-start from damage.
            artifacts.database.bump_stats({"federation.checksum_rejects": 1})
            logger.warning("federated artifact %s failed checksum "
                           "verification; falling back to a cold run", key)
            return False
        artifacts.put(
            key, payload, workload=task.workload_id,
            trial_id=task.trial_id, epochs=task.epochs,
            data_fraction=task.data_fraction,
        )
        self.federation_hits += 1
        return True

    def publish(self, task: TrialTask, key: str,
                artifacts: ArtifactStore) -> None:
        """Upload a cold-run artifact so no other machine re-runs it."""
        payload = artifacts.get(key, count_miss=False)
        if payload is None:
            return  # evaluation was not cached locally (no store row)
        try:
            response = self.call_healing(
                "artifact_put", key=key, payload=pack_bytes(payload),
                checksum=artifact_checksum(payload),
                workload=task.workload_id, trial_id=task.trial_id,
                epochs=task.epochs, data_fraction=task.data_fraction,
            )
            problem = None if response.get("ok") else response.get("error")
        except FleetError as error:
            problem = error
        if problem is None:
            self.federation_uploads += 1
            return
        # Best effort (the result still reaches the hub), never silent:
        # a lost upload costs the fleet a duplicated cold run elsewhere.
        artifacts.database.bump_stats({"federation.upload_failures": 1})
        logger.warning("artifact upload for %s failed: %s", key, problem)


class RemoteHost(TrialWorker):
    """One fleet machine: a :class:`TrialWorker` on its own database file
    whose job source is the hub."""

    #: The job source's class (a test substitutes its own).
    hub_class = HubJobs

    hold_artifact_rows = False

    def __init__(
        self,
        machine_id: str,
        server_host: str = "127.0.0.1",
        server_port: int = 0,
        db_path: str = ":memory:",
        poll_interval_s: float = IDLE_POLL_S,
        trial_timeout_s: Optional[float] = None,
    ):
        self.hub = self.hub_class(machine_id, server_host, server_port)
        super().__init__(
            db_path, worker_id=machine_id, poll_interval_s=poll_interval_s,
            trial_timeout_s=trial_timeout_s,
        )

    def _job_source(self, lease_ttl_s: float, jobs_bell: Any) -> HubJobs:
        return self.hub

    def _prefetch(self, task: TrialTask, key: str) -> bool:
        return self.hub.prefetch(task, key, self.artifacts)

    def _publish(self, task: TrialTask, key: str) -> None:
        self.hub.publish(task, key, self.artifacts)

    #: Host execution under the name the session benchmark traces; the
    #: worker itself calls :meth:`run_job`.
    _execute_job = TrialWorker.run_job

    def close(self) -> None:
        """Flush the last counters on a fresh connection, once — the hub
        may already be gone — then close."""
        self.hub.client.close()
        self.hub.client.retries = 0
        super().close()
        self.hub.client.close()


def host_main(
    machine_id: str, server_host: str, server_port: int, db_path: str
) -> int:
    """Process entry point for fleet hosts (importable, hence spawn-safe)."""
    return serve_worker(
        RemoteHost(machine_id, server_host, server_port, db_path)
    )


class HostPool(ProcessPool):
    """N remote-host processes (tests, CI, demos), each on its own
    ``machine-<n>.db`` under ``base_dir``.  A supervisor thread respawns
    a host that dies (``worker.crash`` kills them for real) under the
    *same* machine id, so it rejoins as the same machine."""

    def __init__(
        self, server_host: str, server_port: int, base_dir: str,
        hosts: int = 2,
    ):
        super().__init__(hosts, "host", host_main)
        self.server = (server_host, int(server_port))
        self.base_dir = base_dir
        self._supervisor: Optional[clock.Periodic] = None

    def _slot(self, slot: int) -> Tuple[str, tuple, Dict[str, Any]]:
        machine_id = f"machine-{slot + 1}"
        path = os.path.join(self.base_dir, f"{machine_id}.db")
        return machine_id, (machine_id, *self.server, path), {}

    def start(self) -> "HostPool":
        super().start()
        self._supervisor = clock.Periodic(0.1, self.ensure_alive).start()
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        if self._supervisor is not None:
            self._supervisor.stop()
        super().stop(timeout_s)
