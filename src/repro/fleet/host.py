"""The remote worker host: a separate process (machine) serving the fleet.

A :class:`RemoteHost` is everything one fleet member runs: its own
*isolated* trial database and artifact store (nothing is shared with the
coordinator but the TCP connection), a dispatch loop leasing jobs from
its shard, and the artifact-federation shim that checks the
coordinator's cache before paying for a cold run.

Execution path per job::

    lease (long poll) → local memo probe → [federation prefetch] →
    evaluate_trial → [publish] → complete

A leased job is one the hub's own store could not answer at issue time:
the local probe covers what this host holds and the hub lacks (a lost
upload), the prefetch what the hub gained since.  Either hit completes
the job with the stored bytes — one counted read, no model unpickled.

``evaluate_trial`` is pure given the task (all seeds travel inside it),
so a trial runs bit-identically on any machine — which is what makes the
fleet's results mergeable by the coordinator's wave-ordered integrator
without any cross-host coordination.

Chaos sites (all deterministic, via ``$REPRO_FAULTS``):

* ``fleet.dead_host`` — the whole host process dies mid-lease
  (``os._exit``), exercising dead-host detection and lease draining;
* ``fleet.partition`` — fires inside :class:`~repro.fleet.client
  .FleetClient`: the dispatch connection is severed and must
  reconnect-resync;
* ``fleet.stale_lease`` — this host silently stops extending one job's
  lease, exercising expiry and re-acquisition by someone else;
* ``fleet.reconnect_storm`` — fires inside the client: every request
  rides a fresh TCP connection (clean churn, no lost bytes).

Hub restarts heal automatically: every mutation frame carries the epoch
this host registered under, and a ``fenced`` rejection (the hub died and
came back with a new incarnation) triggers :meth:`RemoteHost.recover` —
re-register, ``resync`` the held leases under the new epoch, retry the
frame.  Leases the new hub no longer recognises are dropped on the
floor; the queue's retry owns those outcomes.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
from typing import Any, Dict, List, Optional

from ..artifacts import ArtifactStore, artifact_checksum, trial_key
from ..core.model_server import TrialTask, evaluate_trial
from ..errors import FleetError
from ..faults import fault_point, should
from ..service.pool import ProcessPool
from ..service.worker import Periodic, result_blob
from ..storage import TrialDatabase
from .client import FleetClient
from .registry import MachineRegistry, local_capabilities
from .wire import pack_bytes, unpack_bytes

logger = logging.getLogger(__name__)

#: An idle host's tick, seconds: how long it asks the hub to hold an
#: empty ``lease`` (``wait_s``), and the pause between leases against a
#: hub that answers sooner.
IDLE_POLL_S = 0.05

#: Lease-extension period as a fraction of the granted TTL.
EXTEND_FRACTION = 0.25

#: Hosts retry deeper than the default client: with capped backoff this
#: rides out a several-second hub restart instead of shedding work.
HOST_RETRIES = 8
HOST_BACKOFF_S = 0.1

#: Ops that must carry the registration epoch so a restarted hub can
#: fence writes granted by its previous incarnation.
_EPOCH_OPS = frozenset(
    {"lease", "extend", "complete", "fail", "artifact_put"}
)


class RemoteHost:
    """One fleet machine: isolated storage plus the dispatch loop."""

    def __init__(
        self,
        machine_id: str,
        server_host: str = "127.0.0.1",
        server_port: int = 0,
        db_path: str = ":memory:",
        poll_interval_s: float = IDLE_POLL_S,
        worker_name: str = "w0",
    ):
        self.machine_id = machine_id
        self.worker_name = worker_name
        self.client = FleetClient(
            server_host, server_port,
            retries=HOST_RETRIES, backoff_s=HOST_BACKOFF_S,
        )
        #: Serializes dispatch-connection use between the main loop and
        #: the lease-extender thread (one socket, one line protocol).
        self._client_lock = threading.Lock()
        self.database = TrialDatabase(db_path)
        self.artifacts = ArtifactStore(self.database)
        #: This host's *local* crash-safe counters (its database is
        #: isolated from the hub's, so hub-unreachable events must be
        #: accounted here to be visible at all).
        self._local_stats = MachineRegistry(self.database)
        self.poll_interval_s = poll_interval_s
        self.shard: Optional[int] = None
        self.lease_ttl_s: float = 10.0
        self.machine_ttl_s: float = 30.0
        #: The hub incarnation this host registered under; stamped on
        #: every mutation frame so a restarted hub can fence us until we
        #: :meth:`recover`.
        self.epoch = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        #: Federation accounting, host side.
        self.federation_hits = 0
        self.federation_uploads = 0
        self.federation_upload_failures = 0
        self._heartbeat_at = 0.0
        #: Leases currently held: job id → worker name (resynced against
        #: the hub after a fenced rejection).
        self._held: Dict[int, str] = {}
        self._held_lock = threading.Lock()

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
        """:meth:`call`, healing a fenced rejection in place.

        ``fenced`` means the hub restarted since we registered: recover
        (re-register + resync held leases under the new epoch) and retry
        the frame once — it picks up the new epoch automatically.
        """
        response = self.call(op, **params)
        if not response.get("ok") and response.get("fenced"):
            try:
                self.recover()
            except FleetError:
                return response
            response = self.call(op, **params)
        return response

    def register(self) -> Dict[str, Any]:
        response = self.call(
            "register", capabilities=local_capabilities()
        )
        if not response.get("ok"):
            raise FleetError(
                f"registration refused: {response.get('error')}"
            )
        self.shard = int(response["shard"])
        self.lease_ttl_s = float(response["lease_ttl_s"])
        self.machine_ttl_s = float(response["machine_ttl_s"])
        self.epoch = int(response.get("epoch", 0))
        self._heartbeat_at = time.time()
        return response

    def recover(self) -> List[int]:
        """Heal this host after a hub restart.

        Re-registers (adopting the new incarnation epoch), then resyncs
        every lease this host still believes it holds.  Leases the hub
        reclaimed in the interim are dropped from the held set and
        returned — their in-flight attempts are wasted work whose
        ``complete`` the hub will reject, exactly as a zombie's would be.
        """
        self.register()
        with self._held_lock:
            held = {
                str(job_id): worker
                for job_id, worker in self._held.items()
            }
        if not held:
            return []
        response = self.call("resync", held=held)
        if not response.get("ok"):
            return []
        dropped = [int(job_id) for job_id in response.get("dropped") or []]
        with self._held_lock:
            for job_id in dropped:
                self._held.pop(job_id, None)
        if dropped:
            logger.warning(
                "hub restart: %d lease(s) not renewed under epoch %d "
                "(reclaimed while we were fenced): %s",
                len(dropped), self.epoch, dropped,
            )
        return dropped

    def _maybe_heartbeat(self) -> None:
        interval = max(0.05, self.machine_ttl_s * EXTEND_FRACTION)
        now = time.time()
        if now - self._heartbeat_at < interval:
            return
        try:
            response = self.call("heartbeat")
        except FleetError:
            return  # partition: the run loop keeps retrying leases
        self._heartbeat_at = now
        if not response.get("ok") and response.get("reregister"):
            # Declared dead during a partition that has now healed (our
            # leases were drained), or the hub restarted: rejoin, resync
            # whatever we still hold, and keep serving.
            self.recover()

    # -- artifact federation -------------------------------------------------
    def _prefetch(self, task: TrialTask, key: str) -> bool:
        """Pull an artifact this host lacks from the hub into the local
        store; ``False`` when the fleet has never run this trial — or the
        hub cannot be asked — and a cold run is due.  The hub settles
        what its store holds before dispatch, so this only finds what it
        gained after issuing the job (``federation.hits`` counts it).
        """
        try:
            response = self.call("artifact_get", key=key)
        except FleetError:
            return False  # partition: degrade to a cold run
        blob = response.get("payload") if response.get("ok") else None
        if blob is None:
            return False

        payload = unpack_bytes(blob)
        claimed = response.get("checksum")
        if claimed is not None and artifact_checksum(payload) != claimed:
            # The transfer (or the hub's copy) is corrupt: a cold run is
            # strictly safer than warm-starting from damaged state.
            self._local_stats.bump("federation.checksum_rejects")
            logger.warning(
                "federated artifact %s failed checksum verification; "
                "falling back to a cold run", key,
            )
            return False
        self.artifacts.put(
            key,
            payload,
            workload=task.workload_id,
            trial_id=task.trial_id,
            epochs=task.epochs,
            data_fraction=task.data_fraction,
        )
        self.federation_hits += 1
        return True

    def _publish(self, task: TrialTask, key: str) -> None:
        """Upload a cold-run artifact so no other machine re-runs it."""
        payload = self.artifacts.get(key, count_miss=False)
        if payload is None:
            return  # evaluation was not cached locally (no store row)
        try:
            response = self.call_healing(
                "artifact_put",
                key=key,
                payload=pack_bytes(payload),
                checksum=artifact_checksum(payload),
                workload=task.workload_id,
                trial_id=task.trial_id,
                epochs=task.epochs,
                data_fraction=task.data_fraction,
            )
            problem = None if response.get("ok") else (
                f"refused by the hub: {response.get('error')}"
            )
        except FleetError as error:
            problem = f"failed after retries: {error}"
        if problem is None:
            self.federation_uploads += 1
            return
        # Best-effort (the result blob still reaches the hub), but never
        # silent: every lost upload costs the fleet a duplicated cold run
        # on some other machine.
        self.federation_upload_failures += 1
        self._local_stats.bump("federation.upload_failures")
        logger.warning("artifact upload for %s %s", key, problem)

    # -- job execution -------------------------------------------------------
    def _run_job(self, job: Dict[str, Any]) -> None:
        job_id = int(job["id"])
        with self._held_lock:
            self._held[job_id] = self.worker_name
        try:
            self._execute_job(job)
        finally:
            with self._held_lock:
                self._held.pop(job_id, None)

    def _execute_job(self, job: Dict[str, Any]) -> None:
        job_id = int(job["id"])
        trial_id = job["trial_id"]
        attempt = int(job.get("attempts", 1))
        extend_s = max(0.05, self.lease_ttl_s * EXTEND_FRACTION)
        #: ``fleet.stale_lease``: pretend to extend but never do — the
        #: lease quietly ages out under a still-running trial.
        stale = should("fleet.stale_lease", key=trial_id, attempt=attempt)

        def extend() -> bool:
            if stale:
                return True
            try:
                # Healing variant: a hub restart mid-trial fences the
                # extend; recover + resync keeps the lease alive under
                # the new epoch without interrupting the computation.
                response = self.call_healing(
                    "extend", job_id=job_id, worker=self.worker_name
                )
            except FleetError:
                return True  # partition: keep trying until stopped
            # Answered but not renewed: lease lost, the retry owns the job.
            return bool(not response.get("ok") or response.get("renewed"))

        with Periodic(extend_s, extend):
            try:
                # The whole machine disappears mid-lease: heartbeats,
                # extender, all of it.  Dead-host containment takes over.
                fault_point("fleet.dead_host", key=trial_id,
                            attempt=attempt)
                task = TrialTask.from_json(job["payload"])
                key = trial_key(task)
                # A miss is left for evaluate_trial to count.
                blob = self.artifacts.load_result(key, count_miss=False)
                if blob is None and self._prefetch(task, key):
                    blob = self.artifacts.load_result(key, count_miss=False)
                if blob is None:
                    blob = result_blob(
                        *evaluate_trial(task, artifacts=self.artifacts)
                    )
                    self._publish(task, key)
            except Exception as error:
                self.jobs_failed += 1
                try:
                    self.call_healing(
                        "fail", job_id=job_id, worker=self.worker_name,
                        error=f"{type(error).__name__}: {error}",
                    )
                except FleetError:
                    pass  # lease expiry will requeue the job
                return

        try:
            # Healing matters most here: this frame may be the replay of
            # a result whose first send raced a hub crash.  The hub's
            # idempotent-complete path acknowledges the duplicate
            # without writing, so the result lands exactly once.
            response = self.call_healing(
                "complete", job_id=job_id, worker=self.worker_name,
                result=pack_bytes(blob),
            )
        except FleetError:
            return  # result lost to the partition; the retry recomputes
        if response.get("ok") and response.get("accepted"):
            self.jobs_done += 1

    # -- main loop -----------------------------------------------------------
    def run_forever(
        self,
        stop_event: Optional[threading.Event] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> int:
        """Register, then lease-execute until stopped or idle too long.

        ``lease`` is a long poll: the hub holds an empty one for up to
        ``wait_s`` (one tick) and answers the moment a job is enqueued.
        The rest of the tick is slept out here — nothing when the hub
        held the request, all of it when the answer came at once (a hub
        that ignores ``wait_s``, a rejection, a partition).
        """
        self.register()
        stop_event = stop_event or threading.Event()
        idle_since = time.time()
        while not stop_event.is_set():
            self._maybe_heartbeat()
            asked_at = time.monotonic()
            try:
                response = self.call(
                    "lease", worker=self.worker_name,
                    wait_s=self.poll_interval_s,
                )
            except FleetError:
                response = {"ok": False, "error": "unreachable"}
            job: Optional[Dict[str, Any]] = None
            if response.get("ok"):
                job = response.get("job")
            elif response.get("reregister"):
                # Covers both the dead-then-revived verdict and a fenced
                # rejection from a restarted hub.
                try:
                    self.recover()
                except FleetError:
                    pass
            if job is None:
                if (
                    idle_timeout_s is not None
                    and time.time() - idle_since > idle_timeout_s
                ):
                    break
                stop_event.wait(max(
                    0.0,
                    self.poll_interval_s - (time.monotonic() - asked_at),
                ))
                continue
            self._run_job(job)
            idle_since = time.time()
        return self.jobs_done

    def close(self) -> None:
        self.client.close()
        self.database.close()


def host_main(
    machine_id: str,
    server_host: str,
    server_port: int,
    db_path: str,
    idle_timeout_s: Optional[float] = None,
    poll_interval_s: float = IDLE_POLL_S,
) -> int:
    """Process entry point for fleet hosts (importable, hence spawn-safe)."""
    host = RemoteHost(
        machine_id, server_host, server_port, db_path, poll_interval_s
    )
    try:
        return host.run_forever(idle_timeout_s=idle_timeout_s)
    except KeyboardInterrupt:
        return host.jobs_done
    finally:
        host.close()


class HostPool(ProcessPool):
    """Spawns and supervises N remote-host processes (tests, CI, demos).

    Each host gets its own database file under ``base_dir`` — the
    isolation is real, not simulated: a host process shares nothing with
    the coordinator but its TCP connection.  A supervisor thread respawns
    hosts that die (the ``fleet.dead_host`` chaos site kills them for
    real) with the *same* machine id, so a respawn re-registers onto its
    old shard and resumes serving.
    """

    def __init__(
        self,
        server_host: str,
        server_port: int,
        base_dir: str,
        hosts: int = 2,
        name_prefix: str = "machine",
        idle_timeout_s: Optional[float] = None,
    ):
        super().__init__(hosts, "host")
        self.server_host = server_host
        self.server_port = int(server_port)
        self.base_dir = base_dir
        self.name_prefix = name_prefix
        self.idle_timeout_s = idle_timeout_s
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None

    def _spawn_one(self, slot: int) -> multiprocessing.Process:
        machine_id = f"{self.name_prefix}-{slot + 1}"
        process = multiprocessing.Process(
            target=host_main,
            args=(
                machine_id,
                self.server_host,
                self.server_port,
                os.path.join(self.base_dir, f"{machine_id}.db"),
            ),
            kwargs={"idle_timeout_s": self.idle_timeout_s},
            name=machine_id,
            daemon=True,
        )
        process.start()
        return process

    def start(self) -> "HostPool":
        super().start()
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True
        )
        self._supervisor.start()
        return self

    def _supervise(self) -> None:
        while not self._stop.wait(0.1):
            self.ensure_alive()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=1.0)
            self._supervisor = None
        super().stop(timeout_s)
