"""The fleet dispatch server: one coordinator hub, many worker hosts.

A :class:`~repro.wire.FrameServer` speaking the verbs of
:mod:`repro.fleet.wire` — the shared transport discipline (persistent
connections, oversized-frame rejection, optional token-bucket limits,
graceful drain) applied to work dispatch:

* remote hosts **register** with capability tags;
* they **lease** jobs from the one shared queue — only jobs of a
  workload they advertise — **extend** leases while
  trials run, and stream **complete**/**fail** verdicts back — all
  against the coordinator's central database, under the exact ownership
  protocol local pool workers use (owner ``machine/<worker>``);
* the **artifact federation** ops let a host probe the hub's
  content-addressed cache before cold-running a trial and publish what
  it did have to run, so no two machines in the fleet ever train the
  same (config, budget, seed) twice;
* a **janitor** sweep declares silent machines dead and immediately
  drains their orphaned leases back into the queue (containment measured
  in one machine TTL, not one per-job lease expiry each);
* the hub itself is **crash-restartable**: every start mints a new
  incarnation epoch (:class:`~repro.fleet.registry.HubState`), recovers
  orphaned running sessions back to ``queued`` (replaying their job
  logs makes the resume bit-identical), and **fences** mutation frames
  that carry a pre-crash epoch — with an idempotent-replay carve-out for
  ``complete``
  so a result that raced the crash lands exactly once.

The server also *runs sessions*: :meth:`FleetServer.run_sessions` claims
queued sessions and drives each with a remote-mode
:class:`~repro.service.coordinator.SessionCoordinator` — same wave
scheduling, same strict in-order merge, so a fleet run's result is
bit-identical to the single-host run of the same spec.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Dict, List, Optional, Tuple

from .. import clock, faults
from ..artifacts import ArtifactStore, artifact_checksum
from ..service.coordinator import (
    COORDINATOR_POLL_S, SessionCoordinator, drive_queued_sessions,
)
from ..service.doorbell import Doorbell, Doorbells
from ..service.queue import DEFAULT_LEASE_TTL_S, Job, JobQueue
from ..service.sessions import (
    S_QUEUED, S_RUNNING, SessionRecord, SessionStore,
)
from ..service.worker import DATASET_CACHE_KEYS
from ..storage import TrialDatabase
from ..wire import Frame, FrameServer, Peer
from .registry import (
    DEFAULT_MACHINE_TTL_S, HubState, Machine, MachineRegistry,
)
from .wire import (
    error_frame, ok_frame, pack_bytes, peer_closed, unpack_bytes,
)

logger = logging.getLogger(__name__)

#: Janitor sweep period as a fraction of the machine TTL.
JANITOR_FRACTION = 0.25

#: Longest a ``lease`` long poll is held, seconds: half the client's
#: socket timeout (a hub also caps it at its machine-heartbeat interval).
MAX_LEASE_WAIT_S = 5.0


def _count(value: Any) -> bool:
    """A counter delta off the wire: a finite number >= 0."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value) and value >= 0
    )


class FleetServer(FrameServer):
    """Threaded dispatch server over one central trial database."""

    meter_prefix = "fleet"

    def __init__(
        self,
        database: TrialDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int = 1,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        machine_ttl_s: float = DEFAULT_MACHINE_TTL_S,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
    ):
        # ``num_shards`` survives only for callers that still pass it;
        # every host leases from one queue.
        if num_shards != 1:
            raise ValueError(f"the fleet has one queue, got {num_shards}")
        super().__init__(host, port, rate_limit, burst)
        self.database = database
        self.queue = JobQueue(database)
        self.sessions = SessionStore(database)
        self.registry = MachineRegistry(database)
        self.artifacts = ArtifactStore(database)
        self.lease_ttl_s = float(lease_ttl_s)
        self.machine_ttl_s = float(machine_ttl_s)
        #: Hand-off (:mod:`repro.service.doorbell`): the coordinator rings
        #: ``jobs_bell`` and blocked ``lease`` handlers listen on it;
        #: ``complete``/``fail`` ring ``results_bell``, which it waits on.
        self.jobs_bell = Doorbells()
        self.results_bell = Doorbell()
        self._janitor: Optional[clock.Periodic] = None
        # Fenced restart: mint this incarnation's epoch first, then
        # recover whatever the previous incarnation left mid-flight.
        self.hub_state = HubState(database)
        self.epoch = self.hub_state.advance_epoch()
        self.recovery = self._recover()

    # -- crash recovery ------------------------------------------------------
    def _recover(self) -> Dict[str, int]:
        """Heal state orphaned by a previous hub incarnation.

        Sessions stuck in ``running`` belonged to a coordinator that no
        longer exists; flipping them back to ``queued`` lets
        :meth:`run_sessions` re-claim them, and replaying their job
        logs makes the resume bit-identical to an uninterrupted run.
        Leases survive as-is — the janitor (or a fenced host's
        ``resync``) settles each one individually.
        """
        orphaned = self.sessions.list(state=S_RUNNING)
        for record in orphaned:
            self.sessions.set_state(record.id, S_QUEUED)
        if self.epoch > 1:
            self.database.bump_stats({"hub.restarts": 1})
            logger.warning(
                "fleet hub restarted: epoch %d, %d orphaned running "
                "session(s) requeued to resume from their job logs",
                self.epoch, len(orphaned),
            )
        return {
            "epoch": self.epoch,
            "sessions_requeued": len(orphaned),
        }

    def _fence(self, payload: Frame) -> Optional[Frame]:
        """``None`` when the frame may mutate state, else the rejection.

        A frame without this incarnation's epoch — the integer, not a
        string or anything else that merely converts to it — is stale:
        its sender holds leases granted by a dead incarnation, or never
        registered with this one.  It must re-register and ``resync``
        before any of its writes count.
        """
        epoch = payload.get("epoch")
        if type(epoch) is int and epoch == self.epoch:
            return None
        self.database.bump_stats({"hub.fenced_frames": 1})
        return error_frame(
            f"fenced: frame epoch {epoch} != hub epoch {self.epoch}",
            fenced=True,
            reregister=True,
            epoch=self.epoch,
        )

    # -- membership ops ------------------------------------------------------
    def _register(self, payload: Frame, connection: Peer) -> Frame:
        machine_id = str(payload.get("machine_id") or "")
        if not machine_id:
            return error_frame("register needs a machine_id")
        capabilities = payload.get("capabilities") or {}
        if not isinstance(capabilities, dict):
            return error_frame("capabilities must be an object")
        workloads = capabilities.get("workloads")
        if workloads is not None and not (
            isinstance(workloads, list)
            and all(isinstance(workload, str) for workload in workloads)
        ):
            return error_frame("capabilities.workloads must list strings")
        # A duplicate id is a host reconnecting, not an error.
        known = self.registry.get(machine_id)
        self.registry.register(machine_id, capabilities=capabilities)
        return ok_frame(
            rejoined=known is not None,
            lease_ttl_s=self.lease_ttl_s,
            machine_ttl_s=self.machine_ttl_s,
            epoch=self.epoch,
        )

    def _heartbeat(self, payload: Frame, connection: Peer) -> Frame:
        machine_id = str(payload.get("machine_id") or "")
        counters = payload.get("dataset_cache") or {}
        if not (isinstance(counters, dict) and all(
            key in DATASET_CACHE_KEYS and _count(value)
            for key, value in counters.items()
        )):
            return error_frame(
                "dataset_cache must map hits/misses/evictions to finite "
                "counts >= 0"
            )
        if not self.registry.heartbeat(machine_id):
            return error_frame(
                f"unknown machine {machine_id!r}", reregister=True
            )
        # The host's dataset-memo deltas since its last heartbeat.
        self.database.bump_stats({
            f"dataset_cache.{key}": value for key, value in counters.items()
        })
        return ok_frame(draining=self.draining)

    def _machine_ok(
        self, machine_id: str
    ) -> Tuple[Optional[Machine], Optional[Frame]]:
        """``(row, None)`` when the machine may take work, else ``(None,
        error frame)`` (unregistered or declared dead → the host must
        re-register)."""
        machine = self.registry.get(machine_id)
        if machine is None:
            return None, error_frame(
                f"unknown machine {machine_id!r}", reregister=True
            )
        if machine.state != "alive":
            return None, error_frame(
                f"machine {machine_id!r} is {machine.state}",
                reregister=True,
            )
        return machine, None

    # -- dispatch ops --------------------------------------------------------
    @staticmethod
    def _owner(payload: Frame) -> str:
        """Lease owner string ``machine/<worker>`` — prefix-matchable by
        :meth:`~repro.service.queue.JobQueue.reclaim_owner`."""
        machine_id = str(payload.get("machine_id") or "")
        worker = str(payload.get("worker") or "w0")
        return f"{machine_id}/{worker}"

    def _lease(self, payload: Frame, connection: Peer) -> Frame:
        machine_id = str(payload.get("machine_id") or "")
        fenced = self._fence(payload)
        if fenced is not None:
            return fenced
        machine, rejected = self._machine_ok(machine_id)
        if rejected is not None:
            return rejected
        if self.draining:
            return ok_frame(job=None, draining=True)
        wait_s = payload.get("wait_s")
        if not (isinstance(wait_s, (int, float)) and wait_s > 0):
            wait_s = 0.0  # absent, or garbage off the wire
        wait_s = min(
            wait_s, MAX_LEASE_WAIT_S, self.machine_ttl_s * JANITOR_FRACTION
        )
        job = self._lease_within(
            self._owner(payload), machine.capabilities.get("workloads"),
            wait_s, connection,
        )
        self.registry.heartbeat(machine_id)
        if job is None:
            return ok_frame(job=None, epoch=self.epoch)
        return ok_frame(epoch=self.epoch, job={
            "id": job.id,
            "session_id": job.session_id,
            "trial_id": job.trial_id,
            "payload": job.payload,
            "attempts": job.attempts,
            "max_attempts": job.max_attempts,
        })

    def _lease_within(
        self, owner: str, workloads: Optional[List[str]], wait_s: float,
        connection: Peer,
    ) -> Optional[Job]:
        """Lease a job of one of ``workloads`` (``None``: any), holding
        on for up to ``wait_s`` while the queue has nothing runnable for
        it (the long poll behind ``lease``).

        The handler is listening on :attr:`jobs_bell` *before* it checks
        the queue, so a wave committed in between is not missed; it
        re-tries on every ring and gives up at once on drain — or when
        the host hung up meanwhile: a job leased to a closed connection
        would sit out a whole lease TTL.
        """
        deadline = clock.monotonic() + wait_s
        with self.jobs_bell.listening() as bell:
            while True:
                job = self.queue.lease(
                    owner, ttl_s=self.lease_ttl_s, workloads=workloads,
                    epoch=self.epoch,
                )
                remaining = deadline - clock.monotonic()
                if job is not None or remaining <= 0:
                    return job
                bell.wait(remaining)
                if self.draining or (
                    connection is not None and peer_closed(connection)
                ):
                    return None

    def _extend(self, payload: Frame, connection: Peer) -> Frame:
        fenced = self._fence(payload)
        if fenced is not None:
            return fenced
        renewed = self.queue.heartbeat(
            int(payload.get("job_id", -1)),
            self._owner(payload),
            ttl_s=self.lease_ttl_s,
        )
        # A host deep in a long trial talks to us only through extends;
        # count them as machine liveness too or the janitor would declare
        # a hard-working machine dead.
        self.registry.heartbeat(str(payload.get("machine_id") or ""))
        return ok_frame(renewed=renewed)

    def _complete(self, payload: Frame, connection: Peer) -> Frame:
        machine_id = str(payload.get("machine_id") or "")
        job_id = int(payload.get("job_id", -1))
        owner = self._owner(payload)
        result = unpack_bytes(payload.get("result"))
        if result is None:
            return error_frame("complete needs a result blob")
        # Idempotent replay *before* the fence: a worker that sent its
        # result just as the old hub died resends after reconnecting.
        # If that first write committed, this frame is a duplicate of an
        # already-accepted result — acknowledge it (first write wins)
        # instead of fencing, or the worker would re-run a finished
        # trial for nothing.
        if self.queue.is_done_by(job_id, owner):
            self.registry.heartbeat(machine_id)
            self.database.bump_stats({"hub.replayed_completions": 1})
            return ok_frame(accepted=True, duplicate=True)
        fenced = self._fence(payload)
        if fenced is not None:
            return fenced
        # Chaos hooks: die right before / right after the result lands.
        # Keyed on this incarnation's epoch so the restarted hub (new
        # epoch, new draw) sails past the replayed frame.  The result and
        # the machine's count commit together: had the result landed
        # alone, the replay would be acknowledged as a duplicate and the
        # count never written.
        faults.fault_point("fleet.hub_crash", key=f"{self.epoch}:{job_id}")
        with self.database.transaction():
            accepted = self.queue.complete(job_id, owner, result)
            if accepted:
                self.registry.record_done(machine_id)
        faults.fault_point(
            "fleet.hub_crash", key=f"{self.epoch}:{job_id}:post"
        )
        if accepted:
            self.results_bell.ring()
            self.registry.heartbeat(machine_id)
        return ok_frame(accepted=accepted, duplicate=False)

    def _fail(self, payload: Frame, connection: Peer) -> Frame:
        fenced = self._fence(payload)
        if fenced is not None:
            return fenced
        accepted = self.queue.fail(
            int(payload.get("job_id", -1)),
            self._owner(payload),
            str(payload.get("error") or "remote failure"),
        )
        self.results_bell.ring()
        return ok_frame(accepted=accepted)

    def _resync(self, payload: Frame, connection: Peer) -> Frame:
        """Re-adopt a reconnecting host's held leases under this epoch.

        ``held`` maps job id → worker name; each lease still owned by
        that worker is renewed and re-stamped, anything reclaimed in the
        interim comes back in ``dropped`` and the host must abandon its
        in-flight attempt (the queue's retry owns the outcome now).
        """
        machine_id = str(payload.get("machine_id") or "")
        _, rejected = self._machine_ok(machine_id)
        if rejected is not None:
            return rejected
        held = payload.get("held") or {}
        if not isinstance(held, dict):
            return error_frame("resync needs a held {job_id: worker} map")
        claims = {
            int(job_id): f"{machine_id}/{worker}"
            for job_id, worker in held.items()
        }
        renewed = self.queue.resync_leases(
            claims, epoch=self.epoch, ttl_s=self.lease_ttl_s
        )
        dropped = sorted(set(claims) - set(renewed))
        self.registry.heartbeat(machine_id)
        self.database.bump_stats({"hub.leases_resynced": len(renewed)})
        return ok_frame(renewed=renewed, dropped=dropped, epoch=self.epoch)

    # -- artifact federation -------------------------------------------------
    def _artifact_get(self, payload: Frame, connection: Peer) -> Frame:
        key = str(payload.get("key") or "")
        if payload.get("probe"):
            return ok_frame(present=self.artifacts.contains(key))
        blob = self.artifacts.get(key)
        if blob is None:
            self.database.bump_stats({"federation.misses": 1})
            return ok_frame(payload=None)
        self.database.bump_stats({"federation.hits": 1})
        # The checksum rides along so the receiving host can verify the
        # transfer end-to-end before trusting the warm-start state.
        return ok_frame(
            payload=pack_bytes(blob), checksum=artifact_checksum(blob)
        )

    def _artifact_put(self, payload: Frame, connection: Peer) -> Frame:
        fenced = self._fence(payload)
        if fenced is not None:
            return fenced
        key = str(payload.get("key") or "")
        blob = unpack_bytes(payload.get("payload"))
        if not key or blob is None:
            return error_frame("artifact_put needs a key and a payload")
        claimed = payload.get("checksum")
        if claimed is not None and artifact_checksum(blob) != claimed:
            self.database.bump_stats({"federation.upload_rejects": 1})
            return error_frame(
                f"artifact {key!r} failed checksum verification in "
                "transfer", checksum_mismatch=True,
            )
        self.artifacts.put(
            key,
            blob,
            workload=str(payload.get("workload") or ""),
            trial_id=int(payload.get("trial_id", -1)),
            epochs=int(payload.get("epochs", 0)),
            data_fraction=float(payload.get("data_fraction", 0.0)),
        )
        self.database.bump_stats({"federation.uploads": 1})
        return ok_frame(stored=True)

    # -- overview ------------------------------------------------------------
    def _status(self, payload: Frame, connection: Peer) -> Frame:
        now = clock.now()
        machines = [
            {
                "id": machine.id,
                "hostname": machine.hostname,
                "state": machine.state,
                "jobs_done": machine.jobs_done,
                "heartbeat_age_s": round(machine.heartbeat_age_s(now), 3),
                "fingerprint": machine.capabilities.get("fingerprint"),
            }
            for machine in self.registry.list()
        ]
        return ok_frame(
            machines=machines,
            queue=self.queue.depths(),
            fleet_stats=self.database.stats(),
            draining=self.draining,
            epoch=self.epoch,
            recovery=dict(self.recovery),
        )

    def _drain(self, payload: Frame, connection: Peer) -> Frame:
        self.initiate_drain()
        return ok_frame(draining=True)

    #: The dispatch protocol (:mod:`repro.fleet.wire` documents each op).
    verbs = {
        **FrameServer.verbs,
        "register": _register,
        "heartbeat": _heartbeat,
        "lease": _lease,
        "extend": _extend,
        "complete": _complete,
        "fail": _fail,
        "resync": _resync,
        "artifact_get": _artifact_get,
        "artifact_put": _artifact_put,
        "status": _status,
        "drain": _drain,
    }

    # -- janitor -------------------------------------------------------------
    def janitor_sweep(self) -> Dict[str, int]:
        """One containment pass: expire silent machines, drain their
        leases, reclaim individually-expired leases — machines and leases
        judged on the same clock-step hardened reading."""
        dead = self.registry.expire(
            self.machine_ttl_s, self.queue.expiry_now()
        )
        drained = 0
        for machine_id in dead:
            drained += self.queue.reclaim_owner(machine_id)
            logger.warning(
                "fleet janitor: machine %s declared dead, %d leases drained",
                machine_id, drained,
            )
        expired = self.queue.reclaim_expired()
        self.database.bump_stats(
            {"leases.drained": drained, "leases.expired": expired}
        )
        return {
            "machines_expired": len(dead),
            "leases_drained": drained,
            "leases_expired": expired,
        }

    def start_janitor(self, interval_s: Optional[float] = None) -> None:
        if self._janitor is not None:
            return

        def sweep() -> None:
            try:
                self.janitor_sweep()
            except Exception:  # pragma: no cover — sweep must survive
                logger.exception("fleet janitor sweep failed")

        self._janitor = clock.Periodic(
            interval_s or max(0.05, self.machine_ttl_s * JANITOR_FRACTION),
            sweep,
        ).start()

    # -- session driving -----------------------------------------------------
    def run_sessions(
        self,
        drain: bool = False,
        idle_timeout_s: Optional[float] = None,
        poll_interval_s: float = COORDINATOR_POLL_S,
    ) -> List[Any]:
        """Claim queued sessions and drive each with a remote coordinator.

        Every session's jobs go to the one queue all hosts lease from,
        and are merged in strict wave order — the fleet-scale result is
        bit-identical to the single-host run.
        """
        def coordinator_for(record: SessionRecord) -> SessionCoordinator:
            return SessionCoordinator(
                self.database,
                record.id,
                workers=0,
                lease_ttl_s=self.lease_ttl_s,
                poll_interval_s=poll_interval_s,
                remote=True,
                jobs_bell=self.jobs_bell,
                results_bell=self.results_bell,
            )

        return drive_queued_sessions(
            self.sessions, coordinator_for, drain=drain,
            idle_timeout_s=idle_timeout_s, poll_interval_s=poll_interval_s,
            stopping=lambda: self.draining,
        )

    # -- lifecycle -----------------------------------------------------------
    def _on_drain(self) -> None:
        """Stop the janitor and ring the hosts out of their long-polled
        ``lease`` (off the signal handler's thread: both take locks)."""
        if self._janitor is not None:
            self._janitor.stop()
        self.jobs_bell.ring()
