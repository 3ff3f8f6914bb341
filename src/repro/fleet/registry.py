"""The machine registry: who is in the fleet and are they alive.

One row per worker host (``machines`` table, migration v7).  A machine
registers once with its capability tags — hostname, core count, kernel
backend fingerprint, supported workloads — and then proves liveness by
heartbeating.  The fleet janitor calls :meth:`MachineRegistry.expire`
periodically; a machine whose heartbeat is older than the TTL flips to
``dead`` and every lease it (or any of its ``machine/<worker>`` workers)
held is drained back into the queue immediately instead of waiting for
per-job lease expiry.

Registration is idempotent: a host process that restarts with the same
machine id re-registers in place and simply comes back ``alive`` —
duplicate ids are a reconnect, not an error.

The janitor's ``machines.expired`` count goes to the ``fleet_stats``
event counters, which the storage layer owns
(:meth:`~repro.storage.TrialDatabase.bump_stats`).
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..storage import TrialDatabase

#: Machine lifecycle states.
ALIVE = "alive"
DRAINING = "draining"
DEAD = "dead"

MACHINE_STATES = (ALIVE, DRAINING, DEAD)

#: A machine whose newest heartbeat is older than this is declared dead.
#: Deliberately larger than the job-lease TTL: a machine death is a much
#: stronger (and more disruptive) verdict than one slow trial.
DEFAULT_MACHINE_TTL_S = 30.0

_MACHINE_COLUMNS = (
    "id, hostname, state, capabilities, jobs_done, "
    "registered_at, last_heartbeat_at"
)


def local_capabilities() -> Dict[str, Any]:
    """Capability tags describing *this* process's host.

    The backend fingerprint is the load-bearing tag: two machines with
    different fingerprints would produce different training bits, so the
    coordinator can refuse to mix them inside one replay-mode session.
    """
    from ..artifacts import backend_fingerprint
    from ..workloads.registry import WORKLOADS

    return {
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "cores": os.cpu_count() or 1,
        "fingerprint": backend_fingerprint(),
        "workloads": sorted(WORKLOADS),
    }


@dataclass
class Machine:
    """One registered fleet member."""

    id: str
    hostname: str
    state: str
    capabilities: Dict[str, Any] = field(default_factory=dict)
    jobs_done: int = 0
    registered_at: float = 0.0
    last_heartbeat_at: float = 0.0

    @classmethod
    def from_row(cls, row: tuple) -> "Machine":
        return cls(
            id=row[0],
            hostname=row[1],
            state=row[2],
            capabilities=json.loads(row[3] or "{}"),
            jobs_done=int(row[4]),
            registered_at=float(row[5]),
            last_heartbeat_at=float(row[6]),
        )

    def heartbeat_age_s(self, now: Optional[float] = None) -> float:
        return (time.time() if now is None else now) - self.last_heartbeat_at


class HubState:
    """The hub's persisted identity: a monotonically increasing
    **incarnation epoch** (``hub_state`` table, migration v8).

    Every hub start — first boot, clean restart, crash recovery —
    advances the epoch by one inside a single write transaction, so two
    hubs racing over one database cannot mint the same incarnation.  The
    epoch is embedded in every lease the hub grants; ``extend`` /
    ``complete`` / ``fail`` / ``artifact_put`` frames carrying an older
    epoch are rejected as **fenced**, which is what makes a hub crash
    indistinguishable (to correctness) from a slow network: stale
    writers cannot smuggle pre-crash state into the new incarnation.
    """

    EPOCH_KEY = "epoch"

    def __init__(self, database: TrialDatabase):
        self.database = database

    def current_epoch(self) -> int:
        row = self.database.execute(
            "SELECT value FROM hub_state WHERE key = ?", (self.EPOCH_KEY,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def advance_epoch(self, now: Optional[float] = None) -> int:
        """Atomically mint the next incarnation epoch and persist it."""
        now = time.time() if now is None else now
        with self.database.transaction() as connection:
            row = connection.execute(
                "SELECT value FROM hub_state WHERE key = ?",
                (self.EPOCH_KEY,),
            ).fetchone()
            epoch = (int(row[0]) if row is not None else 0) + 1
            connection.execute(
                "INSERT INTO hub_state (key, value) VALUES (?, ?) "
                "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                (self.EPOCH_KEY, str(epoch)),
            )
            connection.execute(
                "INSERT INTO hub_state (key, value) VALUES (?, ?) "
                "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                ("epoch_started_at", repr(now)),
            )
        return epoch


class MachineRegistry:
    """CRUD over the ``machines`` table."""

    def __init__(self, database: TrialDatabase):
        self.database = database

    # -- membership ----------------------------------------------------------
    def register(
        self,
        machine_id: str,
        capabilities: Optional[Dict[str, Any]] = None,
        now: Optional[float] = None,
    ) -> Machine:
        """Add (or re-add) a machine; idempotent per id.

        A duplicate registration is a host reconnecting: it refreshes the
        capability tags and heartbeat and revives the row to ``alive``.
        """
        now = time.time() if now is None else now
        capabilities = dict(capabilities or {})
        hostname = str(capabilities.get("hostname") or socket.gethostname())
        tags = json.dumps(capabilities, sort_keys=True, default=repr)
        self.database.execute(
            "INSERT INTO machines (id, hostname, state, capabilities, "
            "registered_at, last_heartbeat_at) VALUES (?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (id) DO UPDATE SET hostname = excluded.hostname, "
            "state = excluded.state, capabilities = excluded.capabilities, "
            "last_heartbeat_at = excluded.last_heartbeat_at",
            (machine_id, hostname, ALIVE, tags, now, now),
        )
        machine = self.get(machine_id)
        assert machine is not None
        return machine

    def heartbeat(
        self, machine_id: str, now: Optional[float] = None
    ) -> bool:
        """Refresh liveness; revives a prematurely-declared-dead machine
        (its leases were already drained — that is recoverable, a lost
        heartbeat is not).  ``False`` when the machine is unregistered."""
        now = time.time() if now is None else now
        cursor = self.database.execute(
            "UPDATE machines SET last_heartbeat_at = ?, "
            "state = CASE WHEN state = ? THEN ? ELSE state END "
            "WHERE id = ?",
            (now, DEAD, ALIVE, machine_id),
        )
        return cursor.rowcount > 0

    def record_done(self, machine_id: str, count: int = 1) -> None:
        self.database.execute(
            "UPDATE machines SET jobs_done = jobs_done + ? WHERE id = ?",
            (int(count), machine_id),
        )

    def set_state(self, machine_id: str, state: str) -> bool:
        if state not in MACHINE_STATES:
            raise ValueError(f"unknown machine state {state!r}")
        cursor = self.database.execute(
            "UPDATE machines SET state = ? WHERE id = ?",
            (state, machine_id),
        )
        return cursor.rowcount > 0

    def forget(self, machine_id: str) -> bool:
        """Drop a machine row entirely (operator cleanup)."""
        cursor = self.database.execute(
            "DELETE FROM machines WHERE id = ?", (machine_id,)
        )
        return cursor.rowcount > 0

    # -- queries -------------------------------------------------------------
    def get(self, machine_id: str) -> Optional[Machine]:
        row = self.database.execute(
            f"SELECT {_MACHINE_COLUMNS} FROM machines WHERE id = ?",
            (machine_id,),
        ).fetchone()
        return None if row is None else Machine.from_row(row)

    def list(self, state: Optional[str] = None) -> List[Machine]:
        query = f"SELECT {_MACHINE_COLUMNS} FROM machines"
        args: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY id"
        rows = self.database.execute(query, args).fetchall()
        return [Machine.from_row(row) for row in rows]

    def alive(self) -> List[Machine]:
        return self.list(state=ALIVE)

    # -- liveness sweep ------------------------------------------------------
    def expire(
        self,
        ttl_s: float = DEFAULT_MACHINE_TTL_S,
        now: Optional[float] = None,
    ) -> List[str]:
        """Declare machines with stale heartbeats dead.

        Returns the ids that flipped on *this* sweep (not ones already
        dead) so the janitor drains each machine's orphaned leases
        exactly once.
        """
        now = time.time() if now is None else now
        cutoff = now - ttl_s
        with self.database.transaction() as connection:
            doomed = [
                row[0]
                for row in connection.execute(
                    "SELECT id FROM machines "
                    "WHERE state = ? AND last_heartbeat_at < ?",
                    (ALIVE, cutoff),
                ).fetchall()
            ]
            for machine_id in doomed:
                connection.execute(
                    "UPDATE machines SET state = ? WHERE id = ?",
                    (DEAD, machine_id),
                )
        self.database.bump_stats({"machines.expired": len(doomed)})
        return doomed

    def stats(self) -> Dict[str, float]:
        """Every ``fleet_stats`` counter (kept for the session benchmark)."""
        return self.database.stats()
