"""Tuning-session records (``sessions`` table).

A session is one submitted tuning run: its :class:`SessionSpec`, a
lifecycle state (``queued → running → done | failed``) and the result
summary.  What a ``kill -9``'d session resumes from is not here: it is
the session's job rows, each merged one stamped with its merge note
(:meth:`~repro.service.queue.JobQueue.merge_log`), which the coordinator
replays.  The row only adds a warm-start session's history watermark, so
a resume reads the history the first run read.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ServiceError
from ..storage import TrialDatabase
from ..storage.database import PRE_V9_INTERRUPTED
from .queue import JobQueue
from .spec import SessionSpec

#: Session lifecycle states.
S_QUEUED = "queued"
S_RUNNING = "running"
S_DONE = "done"
S_FAILED = "failed"

SESSION_STATES = (S_QUEUED, S_RUNNING, S_DONE, S_FAILED)


@dataclass
class SessionRecord:
    """One row of the ``sessions`` table."""

    id: str
    spec: SessionSpec
    state: str
    result: Optional[Dict[str, Any]]
    error: Optional[str]
    created_at: float
    updated_at: float
    #: Interrupted (``running``/``failed``), so ``resume`` can finish it:
    #: every such session but one the v9 migration failed.
    resumable: bool


class SessionStore:
    """CRUD + lifecycle transitions for tuning sessions."""

    def __init__(self, database: TrialDatabase):
        self.database = database

    def create(
        self, spec: SessionSpec, session_id: Optional[str] = None
    ) -> str:
        """Insert a new queued session; returns its id."""
        session_id = session_id or uuid.uuid4().hex[:12]
        now = time.time()
        self.database.execute(
            "INSERT INTO sessions (id, spec, state, created_at, updated_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (session_id, json.dumps(spec.to_dict(), sort_keys=True),
             S_QUEUED, now, now),
        )
        return session_id

    def get(self, session_id: str) -> SessionRecord:
        row = self.database.execute(
            "SELECT id, spec, state, result, error, created_at, updated_at "
            "FROM sessions WHERE id = ?",
            (session_id,),
        ).fetchone()
        if row is None:
            raise ServiceError(f"no session {session_id!r}")
        return SessionRecord(
            id=row[0],
            spec=SessionSpec.from_dict(json.loads(row[1])),
            state=row[2],
            result=json.loads(row[3]) if row[3] else None,
            error=row[4],
            created_at=row[5],
            updated_at=row[6],
            resumable=row[2] in (S_RUNNING, S_FAILED)
            and row[4] != PRE_V9_INTERRUPTED,
        )

    def list(self, state: Optional[str] = None) -> List[SessionRecord]:
        query = (
            "SELECT id FROM sessions"
            + (" WHERE state = ?" if state else "")
            + " ORDER BY created_at"
        )
        rows = self.database.execute(
            query, (state,) if state else ()
        ).fetchall()
        return [self.get(row[0]) for row in rows]

    # -- lifecycle -----------------------------------------------------------
    def claim_next_queued(self) -> Optional[SessionRecord]:
        """Atomically move the oldest queued session to ``running``."""
        with self.database.transaction() as connection:
            row = connection.execute(
                "SELECT id FROM sessions WHERE state = ? "
                "ORDER BY created_at LIMIT 1",
                (S_QUEUED,),
            ).fetchone()
            if row is None:
                return None
            connection.execute(
                "UPDATE sessions SET state = ?, updated_at = ? WHERE id = ?",
                (S_RUNNING, time.time(), row[0]),
            )
            session_id = row[0]
        return self.get(session_id)

    def set_state(self, session_id: str, state: str) -> None:
        if state not in SESSION_STATES:
            raise ServiceError(f"unknown session state {state!r}")
        self.database.execute(
            "UPDATE sessions SET state = ?, updated_at = ? WHERE id = ?",
            (state, time.time(), session_id),
        )

    def finish(self, session_id: str, result: Dict[str, Any]) -> None:
        """Mark done with a JSON result summary."""
        self.database.execute(
            "UPDATE sessions SET state = ?, result = ?, "
            "error = NULL, updated_at = ? WHERE id = ?",
            (S_DONE, json.dumps(result, sort_keys=True), time.time(),
             session_id),
        )

    def fail(self, session_id: str, error: str) -> None:
        self.database.execute(
            "UPDATE sessions SET state = ?, error = ?, updated_at = ? "
            "WHERE id = ?",
            (S_FAILED, error, time.time(), session_id),
        )

    def history_watermark(self, session_id: str) -> int:
        """The largest ``trials.id`` a warm-start session may learn from,
        fixed at its first call: a resume must not read the trials the
        session itself recorded before it was interrupted."""
        self.database.execute(
            "UPDATE sessions SET history_upto = "
            "(SELECT COALESCE(MAX(id), 0) FROM trials) "
            "WHERE id = ? AND history_upto IS NULL",
            (session_id,),
        )
        (upto,) = self.database.execute(
            "SELECT history_upto FROM sessions WHERE id = ?", (session_id,)
        ).fetchone()
        return int(upto)

    def save_checkpoint(self, session_id: str, blob: bytes) -> None:
        """Never called: sessions resume from their job log, not from a
        stored snapshot (:mod:`repro.service.coordinator`).

        ``benchmarks/session/ledger.py``'s frozen ``TARGETS`` still names
        this method; that is the only reason it exists, and its ledger
        rows read 0.  ROADMAP item 1(ii) deletes it with ``TARGETS``.
        """
        raise NotImplementedError("run-state checkpoints were removed")

    # -- garbage collection ----------------------------------------------------
    def gc(self, max_age_s: float = 7 * 24 * 3600.0,
           now: Optional[float] = None) -> Dict[str, int]:
        """Purge finished sessions older than ``max_age_s`` (and their
        jobs), and reclaim expired job leases.  Returns counters."""
        now = time.time() if now is None else now
        cutoff = now - max_age_s
        stale = [
            row[0]
            for row in self.database.execute(
                "SELECT id FROM sessions WHERE state IN (?, ?) "
                "AND updated_at < ?",
                (S_DONE, S_FAILED, cutoff),
            ).fetchall()
        ]
        queue = JobQueue(self.database)
        jobs_deleted = queue.delete_for_sessions(stale)
        for session_id in stale:
            self.database.execute(
                "DELETE FROM sessions WHERE id = ?", (session_id,)
            )
        leases = queue.reclaim_expired(now=now)
        return {
            "sessions_deleted": len(stale),
            "jobs_deleted": jobs_deleted,
            "leases_reclaimed": leases,
        }
