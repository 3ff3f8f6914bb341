"""The persistent trial-evaluation job queue (``jobs`` table).

Ownership protocol:

* a worker **leases** the oldest runnable queued job inside a single
  ``BEGIN IMMEDIATE`` transaction — at most one worker can win a job;
* while executing, the worker **heartbeats** to extend its lease; a worker
  that dies (``kill -9``, OOM) simply stops heartbeating;
* anyone (coordinator or other workers) may **reclaim** expired leases:
  the job returns to ``queued`` with exponentially backed-off
  ``next_retry_at``, or moves to ``failed`` once ``max_attempts`` is
  spent;
* **complete**/**fail** only succeed while the lease is still held, so a
  reclaimed-and-reassigned job cannot be double-completed by a zombie.

All timestamps are wall-clock seconds (``time.time()``) so they stay
comparable across processes; determinism of *results* is unaffected
because job execution itself is seed-driven.  The janitor's expiry
*judgement*, however, is hardened against wall-clock steps (NTP
step/regression) with a monotonic-clock cross-check — see
:meth:`JobQueue._janitor_now`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..storage import TrialDatabase

#: Job lifecycle states.
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

JOB_STATES = (QUEUED, LEASED, DONE, FAILED)

#: ``lease_owner`` of a job that was never leased: the coordinator found
#: the trial's artifact in its own store and wrote the row already done
#: (:meth:`JobQueue.settle`).  ``worker_stats`` reports it like a worker.
MEMO_OWNER = "memo"


def _env_float(name: str, default: float) -> float:
    """A float from the environment, falling back on garbage values (a
    misconfigured deployment should degrade to defaults, not crash)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: Default lease duration; heartbeats renew it well before expiry.
#: Overridable per deployment via ``$REPRO_LEASE_TTL_S`` (and per run via
#: the ``--lease-ttl`` CLI flags).
DEFAULT_LEASE_TTL_S = _env_float("REPRO_LEASE_TTL_S", 10.0)

#: Divergence between the wall clock and the monotonic extrapolation
#: beyond which the janitor treats ``time.time()`` as having stepped
#: (NTP slew stays far below this; only a step/regression trips it).
CLOCK_SKEW_TOLERANCE_S = 2.0

#: After detecting a step, how long the janitor keeps judging expiry on
#: the pre-step (monotonic) timeline before adopting the new wall clock.
#: One grace window is enough for every live worker to re-stamp its
#: lease (heartbeats run at a quarter TTL) under the stepped clock.
SKEW_GRACE_S = 2.0 * DEFAULT_LEASE_TTL_S

#: Clock sources, module-level so the skew tests can substitute both
#: coherently (patching ``time.time`` itself would leak into sqlite
#: timestamps and every other subsystem).
_wall_clock = time.time
_mono_clock = time.monotonic

#: Retry backoff: ``base * 2**(attempt-1)`` capped at ``cap`` seconds.
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 30.0

DEFAULT_MAX_ATTEMPTS = 3

#: Per-attempt error text cap inside ``error_history`` (full text of the
#: *last* error still lives in ``jobs.error``).
_HISTORY_ERROR_CHARS = 2000

#: ``error_history`` keeps only the most recent attempts: a hot-looping
#: poison job (operator keeps ``deadletter retry``-ing it, or a huge
#: ``max_attempts``) must not grow its row without bound.
MAX_HISTORY_ENTRIES = 20

_JOB_COLUMNS = (
    "id, session_id, trial_id, payload, state, attempts, max_attempts, "
    "lease_owner, lease_expires_at, next_retry_at, result, error, "
    "created_at, started_at, finished_at, error_history, lease_epoch"
)


@dataclass
class Job:
    """One row of the ``jobs`` table."""

    id: int
    session_id: str
    trial_id: int
    payload: str
    state: str
    attempts: int
    max_attempts: int
    lease_owner: Optional[str]
    lease_expires_at: Optional[float]
    next_retry_at: float
    result: Optional[bytes]
    error: Optional[str]
    created_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    #: JSON list of ``{"attempt", "error", "at"}`` — one entry per failed
    #: attempt, in order, capped to the most recent
    #: :data:`MAX_HISTORY_ENTRIES`.
    error_history: str = "[]"
    #: Hub incarnation epoch that granted the current lease (0 for local
    #: pool leases — fencing applies only to fleet dispatch).
    lease_epoch: int = 0

    @classmethod
    def from_row(cls, row: tuple) -> "Job":
        return cls(*row)

    def history(self) -> List[Dict[str, Any]]:
        return json.loads(self.error_history or "[]")


class LoggedJob(NamedTuple):
    """What resume needs of one of a session's job rows: the payload the
    trial was issued with, and — once the coordinator merged it — the
    merge's sequence number (1-based, in merge order) and pickled note."""

    payload: str
    merge_seq: Optional[int]
    merge_note: Optional[bytes]


@dataclass
class DeadLetter:
    """One quarantined (poison) job: exhausted every retry."""

    id: int
    session_id: str
    trial_id: int
    payload: str
    attempts: int
    error: Optional[str]
    error_history: List[Dict[str, Any]] = field(default_factory=list)
    created_at: float = 0.0
    quarantined_at: float = 0.0


def _appended_history(raw: Optional[str], attempt: int, error: str,
                      now: float) -> str:
    history = json.loads(raw or "[]")
    history.append({
        "attempt": int(attempt),
        "error": str(error)[:_HISTORY_ERROR_CHARS],
        "at": float(now),
    })
    return json.dumps(history[-MAX_HISTORY_ENTRIES:])


def _of_session(query: str, session_id: Optional[str]) -> Tuple[str, tuple]:
    """``query`` (which has no WHERE clause yet) narrowed to one session,
    or left fleet-wide for ``None``, with its arguments."""
    if session_id is None:
        return query, ()
    return query + " WHERE session_id = ?", (session_id,)


def backoff_delay(attempt: int, base: float = BACKOFF_BASE_S,
                  cap: float = BACKOFF_CAP_S) -> float:
    """Capped exponential backoff before retry ``attempt`` re-runs."""
    return min(cap, base * (2.0 ** max(0, attempt - 1)))


class JobQueue:
    """Persistent, crash-safe job queue over a :class:`TrialDatabase`."""

    def __init__(self, database: TrialDatabase):
        self.database = database
        # Wall/monotonic anchor pair for the janitor's skew detector:
        # lease stamps must stay wall-clock (comparable across
        # processes), but expiry *judgement* must survive a clock step.
        self._wall_anchor = _wall_clock()
        self._mono_anchor = _mono_clock()
        self._skew_grace_until: Optional[float] = None

    # -- producer side ------------------------------------------------------
    def enqueue(
        self,
        session_id: str,
        trial_id: int,
        payload: str,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: Optional[float] = None,
    ) -> bool:
        """Queue one trial-evaluation job.

        Idempotent per ``(session_id, trial_id)``: re-enqueueing after a
        coordinator crash leaves finished jobs (and their results) alone.
        Returns ``True`` when a new row was inserted.
        """
        cursor = self.database.execute(
            "INSERT OR IGNORE INTO jobs (session_id, trial_id, payload, "
            "state, max_attempts, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                session_id,
                int(trial_id),
                payload,
                QUEUED,
                int(max_attempts),
                time.time() if now is None else now,
            ),
        )
        return cursor.rowcount > 0

    def settle(
        self,
        session_id: str,
        trial_id: int,
        payload: str,
        result: bytes,
    ) -> bool:
        """Record a trial whose result the issuer already holds as done,
        without queueing it: the row a worker would have completed on its
        first attempt (owner :data:`MEMO_OWNER`, zero wait and run time),
        so nothing downstream can tell and no lease can touch it.
        Idempotent like :meth:`enqueue`: an existing row wins.
        """
        now = time.time()
        cursor = self.database.execute(
            "INSERT OR IGNORE INTO jobs (session_id, trial_id, payload, "
            "state, attempts, lease_owner, result, created_at, started_at, "
            "finished_at) VALUES (?, ?, ?, ?, 1, ?, ?, ?, ?, ?)",
            (
                session_id, int(trial_id), payload, DONE, MEMO_OWNER,
                result, now, now, now,
            ),
        )
        return cursor.rowcount > 0

    # -- worker side ---------------------------------------------------------
    def lease(
        self,
        worker_id: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        session_id: Optional[str] = None,
        now: Optional[float] = None,
        workloads: Optional[Sequence[str]] = None,
        epoch: int = 0,
    ) -> Optional[Job]:
        """Atomically claim the oldest runnable queued job, if any: a
        queued job whose backoff has expired, optionally of one session.

        ``workloads`` restricts the claim to jobs whose payload names one
        of them (a fleet machine's advertised capabilities); ``None``
        leases any job.  ``epoch`` stamps the lease with the
        granting hub's incarnation (0 for local pool leases).  Select and
        update share one ``BEGIN IMMEDIATE`` transaction, so at most one
        worker can win a job.
        """
        now = time.time() if now is None else now
        query = (
            f"SELECT {_JOB_COLUMNS} FROM jobs "
            "WHERE state = ? AND next_retry_at <= ?"
        )
        args: List[Any] = [QUEUED, now]
        if session_id is not None:
            query += " AND session_id = ?"
            args.append(session_id)
        if workloads is not None:
            marks = ", ".join("?" * len(workloads))
            query += (
                f" AND json_extract(payload, '$.workload_id') IN ({marks})"
            )
            args.extend(workloads)
        with self.database.transaction() as connection:
            row = connection.execute(
                query + " ORDER BY id LIMIT 1", tuple(args)
            ).fetchone()
            if row is None:
                return None
            job = Job.from_row(row)
            connection.execute(
                "UPDATE jobs SET state = ?, lease_owner = ?, "
                "lease_expires_at = ?, attempts = attempts + 1, "
                "started_at = ?, lease_epoch = ? "
                "WHERE id = ? AND state = ?",
                (LEASED, worker_id, now + ttl_s, now, int(epoch),
                 job.id, QUEUED),
            )
        job.state = LEASED
        job.lease_owner = worker_id
        job.lease_expires_at = now + ttl_s
        job.attempts += 1
        job.started_at = now
        job.lease_epoch = int(epoch)
        return job

    def heartbeat(
        self,
        job_id: int,
        worker_id: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        now: Optional[float] = None,
    ) -> bool:
        """Extend a held lease; ``False`` means the lease was lost."""
        now = time.time() if now is None else now
        cursor = self.database.execute(
            "UPDATE jobs SET lease_expires_at = ? "
            "WHERE id = ? AND lease_owner = ? AND state = ?",
            (now + ttl_s, int(job_id), worker_id, LEASED),
        )
        return cursor.rowcount > 0

    def complete(
        self,
        job_id: int,
        worker_id: str,
        result: bytes,
        now: Optional[float] = None,
    ) -> bool:
        """Mark a leased job done with its result blob.

        Rejected (returns ``False``) when the lease has been reclaimed —
        the retry's result wins and the zombie's is discarded.
        ``lease_owner`` is kept as the record of who finished the job
        (feeds the per-worker meters).
        """
        now = time.time() if now is None else now
        cursor = self.database.execute(
            "UPDATE jobs SET state = ?, result = ?, finished_at = ?, "
            "lease_expires_at = NULL, error = NULL "
            "WHERE id = ? AND lease_owner = ? AND state = ?",
            (DONE, result, now, int(job_id), worker_id, LEASED),
        )
        return cursor.rowcount > 0

    def is_done_by(self, job_id: int, worker_id: str) -> bool:
        """Whether ``worker_id``'s completion of this job already landed.

        The idempotent-replay check: a worker that sent ``complete`` just
        as the hub crashed cannot know whether the write committed, so it
        resends after reconnecting.  If the job is already ``done`` with
        this worker on record, the replay is a duplicate of its *own*
        accepted result — safe to acknowledge without writing (first
        write wins; result blobs are deterministic anyway).
        """
        row = self.database.execute(
            "SELECT 1 FROM jobs WHERE id = ? AND lease_owner = ? "
            "AND state = ?",
            (int(job_id), worker_id, DONE),
        ).fetchone()
        return row is not None

    def resync_leases(
        self,
        worker_ids: Dict[int, str],
        epoch: int,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        now: Optional[float] = None,
    ) -> List[int]:
        """Re-adopt held leases under a new hub incarnation epoch.

        ``worker_ids`` maps job id → the owner claiming it.  Each job
        still leased to that owner gets its expiry renewed and its
        ``lease_epoch`` bumped to the new incarnation; jobs that were
        reclaimed in the meantime are simply absent from the returned
        list and the host must drop them (their retry now owns the
        outcome).
        """
        now = time.time() if now is None else now
        renewed: List[int] = []
        with self.database.transaction() as connection:
            for job_id, owner in sorted(worker_ids.items()):
                cursor = connection.execute(
                    "UPDATE jobs SET lease_expires_at = ?, "
                    "lease_epoch = ? "
                    "WHERE id = ? AND lease_owner = ? AND state = ?",
                    (now + ttl_s, int(epoch), int(job_id), owner, LEASED),
                )
                if cursor.rowcount > 0:
                    renewed.append(int(job_id))
        return renewed

    def fail(
        self,
        job_id: int,
        worker_id: str,
        error: str,
        now: Optional[float] = None,
    ) -> bool:
        """Record a job failure: requeue with backoff or quarantine.

        A no-op (returns ``False``) when the lease was reclaimed *or has
        already expired* — in both cases the reclaim path owns the job's
        fate and a zombie worker's verdict must not race it.  Terminal
        failures land the job in ``failed`` and copy it — with its full
        per-attempt error history — into the ``dead_letter`` quarantine.
        """
        now = time.time() if now is None else now
        return self._release(
            "id = ? AND lease_owner = ? AND "
            "(lease_expires_at IS NULL OR lease_expires_at >= ?)",
            (int(job_id), worker_id, now), now, lambda *_: error,
        ) > 0

    # -- janitor side --------------------------------------------------------
    def _janitor_now(self) -> float:
        """Wall-clock "now" for lease-expiry checks, hardened against
        clock steps.

        Lease stamps use ``time.time()`` — a forward NTP step would make
        every healthy lease look expired (the janitor would mass-reclaim
        live workers' jobs) and a backward step would keep a dead
        worker's lease alive for the step duration.  The janitor
        therefore extrapolates "now" from the monotonic clock anchored
        at queue construction; while the wall clock agrees with that
        extrapolation it is used directly, and when they diverge past
        :data:`CLOCK_SKEW_TOLERANCE_S` the pre-step timeline is held for
        :data:`SKEW_GRACE_S` — long enough for live workers to
        re-stamp their leases under the stepped clock — before the new
        wall clock is adopted as the anchor.

        Known (safe-direction) limitation: a lease stamped *after* a
        forward step is judged late by up to the step size during the
        grace window, delaying — never hastening — its reclaim.
        """
        wall = _wall_clock()
        mono = _mono_clock()
        steady = self._wall_anchor + (mono - self._mono_anchor)
        if abs(wall - steady) > CLOCK_SKEW_TOLERANCE_S:
            if self._skew_grace_until is None:
                self._skew_grace_until = mono + SKEW_GRACE_S
            if mono < self._skew_grace_until:
                return steady
            self._wall_anchor = wall
            self._mono_anchor = mono
            self._skew_grace_until = None
            return wall
        # Clocks agree again (step reverted, or grace adopted it): track
        # the wall clock so slow monotonic-vs-NTP drift never
        # accumulates into a false skew detection.
        self._wall_anchor = wall
        self._mono_anchor = mono
        self._skew_grace_until = None
        return wall

    def reclaim_expired(self, now: Optional[float] = None) -> int:
        """Requeue (or terminally fail) jobs whose lease ran out.

        This is how a ``kill -9``'d worker's in-flight trials get retried:
        its leases stop being renewed and any surviving process reclaims
        them here.  The real-time path judges expiry via
        :meth:`_janitor_now` (clock-step hardened); an explicit ``now``
        bypasses the skew detector — it is the simulated-time hook the
        tests and operators use deliberately.
        """
        now = self._janitor_now() if now is None else now
        return self._release(
            "lease_expires_at < ?", (now,), now,
            lambda owner, attempts:
                f"lease expired (owner {owner!r}, attempt {attempts})",
        )

    def reclaim_owner(
        self, owner: str, now: Optional[float] = None
    ) -> int:
        """Immediately release every lease held by ``owner`` (or by one
        of its workers, ``owner/<name>``).

        The fleet janitor's dead-host drain: when a machine stops
        heartbeating, its orphaned jobs go back to the queue right away
        instead of idling until each lease times out on its own.
        """
        now = time.time() if now is None else now
        return self._release(
            "(lease_owner = ? OR lease_owner LIKE ? || '/%')",
            (owner, owner), now,
            lambda who, attempts:
                f"host declared dead (owner {who!r}, attempt {attempts})",
        )

    def _release(self, where: str, args: tuple, now: float, describe) -> int:
        """Take the lease off every leased job matching ``where``: back to
        ``queued`` with backoff, or — attempts spent — to ``failed`` plus
        a copy, with its full per-attempt error history, in the
        ``dead_letter`` quarantine (the UNIQUE key makes a job quarantine
        exactly once).  ``describe(owner, attempts)`` words the error."""
        with self.database.transaction() as connection:
            rows = connection.execute(
                "SELECT id, attempts, max_attempts, lease_owner, "
                f"error_history FROM jobs WHERE state = ? AND {where}",
                (LEASED, *args),
            ).fetchall()
            for job_id, attempts, max_attempts, owner, raw_history in rows:
                error = describe(owner, attempts)
                history = _appended_history(
                    raw_history, attempts, error, now
                )
                if attempts < max_attempts:
                    connection.execute(
                        "UPDATE jobs SET state = ?, error = ?, "
                        "lease_owner = NULL, lease_expires_at = NULL, "
                        "next_retry_at = ?, error_history = ? WHERE id = ?",
                        (QUEUED, error, now + backoff_delay(attempts),
                         history, job_id),
                    )
                    continue
                connection.execute(
                    "UPDATE jobs SET state = ?, error = ?, "
                    "finished_at = ?, lease_owner = NULL, "
                    "lease_expires_at = NULL, error_history = ? "
                    "WHERE id = ?",
                    (FAILED, error, now, history, job_id),
                )
                connection.execute(
                    "INSERT OR IGNORE INTO dead_letter (session_id, "
                    "trial_id, payload, attempts, error, error_history, "
                    "created_at, quarantined_at) "
                    "SELECT session_id, trial_id, payload, attempts, "
                    "error, error_history, created_at, ? FROM jobs "
                    "WHERE id = ?",
                    (now, job_id),
                )
        return len(rows)

    def delete_for_sessions(self, session_ids: Iterable[str]) -> int:
        """Drop all jobs belonging to the given sessions (``service gc``)."""
        deleted = 0
        for session_id in session_ids:
            cursor = self.database.execute(
                "DELETE FROM jobs WHERE session_id = ?", (session_id,)
            )
            deleted += cursor.rowcount
        return deleted

    # -- introspection -------------------------------------------------------
    def depths(self, session_id: Optional[str] = None) -> Dict[str, int]:
        """Queue depth per state (zero-filled for absent states)."""
        query, args = _of_session(
            "SELECT state, COUNT(*) FROM jobs", session_id
        )
        rows = self.database.execute(
            query + " GROUP BY state", args
        ).fetchall()
        depths = {state: 0 for state in JOB_STATES}
        depths.update({state: int(count) for state, count in rows})
        return depths

    def get(self, session_id: str, trial_id: int) -> Optional[Job]:
        row = self.database.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs "
            "WHERE session_id = ? AND trial_id = ?",
            (session_id, int(trial_id)),
        ).fetchone()
        return None if row is None else Job.from_row(row)

    def jobs_for(self, session_id: str, state: Optional[str] = None) -> List[Job]:
        query = f"SELECT {_JOB_COLUMNS} FROM jobs WHERE session_id = ?"
        args: List[Any] = [session_id]
        if state is not None:
            query += " AND state = ?"
            args.append(state)
        query += " ORDER BY trial_id"
        rows = self.database.execute(query, tuple(args)).fetchall()
        return [Job.from_row(row) for row in rows]

    def settled(
        self, session_id: str, trial_ids: Iterable[int]
    ) -> Dict[int, Tuple[str, Optional[str]]]:
        """``trial_id -> (state, error)`` of the jobs among ``trial_ids``
        that are ``done`` or terminally ``failed``.

        The coordinator's "anything to merge?" probe: it runs on every
        wake-up, so it deliberately leaves the result blobs (hundreds of
        KB each) where they are — :meth:`results_for` fetches the one
        about to be integrated.
        """
        wanted = [int(t) for t in trial_ids]
        marks = ",".join("?" for _ in wanted)
        rows = self.database.execute(
            "SELECT trial_id, state, error FROM jobs WHERE session_id = ? "
            f"AND state IN (?, ?) AND trial_id IN ({marks})",
            tuple([session_id, DONE, FAILED] + wanted),
        ).fetchall()
        return {int(row[0]): (row[1], row[2]) for row in rows}

    def results_for(
        self, session_id: str, trial_ids: Iterable[int]
    ) -> Dict[int, bytes]:
        """Result blobs of the finished jobs among ``trial_ids``."""
        wanted = [int(t) for t in trial_ids]
        if not wanted:
            return {}
        marks = ",".join("?" for _ in wanted)
        rows = self.database.execute(
            "SELECT trial_id, result FROM jobs "
            f"WHERE session_id = ? AND state = ? AND trial_id IN ({marks})",
            tuple([session_id, DONE] + wanted),
        ).fetchall()
        return {int(trial_id): result for trial_id, result in rows}

    def merge_log(self, session_id: str) -> Dict[int, LoggedJob]:
        """``trial_id -> LoggedJob`` for every job of the session: the
        durable state a coordinator resumes from (empty when fresh)."""
        rows = self.database.execute(
            "SELECT trial_id, payload, merge_seq, merge_note FROM jobs "
            "WHERE session_id = ?",
            (session_id,),
        ).fetchall()
        return {int(row[0]): LoggedJob(*row[1:]) for row in rows}

    def record_merge(
        self, session_id: str, trial_id: int, seq: int, note: bytes
    ) -> None:
        """Stamp a job as merged: the ``seq``-th merge of its session,
        replayable from ``note``.  Called inside the merge's transaction."""
        self.database.execute(
            "UPDATE jobs SET merge_seq = ?, merge_note = ? "
            "WHERE session_id = ? AND trial_id = ?",
            (int(seq), note, session_id, int(trial_id)),
        )

    def worker_stats(self, session_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Per-worker completion counts and busy time (done jobs only);
        completed jobs keep ``lease_owner`` as the finisher's name."""
        query = (
            "SELECT COALESCE(lease_owner, 'unknown') AS worker, COUNT(*), "
            "SUM(finished_at - started_at) FROM jobs WHERE state = ?"
        )
        args: List[Any] = [DONE]
        if session_id is not None:
            query += " AND session_id = ?"
            args.append(session_id)
        query += " GROUP BY worker ORDER BY worker"
        rows = self.database.execute(query, tuple(args)).fetchall()
        return [
            {
                "worker": row[0],
                "jobs_done": int(row[1]),
                "busy_s": float(row[2] or 0.0),
            }
            for row in rows
        ]

    # -- dead-letter quarantine ----------------------------------------------
    def dead_letters(
        self, session_id: Optional[str] = None
    ) -> List[DeadLetter]:
        """Quarantined jobs, oldest first."""
        query, args = _of_session(
            "SELECT id, session_id, trial_id, payload, attempts, error, "
            "error_history, created_at, quarantined_at FROM dead_letter",
            session_id,
        )
        rows = self.database.execute(query + " ORDER BY id", args).fetchall()
        return [
            DeadLetter(
                id=int(row[0]),
                session_id=row[1],
                trial_id=int(row[2]),
                payload=row[3],
                attempts=int(row[4]),
                error=row[5],
                error_history=json.loads(row[6] or "[]"),
                created_at=float(row[7]),
                quarantined_at=float(row[8]),
            )
            for row in rows
        ]

    def dead_letter_count(self, session_id: Optional[str] = None) -> int:
        (count,) = self.database.execute(
            *_of_session("SELECT COUNT(*) FROM dead_letter", session_id)
        ).fetchone()
        return int(count)

    def retry_dead(
        self,
        session_id: str,
        trial_id: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Release quarantined jobs back to the queue with a clean slate.

        Resets attempts and error history so the job gets its full retry
        budget again (the operator presumably fixed the underlying cause).
        Returns the number of jobs released.
        """
        now = time.time() if now is None else now
        with self.database.transaction() as connection:
            query = "SELECT trial_id FROM dead_letter WHERE session_id = ?"
            args: List[Any] = [session_id]
            if trial_id is not None:
                query += " AND trial_id = ?"
                args.append(int(trial_id))
            trials = [row[0] for row in
                      connection.execute(query, tuple(args)).fetchall()]
            for trial in trials:
                connection.execute(
                    "UPDATE jobs SET state = ?, attempts = 0, error = NULL, "
                    "error_history = '[]', next_retry_at = 0, "
                    "lease_owner = NULL, lease_expires_at = NULL, "
                    "result = NULL, started_at = NULL, finished_at = NULL "
                    "WHERE session_id = ? AND trial_id = ?",
                    (QUEUED, session_id, int(trial)),
                )
                connection.execute(
                    "DELETE FROM dead_letter "
                    "WHERE session_id = ? AND trial_id = ?",
                    (session_id, int(trial)),
                )
        return len(trials)

    def purge_dead(self, session_id: Optional[str] = None) -> int:
        """Drop quarantine rows (the failed ``jobs`` rows stay)."""
        return self.database.execute(
            *_of_session("DELETE FROM dead_letter", session_id)
        ).rowcount

    def last_error(self, session_id: str) -> Optional[str]:
        """Most recent job error recorded for a session, if any.

        Reads ``error_history`` rather than ``jobs.error`` because a
        successful retry clears the latter — the history is the durable
        record of what went wrong along the way.
        """
        rows = self.database.execute(
            "SELECT error, error_history FROM jobs WHERE session_id = ?",
            (session_id,),
        ).fetchall()
        latest_at = float("-inf")
        latest: Optional[str] = None
        for error, raw_history in rows:
            history = json.loads(raw_history or "[]")
            if history and history[-1]["at"] > latest_at:
                latest_at = history[-1]["at"]
                latest = history[-1]["error"]
            elif latest is None and error:
                latest = error  # pre-v5 rows carry only ``error``
        return latest
