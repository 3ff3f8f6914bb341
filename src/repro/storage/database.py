"""Persistent trial database (the architecture box "Persistent Database").

Backed by sqlite3 (stdlib); ``path=":memory:"`` gives an ephemeral store
for tests.  Four tables:

* ``trials`` — every training trial the Model Tuning Server ran;
* ``inference_results`` — the Inference Tuning Server's historical
  look-up table (§3.4): optimal inference configuration and metrics keyed
  by architecture, so repeated architectures are never re-tuned;
* ``sessions`` — long-lived tuning sessions owned by :mod:`repro.service`
  (spec, lifecycle state, result summary);
* ``jobs`` — the persistent trial-evaluation job queue consumed by the
  service's parallel worker pool and the fleet's hosts alike
  (lease-with-heartbeat ownership); its rows, with the merge note the
  coordinator stamps on each, are also a session's durable state
  (crash-safe resume replays them);
* ``machines`` — the :mod:`repro.fleet` machine registry: worker hosts
  with capability tags and liveness heartbeats;
* ``fleet_stats`` — the crash-safe event counters (hub, federation,
  janitor, dataset cache, traffic replay, artifact quarantine) that any
  process bumps and ``service status`` reads; only
  :meth:`TrialDatabase.bump_stats` writes them and only
  :meth:`TrialDatabase.stats` reads them;
* ``hub_state`` — the fleet hub's persisted incarnation epoch (bumped on
  every hub start so stale pre-crash frames can be fenced).

The schema is evolved through numbered migrations tracked in sqlite's
``PRAGMA user_version``, so databases written by older releases are
upgraded in place on open.  File-backed databases run in WAL journal mode
with a busy timeout so several worker *processes* can share one file
without ``database is locked`` failures.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .. import faults
from ..errors import StorageError

#: How long (ms) a connection waits on a locked database before failing;
#: generous because worker processes contend on the shared job queue.
BUSY_TIMEOUT_MS = 10_000

#: Transient sqlite failures worth retrying at the statement boundary
#: (a flaky disk or a lock that outlived the busy timeout); anything
#: else propagates immediately.
_TRANSIENT_MARKERS = ("disk i/o error", "database is locked",
                     "database table is locked")

#: Bounded retry envelope for transient statement failures.
IO_RETRIES = 4
IO_RETRY_BASE_S = 0.01


def _is_transient(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return any(marker in message for marker in _TRANSIENT_MARKERS)

_SCHEMA_V1 = """
CREATE TABLE IF NOT EXISTS trials (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    configuration TEXT NOT NULL,
    fidelity INTEGER NOT NULL,
    epochs INTEGER NOT NULL,
    data_fraction REAL NOT NULL,
    accuracy REAL NOT NULL,
    score REAL NOT NULL,
    train_runtime_s REAL NOT NULL,
    train_energy_j REAL NOT NULL,
    created_at REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_trials_experiment ON trials (experiment);

CREATE TABLE IF NOT EXISTS inference_results (
    architecture_key TEXT NOT NULL,
    device TEXT NOT NULL,
    objective TEXT NOT NULL,
    configuration TEXT NOT NULL,
    batch_latency_s REAL NOT NULL,
    throughput_sps REAL NOT NULL,
    energy_per_sample_j REAL NOT NULL,
    power_w REAL NOT NULL,
    tuning_runtime_s REAL NOT NULL,
    tuning_energy_j REAL NOT NULL,
    PRIMARY KEY (architecture_key, device, objective)
);
"""

#: v2 — trials history queries sort by insertion time; ``created_at`` is
#: stamped by :meth:`TrialDatabase.record_trial` from this version on.
_SCHEMA_V2 = """
CREATE INDEX IF NOT EXISTS idx_trials_experiment_created
    ON trials (experiment, created_at);
"""

#: v3 — the service layer: tuning sessions and the trial-evaluation job
#: queue (states: queued/leased/done/failed).
_SCHEMA_V3 = """
CREATE TABLE IF NOT EXISTS sessions (
    id TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    checkpoint BLOB,
    result TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_sessions_state ON sessions (state, created_at);

CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    session_id TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    lease_owner TEXT,
    lease_expires_at REAL,
    next_retry_at REAL NOT NULL DEFAULT 0,
    result BLOB,
    error TEXT,
    created_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    UNIQUE (session_id, trial_id)
);
CREATE INDEX IF NOT EXISTS idx_jobs_claim ON jobs (state, next_retry_at, id);
CREATE INDEX IF NOT EXISTS idx_jobs_session ON jobs (session_id, state);
"""

#: v4 — the advisor's tuning knowledge base: one deployment
#: recommendation per (workload, device, objective, target, system),
#: distilled from a finished session.  ``target_accuracy`` uses -1.0 for
#: "no target" so the uniqueness key has no NULLs; ``signature`` is the
#: JSON workload signature used for nearest-workload matching.
_SCHEMA_V4 = """
CREATE TABLE IF NOT EXISTS recommendations (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    workload TEXT NOT NULL,
    device TEXT NOT NULL,
    objective TEXT NOT NULL,
    target_accuracy REAL NOT NULL DEFAULT -1.0,
    system TEXT NOT NULL DEFAULT 'edgetune',
    signature TEXT NOT NULL,
    session_id TEXT,
    best_configuration TEXT NOT NULL,
    best_accuracy REAL NOT NULL,
    best_score REAL NOT NULL,
    num_trials INTEGER NOT NULL,
    tuning_runtime_s REAL NOT NULL,
    tuning_energy_j REAL NOT NULL,
    inference TEXT,
    created_at REAL NOT NULL,
    UNIQUE (workload, device, objective, target_accuracy, system)
);
CREATE INDEX IF NOT EXISTS idx_recommendations_device
    ON recommendations (device, objective);
"""

#: v5 — failure containment: the ``dead_letter`` quarantine for jobs
#: that exhausted their retries (full error history preserved for
#: forensics and ``service deadletter retry``), plus a per-job
#: ``error_history`` JSON column accumulating one entry per failed
#: attempt.
_SCHEMA_V5 = """
CREATE TABLE IF NOT EXISTS dead_letter (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    session_id TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    payload TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    error TEXT,
    error_history TEXT NOT NULL DEFAULT '[]',
    created_at REAL NOT NULL,
    quarantined_at REAL NOT NULL,
    UNIQUE (session_id, trial_id)
);
CREATE INDEX IF NOT EXISTS idx_dead_letter_session
    ON dead_letter (session_id);
"""

#: v6 — the trial artifact cache (:mod:`repro.artifacts`): one row per
#: content-addressed trial result.  ``key`` is the blake2b trial key;
#: ``blob`` holds the pickled payload inline for ``:memory:`` databases,
#: while file-backed databases keep payloads in a ``<db>.artifacts/``
#: sidecar directory (atomic rename writes) and leave ``blob`` NULL.
#: ``size_bytes``/``hits``/``last_hit_at`` feed ``service gc`` and the
#: cache-hit telemetry.
_SCHEMA_V6 = """
CREATE TABLE IF NOT EXISTS artifacts (
    key TEXT PRIMARY KEY,
    workload TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    epochs INTEGER NOT NULL,
    data_fraction REAL NOT NULL,
    size_bytes INTEGER NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0,
    blob BLOB,
    created_at REAL NOT NULL,
    last_hit_at REAL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_created ON artifacts (created_at);
"""

#: v7 — the multi-host tuning fleet (:mod:`repro.fleet`): the ``machines``
#: registry (worker hosts with capability tags and liveness heartbeats),
#: the ``fleet_stats`` counter table (crash-safe federation/janitor
#: accounting readable by ``service status`` from any process), and a
#: ``shard`` column on ``jobs`` so per-shard queues can be leased
#: independently (``idx_jobs_claim_shard``).  The column itself is added
#: by ``_ensure_column`` during migration (older files lack it).
_SCHEMA_V7 = """
CREATE TABLE IF NOT EXISTS machines (
    id TEXT PRIMARY KEY,
    hostname TEXT NOT NULL,
    shard INTEGER NOT NULL DEFAULT 0,
    state TEXT NOT NULL DEFAULT 'alive',
    capabilities TEXT NOT NULL DEFAULT '{}',
    jobs_done INTEGER NOT NULL DEFAULT 0,
    registered_at REAL NOT NULL,
    last_heartbeat_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_machines_state ON machines (state, shard);

CREATE TABLE IF NOT EXISTS fleet_stats (
    key TEXT PRIMARY KEY,
    value REAL NOT NULL DEFAULT 0
);

CREATE INDEX IF NOT EXISTS idx_jobs_claim_shard
    ON jobs (shard, state, next_retry_at, id);
"""

#: v8 — crash-safe hub restarts and end-to-end artifact integrity:
#: ``hub_state`` persists the fleet hub's monotonically increasing
#: incarnation epoch (every lease embeds it; frames from a pre-crash
#: epoch are rejected as fenced), ``jobs.lease_epoch`` records which
#: incarnation granted each lease, and ``artifacts.checksum`` carries a
#: blake2b digest of the payload verified on every read and federation
#: transfer (both columns added by ``_ensure_column``).
_SCHEMA_V8 = """
CREATE TABLE IF NOT EXISTS hub_state (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: v9 — a session's durable state is its job log (DESIGN.md §5b): each
#: merged job gets ``merge_seq`` (its place in merge order) and
#: ``merge_note``, and a warm-start session's ``history_upto`` bounds the
#: history it reads.  The run-state snapshot ``sessions.checkpoint`` is
#: dropped; a session that was resumable from one fails with
#: :data:`PRE_V9_INTERRUPTED`.  :meth:`TrialDatabase._migrate` does it all.
_SCHEMA_V9 = ""

#: Error of a session the v9 migration failed: it was interrupted while
#: resumable from a run-state snapshot, which no longer exists.
#: Resubmitting it trains nothing its artifacts already hold.
PRE_V9_INTERRUPTED = "interrupted before schema v9: resubmit"

#: v10 — one fleet queue: every host leases from the whole ``jobs``
#: table (filtered by the workloads it advertises), so v7's ``jobs.shard``
#: and ``machines.shard`` are dropped with ``idx_jobs_claim_shard``, and
#: ``idx_machines_state`` is rebuilt on ``state`` alone.
#: :meth:`TrialDatabase._migrate` drops them; the script re-creates the
#: index.
_SCHEMA_V10 = """
CREATE INDEX IF NOT EXISTS idx_machines_state ON machines (state);
"""

#: Ordered (version, script) migration ladder; each script must be safe to
#: run on a database that already contains the objects it creates (older
#: releases wrote the v1 tables without stamping ``user_version``).
MIGRATIONS: Tuple[Tuple[int, str], ...] = (
    (1, _SCHEMA_V1),
    (2, _SCHEMA_V2),
    (3, _SCHEMA_V3),
    (4, _SCHEMA_V4),
    (5, _SCHEMA_V5),
    (6, _SCHEMA_V6),
    (7, _SCHEMA_V7),
    (8, _SCHEMA_V8),
    (9, _SCHEMA_V9),
    (10, _SCHEMA_V10),
)

SCHEMA_VERSION = MIGRATIONS[-1][0]


#: Sentinel stored in ``recommendations.target_accuracy`` when the session
#: ran without a target (sqlite UNIQUE treats NULLs as distinct, which
#: would break the replace-on-reindex contract).
NO_TARGET = -1.0


@dataclass
class StoredRecommendation:
    """One knowledge-base row: the distilled outcome of a tuning session.

    ``inference`` carries the session's deployment recommendation
    (configuration + measured metrics) as a JSON-safe dict, ``None`` when
    the session ran without an inference server (baselines).
    """

    workload: str
    device: str
    objective: str
    target_accuracy: Optional[float]
    system: str
    signature: Dict[str, Any]
    session_id: Optional[str]
    best_configuration: Dict[str, Any]
    best_accuracy: float
    best_score: float
    num_trials: int
    tuning_runtime_s: float
    tuning_energy_j: float
    inference: Optional[Dict[str, Any]]
    created_at: float = 0.0


@dataclass
class StoredInferenceResult:
    """A cached inference-tuning outcome."""

    architecture_key: str
    device: str
    objective: str
    configuration: Dict[str, Any]
    batch_latency_s: float
    throughput_sps: float
    energy_per_sample_j: float
    power_w: float
    tuning_runtime_s: float
    tuning_energy_j: float


class TrialDatabase:
    """Thread-safe sqlite wrapper used by both tuning servers.

    The same class is shared by the service layer: every coordinator and
    worker *process* opens its own ``TrialDatabase`` over one file; WAL
    journaling plus the busy timeout make that safe.
    """

    def __init__(
        self, path: str = ":memory:", busy_timeout_ms: int = BUSY_TIMEOUT_MS
    ):
        try:
            # Autocommit mode: every statement is atomic on its own and
            # multi-statement sections use the explicit :meth:`transaction`
            # helper — required for the job queue's BEGIN IMMEDIATE claims.
            self._connection = sqlite3.connect(
                path, check_same_thread=False, isolation_level=None,
                timeout=busy_timeout_ms / 1000.0,
            )
            self._connection.execute(
                f"PRAGMA busy_timeout = {int(busy_timeout_ms)}"
            )
            if path != ":memory:":
                # WAL lets worker processes read while the coordinator
                # writes (and vice versa) instead of raising
                # "database is locked"; a no-op for in-memory stores.
                self._connection.execute("PRAGMA journal_mode = WAL")
                self._connection.execute("PRAGMA synchronous = NORMAL")
            self._migrate()
        except sqlite3.Error as error:
            raise StorageError(f"could not open trial database: {error}")
        self._lock = threading.RLock()
        self.path = path

    # -- schema lifecycle ---------------------------------------------------
    def _migrate(self) -> None:
        """Bring the schema up to :data:`SCHEMA_VERSION` in-place."""
        (version,) = self._connection.execute(
            "PRAGMA user_version"
        ).fetchone()
        for target, script in MIGRATIONS:
            if version >= target:
                continue
            if target == 2:
                self._ensure_column(
                    "trials", "created_at", "REAL NOT NULL DEFAULT 0"
                )
            if target == 5:
                self._ensure_column(
                    "jobs", "error_history", "TEXT NOT NULL DEFAULT '[]'"
                )
            if target == 7:
                self._ensure_column(
                    "jobs", "shard", "INTEGER NOT NULL DEFAULT 0"
                )
            if target == 8:
                self._ensure_column(
                    "jobs", "lease_epoch", "INTEGER NOT NULL DEFAULT 0"
                )
                self._ensure_column("artifacts", "checksum", "TEXT")
            if target == 9:
                self._ensure_column("jobs", "merge_seq", "INTEGER")
                self._ensure_column("jobs", "merge_note", "BLOB")
                self._ensure_column("sessions", "history_upto", "INTEGER")
                if "checkpoint" in self._columns("sessions"):
                    self._connection.execute(
                        "UPDATE sessions SET state = 'failed', error = ?, "
                        "updated_at = ? WHERE state IN ('running', 'failed') "
                        "AND checkpoint IS NOT NULL",
                        (PRE_V9_INTERRUPTED, time.time()),
                    )
                    self._connection.execute(
                        "ALTER TABLE sessions DROP COLUMN checkpoint"
                    )
            if target == 10:
                for index in ("idx_jobs_claim_shard", "idx_machines_state"):
                    self._connection.execute(f"DROP INDEX IF EXISTS {index}")
                for table in ("jobs", "machines"):
                    if "shard" in self._columns(table):
                        self._connection.execute(
                            f"ALTER TABLE {table} DROP COLUMN shard"
                        )
            self._connection.executescript(script)
            self._connection.execute(f"PRAGMA user_version = {target}")
            version = target

    def _columns(self, table: str) -> set:
        return {
            row[1]
            for row in self._connection.execute(
                f"PRAGMA table_info({table})"
            ).fetchall()
        }

    def _ensure_column(self, table: str, column: str, decl: str) -> None:
        """Add ``column`` to ``table`` when a pre-migration file lacks it."""
        if column not in self._columns(table):
            self._connection.execute(
                f"ALTER TABLE {table} ADD COLUMN {column} {decl}"
            )

    @property
    def schema_version(self) -> int:
        (version,) = self._connection.execute(
            "PRAGMA user_version"
        ).fetchone()
        return int(version)

    # -- low-level access (service layer) -----------------------------------
    def execute(self, sql: str, args: Tuple = ()) -> sqlite3.Cursor:
        """Run one statement under the instance lock (autocommitted).

        Transient failures (disk I/O errors, locks outliving the busy
        timeout — or their injected equivalents via the ``storage.io``
        fault site) are retried with exponential backoff; statements are
        atomic in autocommit mode, so the retry is always safe.
        """
        delay = IO_RETRY_BASE_S
        for attempt in range(IO_RETRIES + 1):
            try:
                with self._lock:
                    faults.fault_point("storage.io")
                    return self._connection.execute(sql, args)
            except sqlite3.OperationalError as error:
                if attempt >= IO_RETRIES or not _is_transient(error):
                    raise
                time.sleep(delay)
                delay *= 2.0
        raise StorageError("unreachable")  # pragma: no cover

    @contextmanager
    def _write(self) -> Iterator[sqlite3.Connection]:
        """A single logical write: autocommitted on its own, but *joining*
        an enclosing :meth:`transaction` when one is open (committing
        there would prematurely end the caller's atomic section)."""
        with self._lock:
            if self._connection.in_transaction:
                yield self._connection
            else:
                with self._connection:
                    yield self._connection

    @contextmanager
    def transaction(self, immediate: bool = True) -> Iterator[sqlite3.Connection]:
        """A serialized read-modify-write section.

        ``immediate`` grabs the sqlite write lock up front, which is what
        makes the job queue's claim step atomic across processes.  Only
        the BEGIN is retried on transient errors: nothing has happened
        yet, so retrying it cannot double-apply the caller's writes.
        """
        with self._lock:
            try:
                self._begin(immediate)
                yield self._connection
            except BaseException:
                # Also when the interrupt (a pool worker's SIGTERM) lands
                # just after BEGIN: a connection left inside the
                # transaction would swallow every later write.
                if self._connection.in_transaction:
                    self._connection.execute("ROLLBACK")
                raise
            else:
                self._connection.execute("COMMIT")

    def _begin(self, immediate: bool) -> None:
        statement = "BEGIN IMMEDIATE" if immediate else "BEGIN"
        delay = IO_RETRY_BASE_S
        for attempt in range(IO_RETRIES + 1):
            try:
                faults.fault_point("storage.io")
                self._connection.execute(statement)
                return
            except sqlite3.OperationalError as error:
                if attempt >= IO_RETRIES or not _is_transient(error):
                    raise
                time.sleep(delay)
                delay *= 2.0

    # -- trials ------------------------------------------------------------
    def record_trial(
        self,
        experiment: str,
        trial_id: int,
        configuration: Dict[str, Any],
        fidelity: int,
        epochs: int,
        data_fraction: float,
        accuracy: float,
        score: float,
        train_runtime_s: float,
        train_energy_j: float,
        created_at: Optional[float] = None,
    ) -> None:
        with self._write():
            self._connection.execute(
                "INSERT INTO trials (experiment, trial_id, configuration, "
                "fidelity, epochs, data_fraction, accuracy, score, "
                "train_runtime_s, train_energy_j, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    experiment,
                    trial_id,
                    json.dumps(configuration, sort_keys=True, default=repr),
                    fidelity,
                    epochs,
                    data_fraction,
                    accuracy,
                    score,
                    train_runtime_s,
                    train_energy_j,
                    time.time() if created_at is None else float(created_at),
                ),
            )

    def trials_for(
        self, experiment: str, upto: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """The experiment's history, oldest first; ``upto`` keeps only the
        rows whose ``trials.id`` is at most it (a session's watermark)."""
        query = (
            "SELECT trial_id, configuration, fidelity, epochs, "
            "data_fraction, accuracy, score, train_runtime_s, "
            "train_energy_j FROM trials WHERE experiment = ?"
        )
        args: Tuple = (experiment,)
        if upto is not None:
            query += " AND id <= ?"
            args += (int(upto),)
        with self._lock:
            rows = self._connection.execute(
                query + " ORDER BY id", args
            ).fetchall()
        return [
            {
                "trial_id": row[0],
                "configuration": json.loads(row[1]),
                "fidelity": row[2],
                "epochs": row[3],
                "data_fraction": row[4],
                "accuracy": row[5],
                "score": row[6],
                "train_runtime_s": row[7],
                "train_energy_j": row[8],
            }
            for row in rows
        ]

    def history(
        self, experiment: Optional[str] = None, limit: int = 20
    ) -> List[Dict[str, Any]]:
        """Most recent trials first (status dashboards, ``service status``)."""
        query = (
            "SELECT experiment, trial_id, accuracy, score, created_at "
            "FROM trials"
        )
        args: List[Any] = []
        if experiment is not None:
            query += " WHERE experiment = ?"
            args.append(experiment)
        query += " ORDER BY created_at DESC, id DESC LIMIT ?"
        args.append(int(limit))
        with self._lock:
            rows = self._connection.execute(query, tuple(args)).fetchall()
        return [
            {
                "experiment": row[0],
                "trial_id": row[1],
                "accuracy": row[2],
                "score": row[3],
                "created_at": row[4],
            }
            for row in rows
        ]

    def trial_count(self, experiment: Optional[str] = None) -> int:
        query = "SELECT COUNT(*) FROM trials"
        args: tuple = ()
        if experiment is not None:
            query += " WHERE experiment = ?"
            args = (experiment,)
        with self._lock:
            (count,) = self._connection.execute(query, args).fetchone()
        return int(count)

    # -- event counters -------------------------------------------------------
    def bump_stats(self, amounts: Mapping[str, float]) -> None:
        """Add each non-zero amount to its ``fleet_stats`` counter, all
        in one upsert statement (crash-safe from any process)."""
        rows = [(key, float(amount)) for key, amount in amounts.items()
                if amount]
        if rows:
            self.execute(
                "INSERT INTO fleet_stats (key, value) VALUES "
                + ", ".join(["(?, ?)"] * len(rows))
                + " ON CONFLICT (key) DO UPDATE SET "
                "value = value + excluded.value",
                tuple(value for row in rows for value in row),
            )

    def stats(self, prefix: str = "") -> Dict[str, float]:
        """The ``fleet_stats`` counters whose key starts with ``prefix``."""
        rows = self.execute(
            "SELECT key, value FROM fleet_stats "
            "WHERE substr(key, 1, ?) = ? ORDER BY key",
            (len(prefix), prefix),
        ).fetchall()
        return {key: float(value) for key, value in rows}

    # -- inference cache ------------------------------------------------------
    def store_inference(self, result: StoredInferenceResult) -> None:
        with self._write():
            self._connection.execute(
                "INSERT OR REPLACE INTO inference_results VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    result.architecture_key,
                    result.device,
                    result.objective,
                    json.dumps(
                        result.configuration, sort_keys=True, default=repr
                    ),
                    result.batch_latency_s,
                    result.throughput_sps,
                    result.energy_per_sample_j,
                    result.power_w,
                    result.tuning_runtime_s,
                    result.tuning_energy_j,
                ),
            )

    def lookup_inference(
        self, architecture_key: str, device: str, objective: str
    ) -> Optional[StoredInferenceResult]:
        with self._lock:
            row = self._connection.execute(
                "SELECT configuration, batch_latency_s, throughput_sps, "
                "energy_per_sample_j, power_w, tuning_runtime_s, "
                "tuning_energy_j FROM inference_results WHERE "
                "architecture_key = ? AND device = ? AND objective = ?",
                (architecture_key, device, objective),
            ).fetchone()
        if row is None:
            return None
        return StoredInferenceResult(
            architecture_key=architecture_key,
            device=device,
            objective=objective,
            configuration=json.loads(row[0]),
            batch_latency_s=row[1],
            throughput_sps=row[2],
            energy_per_sample_j=row[3],
            power_w=row[4],
            tuning_runtime_s=row[5],
            tuning_energy_j=row[6],
        )

    def inference_cache_size(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM inference_results"
            ).fetchone()
        return int(count)

    # -- recommendations (advisor knowledge base) ---------------------------
    _RECOMMENDATION_COLUMNS = (
        "workload, device, objective, target_accuracy, system, signature, "
        "session_id, best_configuration, best_accuracy, best_score, "
        "num_trials, tuning_runtime_s, tuning_energy_j, inference, "
        "created_at"
    )

    def store_recommendation(self, rec: StoredRecommendation) -> None:
        """Insert or replace the recommendation for the row's key."""
        created = rec.created_at or time.time()
        with self._write():
            self._connection.execute(
                "INSERT OR REPLACE INTO recommendations "
                f"({self._RECOMMENDATION_COLUMNS}) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    rec.workload,
                    rec.device,
                    rec.objective,
                    NO_TARGET if rec.target_accuracy is None
                    else float(rec.target_accuracy),
                    rec.system,
                    json.dumps(rec.signature, sort_keys=True),
                    rec.session_id,
                    json.dumps(
                        rec.best_configuration, sort_keys=True, default=repr
                    ),
                    rec.best_accuracy,
                    rec.best_score,
                    rec.num_trials,
                    rec.tuning_runtime_s,
                    rec.tuning_energy_j,
                    None if rec.inference is None
                    else json.dumps(rec.inference, sort_keys=True),
                    created,
                ),
            )

    @staticmethod
    def _recommendation_of(row: Tuple) -> StoredRecommendation:
        return StoredRecommendation(
            workload=row[0],
            device=row[1],
            objective=row[2],
            target_accuracy=None if row[3] == NO_TARGET else row[3],
            system=row[4],
            signature=json.loads(row[5]),
            session_id=row[6],
            best_configuration=json.loads(row[7]),
            best_accuracy=row[8],
            best_score=row[9],
            num_trials=row[10],
            tuning_runtime_s=row[11],
            tuning_energy_j=row[12],
            inference=json.loads(row[13]) if row[13] else None,
            created_at=row[14],
        )

    def lookup_recommendation(
        self,
        workload: str,
        device: str,
        objective: str,
        target_accuracy: Optional[float] = None,
        system: Optional[str] = None,
    ) -> Optional[StoredRecommendation]:
        """Exact-key lookup; ``system=None`` matches any system (best
        accuracy first, so EdgeTune rows win over weaker baselines)."""
        query = (
            f"SELECT {self._RECOMMENDATION_COLUMNS} FROM recommendations "
            "WHERE workload = ? AND device = ? AND objective = ? "
            "AND target_accuracy = ?"
        )
        args: List[Any] = [
            workload, device, objective,
            NO_TARGET if target_accuracy is None else float(target_accuracy),
        ]
        if system is not None:
            query += " AND system = ?"
            args.append(system)
        query += " ORDER BY best_accuracy DESC, created_at DESC LIMIT 1"
        with self._lock:
            row = self._connection.execute(query, tuple(args)).fetchone()
        return None if row is None else self._recommendation_of(row)

    def all_recommendations(
        self, device: Optional[str] = None, objective: Optional[str] = None
    ) -> List[StoredRecommendation]:
        """Every stored recommendation, optionally filtered — the candidate
        pool for nearest-signature matching of unseen workloads."""
        query = (
            f"SELECT {self._RECOMMENDATION_COLUMNS} FROM recommendations"
        )
        clauses, args = [], []
        if device is not None:
            clauses.append("device = ?")
            args.append(device)
        if objective is not None:
            clauses.append("objective = ?")
            args.append(objective)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY workload, created_at"
        with self._lock:
            rows = self._connection.execute(query, tuple(args)).fetchall()
        return [self._recommendation_of(row) for row in rows]

    def recommendation_count(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM recommendations"
            ).fetchone()
        return int(count)

    # -- export / analysis -------------------------------------------------
    def export_json(self, path: str) -> None:
        """Dump both tables to a JSON file (portable experiment archive)."""
        with self._lock:
            experiments = [
                row[0]
                for row in self._connection.execute(
                    "SELECT DISTINCT experiment FROM trials"
                ).fetchall()
            ]
        payload = {
            "trials": {name: self.trials_for(name) for name in experiments},
            "inference_results": self._all_inference(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)

    def _all_inference(self) -> List[Dict[str, Any]]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT architecture_key, device, objective, configuration, "
                "batch_latency_s, throughput_sps, energy_per_sample_j, "
                "power_w, tuning_runtime_s, tuning_energy_j "
                "FROM inference_results"
            ).fetchall()
        return [
            {
                "architecture_key": row[0],
                "device": row[1],
                "objective": row[2],
                "configuration": json.loads(row[3]),
                "batch_latency_s": row[4],
                "throughput_sps": row[5],
                "energy_per_sample_j": row[6],
                "power_w": row[7],
                "tuning_runtime_s": row[8],
                "tuning_energy_j": row[9],
            }
            for row in rows
        ]

    def experiment_summary(self, experiment: str) -> Dict[str, Any]:
        """Aggregate statistics for one experiment's trials."""
        rows = self.trials_for(experiment)
        if not rows:
            raise StorageError(f"no trials recorded for {experiment!r}")
        accuracies = [row["accuracy"] for row in rows]
        runtimes = [row["train_runtime_s"] for row in rows]
        energies = [row["train_energy_j"] for row in rows]
        return {
            "experiment": experiment,
            "trials": len(rows),
            "best_accuracy": max(accuracies),
            "total_train_runtime_s": sum(runtimes),
            "total_train_energy_j": sum(energies),
            "max_fidelity": max(row["fidelity"] for row in rows),
        }

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "TrialDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
