"""Persistent trial database (the architecture box "Persistent Database").

Backed by sqlite3 (stdlib); ``path=":memory:"`` gives an ephemeral store
for tests.  Ten tables:

* ``trials`` — every training trial the Model Tuning Server ran;
* ``inference_results`` — the Inference Tuning Server's historical
  look-up table (§3.4): optimal inference configuration and metrics keyed
  by architecture, so repeated architectures are never re-tuned;
* ``sessions`` — long-lived tuning sessions owned by :mod:`repro.service`
  (spec, lifecycle state, result summary);
* ``jobs`` — the persistent trial-evaluation job queue consumed by the
  service's parallel worker pool and the fleet's hosts alike
  (lease-with-heartbeat ownership); with ``merge_notes``, also a
  session's durable state (crash-safe resume replays them);
* ``merge_notes`` — one row per job the coordinator merged: its place in
  merge order and the pickled note a resume replays;
* ``dead_letter`` — the quarantine of jobs that spent every retry, with
  each attempt's error;
* ``artifacts`` — the trial artifact cache (:mod:`repro.artifacts`):
  one row per stored trial, its payload inline or in a sidecar file;
* ``machines`` — the :mod:`repro.fleet` machine registry: worker hosts
  with capability tags and liveness heartbeats;
* ``fleet_stats`` — the crash-safe event counters (hub, federation,
  janitor, dataset cache, traffic replay, artifact quarantine) that any
  process bumps and ``service status`` reads; only
  :meth:`TrialDatabase.bump_stats` writes them and only
  :meth:`TrialDatabase.stats` reads them;
* ``hub_state`` — the fleet hub's persisted incarnation epoch (bumped on
  every hub start so stale pre-crash frames can be fenced).

There is one schema, stamped :data:`SCHEMA_VERSION` in sqlite's ``PRAGMA
user_version``, and no migrations: opening a fresh file creates it,
opening a current file uses it, and any other file is refused with a
:class:`~repro.errors.StorageError`.  File-backed databases run in WAL
journal mode, so several worker *processes* share one file: readers
never wait, and a statement that meets another connection's write lock
waits it out in :meth:`TrialDatabase._run` — sub-millisecond sleeps
within one :data:`BUSY_TIMEOUT_MS` budget, sqlite's own busy handler
switched off — then fails with a :class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .. import clock, faults
from ..errors import StorageError

#: How long (ms) a statement waits out another connection's write lock
#: before failing; generous because worker processes contend on the
#: shared job queue.
BUSY_TIMEOUT_MS = 10_000

#: The lock wait's first and longest sleep, seconds: it starts at the
#: first and doubles up to the second.  sqlite's own busy handler sleeps
#: 1, 2, 5, 10 ... ms whatever the holder is doing (a 0.2 ms hold cost
#: its waiter 1.2 ms); these steps take a released lock within half a
#: millisecond.
LOCK_WAIT_FIRST_S = 50e-6
LOCK_WAIT_STEP_S = 0.5e-3

#: What sqlite says when another connection holds the lock a statement
#: needs (the lock wait's business, never retried past its budget).
_LOCKED_MARKERS = ("database is locked", "database table is locked")

#: Transient sqlite failures worth retrying at the statement boundary (a
#: flaky disk); anything else propagates immediately.
_TRANSIENT_MARKERS = ("disk i/o error",)

#: The oldest sqlite this store runs on: the job queue claims a job with
#: one ``UPDATE ... RETURNING`` (new in 3.35).
MIN_SQLITE_VERSION = (3, 35, 0)

#: Bounded retry envelope for transient statement failures.
IO_RETRIES = 4
IO_RETRY_BASE_S = 0.01


def _says(error: sqlite3.OperationalError, markers: Tuple[str, ...]) -> bool:
    message = str(error).lower()
    return any(marker in message for marker in markers)

#: The one schema a database file can hold, stamped in ``PRAGMA
#: user_version`` as :data:`SCHEMA_VERSION`.  Run statement by statement
#: inside the transaction that stamps the version (see
#: :meth:`TrialDatabase._open_schema`), so it holds no ``;`` but the
#: ones that end statements.  Column order is part of the contract:
#: ``inference_results`` is written by a positional ``INSERT``.
_SCHEMA = """
CREATE TABLE trials (
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
CREATE INDEX idx_trials_experiment ON trials (experiment);
CREATE INDEX idx_trials_experiment_created ON trials (experiment, created_at);

CREATE TABLE inference_results (
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

CREATE TABLE sessions (
    id TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    result TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    -- a warm-start session reads history only up to this trials.id
    history_upto INTEGER
);
CREATE INDEX idx_sessions_state ON sessions (state, created_at);

-- states: queued/leased/done/failed, and lease_epoch is the hub
-- incarnation that granted the lease (0 outside the fleet)
CREATE TABLE jobs (
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
    error_history TEXT NOT NULL DEFAULT '[]',
    lease_epoch INTEGER NOT NULL DEFAULT 0,
    UNIQUE (session_id, trial_id)
);
CREATE INDEX idx_jobs_claim ON jobs (state, next_retry_at, id);
CREATE INDEX idx_jobs_session ON jobs (session_id, state);

-- jobs that exhausted their retries, with every attempt's error
CREATE TABLE dead_letter (
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
CREATE INDEX idx_dead_letter_session ON dead_letter (session_id);

-- the trial artifact cache (repro.artifacts), keyed by the trial key:
-- blob is the payload of a :memory: store (file stores keep it in the
-- <db>.artifacts/ sidecar), checksum its blake2b digest
CREATE TABLE artifacts (
    key TEXT PRIMARY KEY,
    workload TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    epochs INTEGER NOT NULL,
    data_fraction REAL NOT NULL,
    size_bytes INTEGER NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0,
    blob BLOB,
    created_at REAL NOT NULL,
    last_hit_at REAL,
    checksum TEXT
);
CREATE INDEX idx_artifacts_created ON artifacts (created_at);

CREATE TABLE machines (
    id TEXT PRIMARY KEY,
    hostname TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'alive',
    capabilities TEXT NOT NULL DEFAULT '{}',
    jobs_done INTEGER NOT NULL DEFAULT 0,
    registered_at REAL NOT NULL,
    last_heartbeat_at REAL NOT NULL
);
CREATE INDEX idx_machines_state ON machines (state);

CREATE TABLE fleet_stats (
    key TEXT PRIMARY KEY,
    value REAL NOT NULL DEFAULT 0
);

CREATE TABLE hub_state (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

-- one row per merged job: its place in merge order and the pickled
-- note a resume replays (DESIGN.md §5b)
CREATE TABLE merge_notes (
    session_id TEXT NOT NULL,
    trial_id INTEGER NOT NULL,
    merge_seq INTEGER NOT NULL,
    merge_note BLOB NOT NULL,
    PRIMARY KEY (session_id, trial_id)
);
"""

SCHEMA_VERSION = 11


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
    journaling plus the lock wait (:meth:`_run`) make that safe.
    """

    def __init__(
        self, path: str = ":memory:", busy_timeout_ms: int = BUSY_TIMEOUT_MS
    ):
        if sqlite3.sqlite_version_info < MIN_SQLITE_VERSION:
            raise StorageError(
                f"sqlite {sqlite3.sqlite_version} is linked; the trial "
                "database needs "
                + ".".join(map(str, MIN_SQLITE_VERSION)) + " or newer"
            )
        self.path = path
        self.busy_timeout_ms = busy_timeout_ms
        self._lock = threading.RLock()
        try:
            # Autocommit mode: every statement is atomic on its own and
            # multi-statement sections use the explicit :meth:`transaction`
            # helper — required for the job queue's BEGIN IMMEDIATE claims.
            # ``timeout=0`` switches sqlite's busy handler off: locks are
            # waited out in :meth:`_run`.
            self._connection = sqlite3.connect(
                path, check_same_thread=False, isolation_level=None,
                timeout=0,
            )
            self._open_schema()
            if path != ":memory:":
                # WAL lets worker processes read while the coordinator
                # writes (and vice versa) instead of raising
                # "database is locked"; a no-op for in-memory stores.
                # Set only once the file is ours: a refused one is left
                # in its own journal mode, with no -wal/-shm siblings.
                self._run("PRAGMA journal_mode = WAL")
                self._run("PRAGMA synchronous = NORMAL")
        except sqlite3.Error as error:
            raise StorageError(f"could not open trial database: {error}")

    # -- schema lifecycle ---------------------------------------------------
    def _open_schema(self) -> None:
        """Create the schema in a fresh file, or accept a current one.

        Any other file is refused: there are no migrations.  Creating
        the tables and stamping the version commit together, so a
        second process opening the same fresh file waits on the write
        lock and then finds it current.
        """
        if self.schema_version == SCHEMA_VERSION:
            return
        self._run("BEGIN IMMEDIATE")
        try:
            version = self.schema_version
            fresh = version == 0 and self._run(
                "SELECT 1 FROM sqlite_master LIMIT 1"
            ).fetchone() is None
            if fresh:
                for statement in _SCHEMA.split(";"):
                    if statement.strip():
                        self._run(statement)
                self._run(f"PRAGMA user_version = {SCHEMA_VERSION}")
                version = SCHEMA_VERSION
            # Before WAL is on, committing waits for other openers'
            # reads to end.
            self._run("COMMIT")
        except BaseException:
            if self._connection.in_transaction:
                self._connection.execute("ROLLBACK")
            raise
        if version != SCHEMA_VERSION:
            unstamped = " (unstamped, with tables)" if version == 0 else ""
            raise StorageError(
                f"trial database {self.path!r} is at schema v{version}"
                f"{unstamped}: this release opens only fresh files and "
                f"schema v{SCHEMA_VERSION}, and migrates none"
            )

    @property
    def schema_version(self) -> int:
        (version,) = self._run("PRAGMA user_version").fetchone()
        return int(version)

    # -- low-level access (service layer) -----------------------------------
    def _run(self, sql: str, args: Tuple = ()) -> sqlite3.Cursor:
        """Execute one statement, waiting out another connection's lock.

        With sqlite's busy handler off, a statement that meets a lock
        fails at once with "database is locked".  It is retried here
        after sleeps through :mod:`repro.clock`, from
        :data:`LOCK_WAIT_FIRST_S` doubling up to :data:`LOCK_WAIT_STEP_S`,
        until ``busy_timeout_ms`` have passed — by the monotonic clock or
        by the sleeps asked for, whichever says more, so a frozen clock
        ends the wait too.  Then it fails once, with
        :class:`~repro.errors.StorageError`.  Every statement this class
        runs outside a held write lock comes through here.
        """
        with self._lock:
            step, slept, started = LOCK_WAIT_FIRST_S, 0.0, None
            while True:
                try:
                    return self._connection.execute(sql, args)
                except sqlite3.OperationalError as error:
                    if not _says(error, _LOCKED_MARKERS):
                        raise
                    now = clock.monotonic()
                    started = now if started is None else started
                    waited_s = max(now - started, slept)
                    if waited_s * 1000.0 >= self.busy_timeout_ms:
                        raise StorageError(
                            f"trial database {self.path!r} stayed locked "
                            f"for {self.busy_timeout_ms} ms: "
                            f"{sql.split(None, 1)[0]} gave up"
                        ) from error
                    clock.sleep(step)
                    slept += step
                    step = min(2.0 * step, LOCK_WAIT_STEP_S)

    def execute(self, sql: str, args: Tuple = ()) -> sqlite3.Cursor:
        """Run one statement under the instance lock (autocommitted, or
        joining an open :meth:`transaction`).

        Transient disk I/O errors — or their injected equivalents via
        the ``storage.io`` fault site — are retried with exponential
        backoff; statements are atomic in autocommit mode, so the retry
        is always safe.  A lock is waited out by :meth:`_run`.
        """
        delay = IO_RETRY_BASE_S
        for attempt in range(IO_RETRIES + 1):
            try:
                with self._lock:
                    faults.fault_point("storage.io")
                    return self._run(sql, args)
            except sqlite3.OperationalError as error:
                if attempt >= IO_RETRIES or not _says(
                    error, _TRANSIENT_MARKERS
                ):
                    raise
                clock.sleep(delay)
                delay *= 2.0
        raise StorageError("unreachable")  # pragma: no cover

    def fetchall(self, sql: str, args: Tuple = ()) -> List[tuple]:
        """:meth:`execute`, every row read under the instance lock.  A
        statement is in progress until its last row is read, and an
        ``UPDATE ... RETURNING`` holds its write until then: left to the
        caller, another thread's ``COMMIT`` on this connection would
        fail on it ("SQL statements in progress")."""
        with self._lock:
            return self.execute(sql, args).fetchall()

    @contextmanager
    def transaction(self, immediate: bool = True) -> Iterator[sqlite3.Connection]:
        """A serialized read-modify-write section.

        ``immediate`` grabs the sqlite write lock up front, which is what
        makes the job queue's claim step atomic across processes.  Only
        the BEGIN is retried on transient errors: nothing has happened
        yet, so retrying it cannot double-apply the caller's writes.
        Callers hold the lock for their writes only: whatever can be
        computed or read before is done before.
        """
        with self._lock:
            try:
                self._begin(immediate)
                yield self._connection
                self._connection.execute("COMMIT")
            except BaseException:
                # Also when the interrupt (a pool worker's SIGTERM) lands
                # just after BEGIN, or the COMMIT itself fails: a
                # connection left inside the transaction would swallow
                # every later write.
                if self._connection.in_transaction:
                    self._connection.execute("ROLLBACK")
                raise

    def _begin(self, immediate: bool) -> None:
        self.execute("BEGIN IMMEDIATE" if immediate else "BEGIN")

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
        self._run(
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
                clock.now() if created_at is None else float(created_at),
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
            rows = self._run(
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
            rows = self._run(query, tuple(args)).fetchall()
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
            (count,) = self._run(query, args).fetchone()
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
        self._run(
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
            row = self._run(
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
            (count,) = self._run(
                "SELECT COUNT(*) FROM inference_results"
            ).fetchone()
        return int(count)

    # -- export / analysis -------------------------------------------------
    def export_json(self, path: str) -> None:
        """Dump both tables to a JSON file (portable experiment archive)."""
        with self._lock:
            experiments = [
                row[0]
                for row in self._run(
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
            rows = self._run(
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
