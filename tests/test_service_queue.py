"""Tests for the service substrate: schema, job queue, sessions."""

import os
import sqlite3
import threading

import pytest

from repro.errors import ServiceError, StorageError
from repro.fleet.registry import MachineRegistry
from repro.service import (
    JobQueue, SessionCoordinator, SessionSpec, SessionStore, backoff_delay,
)
from repro.service.queue import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    DONE,
    FAILED,
    LEASED,
    MEMO_OWNER,
    QUEUED,
)
from repro.service.doorbell import Doorbell
from repro.service.sessions import S_DONE, S_FAILED, S_QUEUED, S_RUNNING
from repro.service.worker import LocalJobs
from repro.storage import BUSY_TIMEOUT_MS, SCHEMA_VERSION, TrialDatabase
from tests.clocks import frozen_clock  # noqa: F401 (fixture)


#: The table (and its index) the deleted recommendation advisor kept in
#: schema v11, as the v11 DDL created it.
OLD_RECOMMENDATIONS_DDL = """
CREATE TABLE recommendations (
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
CREATE INDEX idx_recommendations_device ON recommendations (device, objective);
"""


def make_queue():
    db = TrialDatabase()
    return db, JobQueue(db)


def tables(connection):
    return sorted(
        row[0] for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall()
    )


class TestMigrations:
    """There are none: a file is fresh (and gets the schema) or current
    (and is opened); any other file is refused untouched."""

    def test_fresh_database_is_current(self):
        db = TrialDatabase()
        assert db.schema_version == SCHEMA_VERSION == 11
        assert {"trials", "inference_results", "sessions", "jobs"} <= set(
            tables(db)
        )
        assert "recommendations" not in tables(db)

    def test_v11_file_with_the_old_recommendations_table_runs_a_session(
        self, tmp_path
    ):
        """v11 files written while the recommendation advisor existed
        hold its ``recommendations`` table.  They open as they are, a
        session runs on them as on a fresh file, and nothing touches
        the old table."""
        path = os.path.join(tmp_path, "old-v11.sqlite")
        TrialDatabase(path).close()
        raw = sqlite3.connect(path)
        raw.executescript(OLD_RECOMMENDATIONS_DDL)
        raw.execute(
            "INSERT INTO recommendations (workload, device, objective, "
            "signature, best_configuration, best_accuracy, best_score, "
            "num_trials, tuning_runtime_s, tuning_energy_j, created_at) "
            "VALUES ('IC', 'armv7', 'runtime', '{}', '{}', 0.8, 1.5, 4, "
            "60.0, 900.0, 1000.0)"
        )
        raw.commit()
        row = raw.execute("SELECT * FROM recommendations").fetchall()
        raw.close()
        results = []
        for database in (TrialDatabase(path), TrialDatabase()):
            with database:
                assert database.schema_version == SCHEMA_VERSION
                spec = SessionSpec(workload="IC", seed=7, samples=160,
                                   max_trials=4)
                session_id = SessionStore(database).create(spec)
                results.append(
                    SessionCoordinator(database, session_id).run()
                )
                assert SessionStore(database).get(session_id).state == S_DONE
        old, fresh = results
        assert [(t.trial_id, t.score) for t in old.trials] == [
            (t.trial_id, t.score) for t in fresh.trials
        ]
        raw = sqlite3.connect(path)
        assert raw.execute("SELECT * FROM recommendations").fetchall() == row
        raw.close()

    @pytest.mark.parametrize("version", [10, 0, 12])
    def test_file_at_another_version_is_refused(self, tmp_path, version):
        """Stamped older (v10) or newer (v12), or unstamped with tables
        already in it (the layout from before ``user_version``)."""
        path = os.path.join(tmp_path, f"v{version}.sqlite")
        raw = sqlite3.connect(path)
        raw.execute("CREATE TABLE trials (id INTEGER PRIMARY KEY)")
        raw.execute(f"PRAGMA user_version = {version}")
        raw.commit()
        refusal = rf"schema v{version}\b.* v11\b"
        with pytest.raises(StorageError, match=refusal):
            TrialDatabase(path)
        assert raw.execute("PRAGMA user_version").fetchone() == (version,)
        assert tables(raw) == ["trials"]
        raw.close()

    def test_refused_file_keeps_its_journal_mode(self, tmp_path):
        """Refusal happens before WAL is switched on: a rollback-journal
        file stays one and grows no ``-wal``/``-shm`` siblings."""
        path = os.path.join(tmp_path, "v10.sqlite")
        raw = sqlite3.connect(path)
        raw.execute("CREATE TABLE trials (id INTEGER PRIMARY KEY)")
        raw.execute("PRAGMA user_version = 10")
        raw.commit()
        raw.close()
        with pytest.raises(StorageError, match=r"schema v10\b"):
            TrialDatabase(path)
        raw = sqlite3.connect(path)
        assert raw.execute("PRAGMA journal_mode").fetchone() == ("delete",)
        raw.close()
        assert sorted(os.listdir(tmp_path)) == ["v10.sqlite"]

    def test_concurrent_first_opens_of_one_fresh_file(self, tmp_path):
        """Creating the schema and stamping its version commit together,
        so every opener of a fresh file but one finds it current."""
        path = os.path.join(tmp_path, "fresh.sqlite")
        start = threading.Barrier(8)
        versions, errors = [], []

        def open_it():
            start.wait()
            try:
                with TrialDatabase(path) as db:
                    versions.append(db.schema_version)
            except Exception as error:  # reported below
                errors.append(error)

        threads = [threading.Thread(target=open_it) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert errors == [] and versions == [SCHEMA_VERSION] * 8
        with TrialDatabase(path) as db:
            names = tables(db)
        assert len(names) == len(set(names))
        assert names == tables(TrialDatabase())

    def test_created_at_is_stamped_and_history_orders_by_it(self):
        db = TrialDatabase()
        for trial_id, stamp in ((0, 100.0), (1, 300.0), (2, 200.0)):
            db.record_trial("e", trial_id, {}, 1, 1, 1.0, 0.5, 1.0, 1.0,
                            1.0, created_at=stamp)
        stamps = [
            row[0]
            for row in db.execute(
                "SELECT created_at FROM trials ORDER BY id"
            ).fetchall()
        ]
        assert stamps == [100.0, 300.0, 200.0]
        assert [h["trial_id"] for h in db.history("e")] == [1, 2, 0]
        db.record_trial("e", 9, {}, 1, 1, 1.0, 0.5, 1.0, 1.0, 1.0)
        auto = db.execute(
            "SELECT created_at FROM trials WHERE trial_id = 9"
        ).fetchone()[0]
        assert auto > 0

    def test_file_database_uses_wal_and_its_own_lock_wait(self, tmp_path):
        """sqlite's busy handler is off: locks are waited out by the
        database's own loop, within ``BUSY_TIMEOUT_MS``."""
        path = os.path.join(tmp_path, "wal.sqlite")
        with TrialDatabase(path) as db:
            mode = db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            timeout = db.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout == 0
            assert db.busy_timeout_ms == BUSY_TIMEOUT_MS


class TestJobQueue:
    def test_leases_on_a_shared_connection_leave_commits_alone(
        self, tmp_path
    ):
        """The hub's handler threads share one connection.  A lease's
        ``UPDATE ... RETURNING`` is in progress until its row is read, so
        the read must happen under the connection's lock: read after it,
        another thread's ``COMMIT`` meets the unfinished write and fails
        with "SQL statements in progress".  (A race: with the read
        outside the lock, 8 of 10 runs of this test failed.)"""
        db = TrialDatabase(os.path.join(tmp_path, "shared.sqlite"))
        queue = JobQueue(db)
        jobs, errors = 300, []

        def leaser(owner):
            try:
                while True:
                    job = queue.lease(owner)
                    if job is None:
                        return
                    queue.complete(job.id, owner, b"result")
            except Exception as error:  # reported below
                errors.append(error)

        def committer(session):
            try:
                for n in range(jobs):
                    with db.transaction():
                        db.execute("INSERT INTO fleet_stats (key, value) "
                                   "VALUES (?, 1)", (f"{session}.{n}",))
            except Exception as error:  # reported below
                errors.append(error)

        for session in ("s1", "s2", "s3"):
            for trial_id in range(jobs):
                queue.enqueue(session, trial_id, "{}")
            threads = [
                threading.Thread(target=leaser, args=(f"w{n}",))
                for n in range(2)
            ] + [threading.Thread(target=committer, args=(session,))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert errors == []
            assert queue.depths(session)[DONE] == jobs
            assert len(db.stats(session + ".")) == jobs

    def test_enqueue_is_idempotent(self):
        _, queue = make_queue()
        assert queue.enqueue("s", 1, "payload-a") is True
        assert queue.enqueue("s", 1, "payload-b") is False
        assert queue.get("s", 1).payload == "payload-a"
        assert queue.depths("s")[QUEUED] == 1

    def test_lease_claims_oldest_runnable(self, frozen_clock):
        _, queue = make_queue()
        frozen_clock.at(10.0)
        queue.enqueue("s", 1, "p1")
        frozen_clock.at(11.0)
        queue.enqueue("s", 2, "p2")
        frozen_clock.at(20.0)
        job = queue.lease("w1")
        assert job.trial_id == 1
        assert job.state == LEASED
        assert job.attempts == 1
        assert job.lease_owner == "w1"
        other = queue.lease("w2")
        assert other.trial_id == 2
        assert queue.lease("w3") is None

    def test_lease_honours_retry_backoff_time(self, frozen_clock):
        _, queue = make_queue()
        frozen_clock.at(0.0)
        queue.enqueue("s", 1, "p")
        job = queue.lease("w1")
        frozen_clock.at(1.0)
        queue.fail(job.id, "w1", "boom")
        delay = backoff_delay(1)
        frozen_clock.at(1.0 + delay / 2)
        assert queue.lease("w1") is None
        frozen_clock.at(1.0 + delay)
        retry = queue.lease("w1")
        assert retry is not None and retry.attempts == 2

    def test_heartbeat_extends_only_the_owner(self, frozen_clock):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p")
        frozen_clock.at(0.0)
        job = queue.lease("w1", ttl_s=5.0)
        frozen_clock.at(3.0)
        assert queue.heartbeat(job.id, "w1", ttl_s=5.0) is True
        assert queue.get("s", 1).lease_expires_at == 8.0
        assert queue.heartbeat(job.id, "intruder") is False

    def test_complete_requires_a_held_lease(self, frozen_clock):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p")
        frozen_clock.at(0.0)
        job = queue.lease("w1", ttl_s=1.0)
        # Lease expires; the job is reclaimed and re-leased by w2.
        frozen_clock.at(2.0)
        assert queue.reclaim_expired() == 1
        frozen_clock.at(2.0 + backoff_delay(1))
        retry = queue.lease("w2")
        assert retry is not None
        # The zombie's completion is rejected; the new owner's wins.
        assert queue.complete(job.id, "w1", b"zombie") is False
        assert queue.complete(retry.id, "w2", b"fresh") is True
        done = queue.get("s", 1)
        assert done.state == DONE
        assert done.result == b"fresh"
        assert done.lease_owner == "w2"  # kept as the finisher record

    def test_fail_exhausts_attempts_then_terminal(self, frozen_clock):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p", max_attempts=2)
        now = 0.0
        frozen_clock.at(now)
        job = queue.lease("w")
        queue.fail(job.id, "w", "first")
        requeued = queue.get("s", 1)
        assert requeued.state == QUEUED
        assert requeued.next_retry_at == now + backoff_delay(1)
        now += backoff_delay(1)
        frozen_clock.at(now)
        job = queue.lease("w")
        assert job.attempts == 2
        queue.fail(job.id, "w", "second")
        dead = queue.get("s", 1)
        assert dead.state == FAILED
        assert dead.error == "second"
        frozen_clock.at(now + 1000.0)
        assert queue.lease("w") is None

    def test_reclaim_expired_requeues_dead_workers_jobs(self, frozen_clock):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p")
        frozen_clock.at(0.0)
        queue.lease("doomed", ttl_s=1.0)
        frozen_clock.at(0.5)
        assert queue.reclaim_expired() == 0  # still alive
        frozen_clock.at(2.0)
        assert queue.reclaim_expired() == 1
        job = queue.get("s", 1)
        assert job.state == QUEUED
        assert job.lease_owner is None
        assert "doomed" in job.error

    def test_backoff_delay_is_capped_exponential(self):
        assert backoff_delay(1) == BACKOFF_BASE_S
        assert backoff_delay(2) == 2 * BACKOFF_BASE_S
        assert backoff_delay(3) == 4 * BACKOFF_BASE_S
        assert backoff_delay(50) == BACKOFF_CAP_S

    def test_results_for_and_worker_stats(self, frozen_clock):
        _, queue = make_queue()
        frozen_clock.at(0.0)
        for trial_id in (1, 2, 3):
            queue.enqueue("s", trial_id, "p")
        for worker in ("w1", "w2"):
            frozen_clock.at(1.0)
            job = queue.lease(worker)
            frozen_clock.at(3.0)
            queue.complete(job.id, worker, f"r{job.trial_id}".encode())
        results = queue.results_for("s", [1, 2, 3])
        assert results == {1: b"r1", 2: b"r2"}
        stats = {s["worker"]: s for s in queue.worker_stats("s")}
        assert stats["w1"]["jobs_done"] == 1
        assert stats["w1"]["busy_s"] == 2.0
        assert queue.depths("s") == {
            QUEUED: 1, LEASED: 0, DONE: 2, FAILED: 0,
        }

    def test_a_settled_row_holds_its_result_by_reference(self):
        db, queue = make_queue()
        assert queue.settle("s", 1, "p")
        assert not queue.settle("s", 1, "p")  # an existing row wins
        job = queue.get("s", 1)
        assert (job.state, job.lease_owner, job.attempts) == (
            DONE, MEMO_OWNER, 1
        )
        assert job.result is None
        assert job.created_at == job.started_at == job.finished_at
        queue.enqueue("s", 2, "p")
        queue.complete(queue.lease("w1").id, "w1", b"r2")
        log = queue.merge_log("s")
        assert log[1].by_reference and not log[2].by_reference
        # A memo row settled with a result copy reads like any done row.
        queue.settle("s", 3, "p")
        db.execute("UPDATE jobs SET result = x'00' WHERE trial_id = 3")
        assert not queue.merge_log("s")[3].by_reference
        assert queue.results_for("s", [2, 3]) == {2: b"r2", 3: b"\x00"}

    def test_unsettle_sends_only_a_by_reference_row_back_to_the_queue(
        self
    ):
        _, queue = make_queue()
        queue.settle("s", 1, "p")
        queue.enqueue("s", 2, "p")
        queue.complete(queue.lease("w1").id, "w1", b"r2")
        assert not queue.unsettle("s", 2)
        assert queue.unsettle("s", 1)
        job = queue.get("s", 1)
        assert (job.state, job.lease_owner, job.attempts) == (QUEUED, None, 0)
        assert job.started_at is job.finished_at is None
        assert not queue.unsettle("s", 1)
        leased = queue.lease("w2")
        assert (leased.trial_id, leased.attempts) == (1, 1)

    def test_local_completion_and_its_machine_count_commit_together(
        self, tmp_path, monkeypatch
    ):
        class Killed(BaseException):
            """The worker process died: nothing may catch it."""

        def die(*args, **kwargs):
            raise Killed()

        with TrialDatabase(str(tmp_path / "svc.sqlite")) as db:
            source = LocalJobs(db, "w1", 5.0, Doorbell())
            source.queue.enqueue("s", 1, "p")
            job = source.queue.lease("w1")
            with monkeypatch.context() as patch:
                patch.setattr(MachineRegistry, "record_done", die)
                with pytest.raises(Killed):
                    source.complete(job, b"r1")
            assert source.queue.get("s", 1).state == LEASED
            assert source.registry.get("w1").jobs_done == 0
            assert source.complete(job, b"r1")
            assert source.queue.get("s", 1).state == DONE
            assert source.registry.get("w1").jobs_done == 1


class TestSessions:
    def spec(self, **overrides):
        base = dict(workload="IC", seed=3, samples=100, max_trials=4)
        base.update(overrides)
        return SessionSpec(**base)

    def test_create_get_roundtrip(self):
        db = TrialDatabase()
        store = SessionStore(db)
        session_id = store.create(self.spec())
        record = store.get(session_id)
        assert record.state == S_QUEUED
        assert record.spec == self.spec()
        assert record.result is None
        assert not record.resumable  # queued: nothing to resume

    def test_unknown_session_raises(self):
        store = SessionStore(TrialDatabase())
        with pytest.raises(ServiceError):
            store.get("nope")

    def test_invalid_system_rejected(self):
        with pytest.raises(ServiceError):
            SessionSpec(system="hierarchical")

    def test_claim_next_queued_is_ordered_and_exclusive(self):
        store = SessionStore(TrialDatabase())
        first = store.create(self.spec(seed=1))
        second = store.create(self.spec(seed=2))
        claimed = store.claim_next_queued()
        assert claimed.id == first
        assert claimed.state == S_RUNNING
        assert store.claim_next_queued().id == second
        assert store.claim_next_queued() is None

    def test_finish_stores_result_and_ends_resumability(self):
        store = SessionStore(TrialDatabase())
        session_id = store.create(self.spec())
        store.claim_next_queued()
        assert store.get(session_id).resumable  # running: interrupted
        store.finish(session_id, {"num_trials": 4})
        record = store.get(session_id)
        assert record.state == S_DONE
        assert record.result == {"num_trials": 4}
        assert not record.resumable

    def test_fail_records_error(self):
        store = SessionStore(TrialDatabase())
        session_id = store.create(self.spec())
        store.fail(session_id, "Traceback: boom")
        record = store.get(session_id)
        assert record.state == S_FAILED
        assert "boom" in record.error

    def test_gc_purges_old_finished_sessions_and_jobs(self):
        db = TrialDatabase()
        store = SessionStore(db)
        queue = JobQueue(db)
        old = store.create(self.spec(seed=1))
        store.finish(old, {})
        fresh = store.create(self.spec(seed=2))
        queue.enqueue(old, 1, "p")
        queue.enqueue(fresh, 1, "p")
        for session_id in (old, fresh):
            queue.record_merge(session_id, 1, 1, b"note")
        queue.lease("dead", ttl_s=-1.0, session_id=fresh)  # already expired
        counts = store.gc(max_age_s=-1.0)
        assert counts["sessions_deleted"] == 1
        assert counts["jobs_deleted"] == 1
        assert counts["leases_reclaimed"] == 1
        with pytest.raises(ServiceError):
            store.get(old)
        assert store.get(fresh).id == fresh
        assert queue.get(fresh, 1) is not None
        assert db.execute(
            "SELECT session_id FROM merge_notes"
        ).fetchall() == [(fresh,)]


class TestClockSkewHardening:
    """S1: the janitor's expiry judgement must survive wall-clock steps.

    Lease *stamps* stay wall-clock (cross-process comparable); only the
    janitor's notion of "now" is cross-checked against the monotonic
    clock.  Both skew orderings are pinned: a forward step must not
    mass-expire healthy leases, a backward step must not keep a dead
    worker's lease alive.
    """

    def test_forward_step_does_not_mass_expire_healthy_leases(
        self, frozen_clock
    ):
        from repro.service.queue import SKEW_GRACE_S

        db, queue = make_queue()  # anchors read the frozen clock
        queue.enqueue("s", 1, "p")
        job = queue.lease("w", ttl_s=60.0)
        assert job is not None
        frozen_clock.advance(10.0)
        frozen_clock.step_wall(3600.0)  # NTP jumps the wall an hour ahead
        # Wall-clock "now" is far past the lease stamp, but the healthy
        # lease must survive: the janitor holds the pre-step timeline.
        assert queue.reclaim_expired() == 0
        assert db.execute(
            "SELECT state FROM jobs WHERE trial_id = 1"
        ).fetchone()[0] == LEASED
        # The worker heartbeats during the grace window, re-stamping its
        # lease under the stepped clock...
        frozen_clock.advance(5.0)
        assert queue.heartbeat(job.id, "w", ttl_s=60.0)
        # ...so once the grace window lapses and the janitor adopts the
        # stepped wall clock, the lease is still honoured.
        frozen_clock.advance(SKEW_GRACE_S + 1.0)
        assert queue.heartbeat(job.id, "w", ttl_s=60.0)
        assert queue.reclaim_expired() == 0

    def test_forward_step_still_reclaims_after_grace_without_heartbeat(
        self, frozen_clock
    ):
        from repro.service.queue import SKEW_GRACE_S

        db, queue = make_queue()  # anchors read the frozen clock
        queue.enqueue("s", 1, "p")
        assert queue.lease("w", ttl_s=60.0) is not None
        frozen_clock.step_wall(3600.0)
        assert queue.reclaim_expired() == 0  # grace holds
        # A worker that never re-stamps through the whole grace window is
        # genuinely dead: adopting the stepped clock reclaims its lease.
        frozen_clock.advance(SKEW_GRACE_S + 61.0)
        assert queue.reclaim_expired() == 1
        assert db.execute(
            "SELECT state FROM jobs WHERE trial_id = 1"
        ).fetchone()[0] == QUEUED

    def test_backward_step_still_reclaims_dead_lease(self, frozen_clock):
        db, queue = make_queue()  # anchors read the frozen clock
        queue.enqueue("s", 1, "p")
        assert queue.lease("w", ttl_s=60.0) is not None
        # The worker dies; the wall clock then steps back an hour.  A
        # purely wall-clock janitor would judge the lease alive for the
        # next hour; the monotonic timeline says it expired 10s ago.
        frozen_clock.step_wall(-3600.0)
        frozen_clock.advance(70.0)
        assert queue.reclaim_expired() == 1
        assert db.execute(
            "SELECT state FROM jobs WHERE trial_id = 1"
        ).fetchone()[0] == QUEUED

    def test_agreeing_clocks_use_wall_time_directly(self, frozen_clock):
        db, queue = make_queue()  # anchors read the frozen clock
        queue.enqueue("s", 1, "p")
        assert queue.lease("w", ttl_s=60.0) is not None
        frozen_clock.advance(59.0)
        assert queue.reclaim_expired() == 0
        frozen_clock.advance(2.0)  # natural expiry, no skew anywhere
        assert queue.reclaim_expired() == 1
