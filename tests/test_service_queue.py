"""Tests for the service substrate: migrations, job queue, sessions."""

import json
import os
import sqlite3

import pytest

from repro.errors import ServiceError
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
    QUEUED,
)
from repro.service.sessions import S_DONE, S_FAILED, S_QUEUED, S_RUNNING
from repro.storage import BUSY_TIMEOUT_MS, SCHEMA_VERSION, TrialDatabase
from repro.storage.database import MIGRATIONS, PRE_V9_INTERRUPTED
from tests.test_session_goldens import GOLDENS, digest


def make_queue():
    db = TrialDatabase()
    return db, JobQueue(db)


#: The columns each migration step added (or dropped) by hand.
_LADDER_ALTERS = {
    5: ["jobs ADD COLUMN error_history TEXT NOT NULL DEFAULT '[]'"],
    7: ["jobs ADD COLUMN shard INTEGER NOT NULL DEFAULT 0"],
    8: ["jobs ADD COLUMN lease_epoch INTEGER NOT NULL DEFAULT 0",
        "artifacts ADD COLUMN checksum TEXT"],
    9: ["jobs ADD COLUMN merge_seq INTEGER",
        "jobs ADD COLUMN merge_note BLOB",
        "sessions ADD COLUMN history_upto INTEGER",
        "sessions DROP COLUMN checkpoint"],
}


def build_ladder(raw, version):
    """Write the schema as it stood at ``version`` into ``raw``."""
    for target, script in MIGRATIONS[:version]:
        for alter in _LADDER_ALTERS.get(target, ()):
            raw.execute(f"ALTER TABLE {alter}")
        raw.executescript(script)
    raw.execute(f"PRAGMA user_version = {version}")


class TestMigrations:
    def test_fresh_database_is_current(self):
        db = TrialDatabase()
        assert db.schema_version == SCHEMA_VERSION
        tables = {
            row[0]
            for row in db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
        }
        assert {"trials", "inference_results", "sessions", "jobs"} <= tables

    def test_legacy_v0_database_upgrades_in_place(self, tmp_path):
        """A pre-migration file (no user_version, no created_at column)
        must upgrade on open with its rows intact."""
        path = os.path.join(tmp_path, "legacy.sqlite")
        raw = sqlite3.connect(path)
        raw.executescript(
            """
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
                train_energy_j REAL NOT NULL
            );
            INSERT INTO trials (experiment, trial_id, configuration,
                fidelity, epochs, data_fraction, accuracy, score,
                train_runtime_s, train_energy_j)
            VALUES ('old', 3, '{}', 1, 1, 1.0, 0.5, 2.0, 10.0, 20.0);
            """
        )
        raw.commit()
        raw.close()
        with TrialDatabase(path) as db:
            assert db.schema_version == SCHEMA_VERSION
            columns = {
                row[1]
                for row in db.execute(
                    "PRAGMA table_info(trials)"
                ).fetchall()
            }
            assert "created_at" in columns
            rows = db.trials_for("old")
            assert len(rows) == 1 and rows[0]["trial_id"] == 3
            indexes = {
                row[0]
                for row in db.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                ).fetchall()
            }
            assert "idx_trials_experiment_created" in indexes

    def test_v8_database_upgrades_to_the_job_log(self, tmp_path):
        """v9 drops the run-state snapshot column.  A session that was
        still resumable from a snapshot cannot be replayed (its merges
        have no notes) and fails with the resubmit message; a queued one
        runs to its golden result; one interrupted before its first
        snapshot has nothing to replay wrongly and stays resumable."""
        path = os.path.join(tmp_path, "v8.sqlite")
        raw = sqlite3.connect(path)
        build_ladder(raw, 8)
        spec = SessionSpec(workload="NLP", device="armv7", seed=7,
                           samples=GOLDENS["NLP"]["samples"])
        stored = json.dumps(spec.to_dict(), sort_keys=True)
        for session_id, state, checkpoint in (
            ("crashed", S_FAILED, b"\x80snapshot"),
            ("started", S_RUNNING, None),
            ("waiting", S_QUEUED, None),
        ):
            raw.execute(
                "INSERT INTO sessions (id, spec, state, checkpoint, error, "
                "created_at, updated_at) VALUES (?, ?, ?, ?, ?, 1, 1)",
                (session_id, stored, state, checkpoint,
                 "Traceback: boom" if state == S_FAILED else None),
            )
        raw.commit()
        raw.close()

        with TrialDatabase(path) as db:
            assert db.schema_version == SCHEMA_VERSION == 10
            columns = {
                row[1]
                for row in db.execute("PRAGMA table_info(sessions)")
            }
            assert "checkpoint" not in columns
            store = SessionStore(db)
            crashed = store.get("crashed")
            assert crashed.state == S_FAILED
            assert crashed.error == PRE_V9_INTERRUPTED
            assert not crashed.resumable
            with pytest.raises(ServiceError, match="resubmit"):
                SessionCoordinator(db, "crashed").run()
            assert store.get("crashed").error == PRE_V9_INTERRUPTED
            assert store.get("started").resumable
            assert store.get("waiting").state == S_QUEUED
            result = SessionCoordinator(db, "waiting").run()
            assert digest(result) == GOLDENS["NLP"]["digest"]

    def test_v9_database_upgrades_to_one_queue(self, tmp_path):
        """v10 drops the fleet's shard columns and the indexes over them;
        the rows survive, and a job queued on shard 1 is leasable by any
        host that runs its workload."""
        path = os.path.join(tmp_path, "v9.sqlite")
        raw = sqlite3.connect(path)
        build_ladder(raw, 9)
        raw.execute(
            "INSERT INTO jobs (session_id, trial_id, payload, created_at, "
            "shard) VALUES ('s', 1, ?, 1, 1)",
            (json.dumps({"workload_id": "IC"}),),
        )
        raw.execute(
            "INSERT INTO machines (id, hostname, shard, registered_at, "
            "last_heartbeat_at) VALUES ('m1', 'edge-a', 1, 1, 1)"
        )
        raw.commit()
        raw.close()

        with TrialDatabase(path) as db:
            assert db.schema_version == SCHEMA_VERSION == 10
            for table in ("jobs", "machines"):
                assert "shard" not in {
                    row[1] for row in db.execute(f"PRAGMA table_info({table})")
                }
            indexes = dict(db.execute(
                "SELECT name, sql FROM sqlite_master WHERE type = 'index' "
                "AND sql IS NOT NULL"
            ).fetchall())
            assert "idx_jobs_claim_shard" not in indexes
            assert "shard" not in indexes["idx_machines_state"]
            assert MachineRegistry(db).get("m1").hostname == "edge-a"
            job = JobQueue(db).lease("m2/w0", workloads=["IC"])
            assert job is not None and job.trial_id == 1

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

    def test_file_database_uses_wal_and_busy_timeout(self, tmp_path):
        path = os.path.join(tmp_path, "wal.sqlite")
        with TrialDatabase(path) as db:
            mode = db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            timeout = db.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout == BUSY_TIMEOUT_MS


class TestJobQueue:
    def test_enqueue_is_idempotent(self):
        _, queue = make_queue()
        assert queue.enqueue("s", 1, "payload-a") is True
        assert queue.enqueue("s", 1, "payload-b") is False
        assert queue.get("s", 1).payload == "payload-a"
        assert queue.depths("s")[QUEUED] == 1

    def test_lease_claims_oldest_runnable(self):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p1", now=10.0)
        queue.enqueue("s", 2, "p2", now=11.0)
        job = queue.lease("w1", now=20.0)
        assert job.trial_id == 1
        assert job.state == LEASED
        assert job.attempts == 1
        assert job.lease_owner == "w1"
        other = queue.lease("w2", now=20.0)
        assert other.trial_id == 2
        assert queue.lease("w3", now=20.0) is None

    def test_lease_honours_retry_backoff_time(self):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p", now=0.0)
        job = queue.lease("w1", now=0.0)
        queue.fail(job.id, "w1", "boom", now=1.0)
        delay = backoff_delay(1)
        assert queue.lease("w1", now=1.0 + delay / 2) is None
        retry = queue.lease("w1", now=1.0 + delay)
        assert retry is not None and retry.attempts == 2

    def test_heartbeat_extends_only_the_owner(self):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p")
        job = queue.lease("w1", ttl_s=5.0, now=0.0)
        assert queue.heartbeat(job.id, "w1", ttl_s=5.0, now=3.0) is True
        assert queue.get("s", 1).lease_expires_at == 8.0
        assert queue.heartbeat(job.id, "intruder", now=3.0) is False

    def test_complete_requires_a_held_lease(self):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p")
        job = queue.lease("w1", ttl_s=1.0, now=0.0)
        # Lease expires; the job is reclaimed and re-leased by w2.
        assert queue.reclaim_expired(now=2.0) == 1
        retry = queue.lease("w2", now=2.0 + backoff_delay(1))
        assert retry is not None
        # The zombie's completion is rejected; the new owner's wins.
        assert queue.complete(job.id, "w1", b"zombie") is False
        assert queue.complete(retry.id, "w2", b"fresh") is True
        done = queue.get("s", 1)
        assert done.state == DONE
        assert done.result == b"fresh"
        assert done.lease_owner == "w2"  # kept as the finisher record

    def test_fail_exhausts_attempts_then_terminal(self):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p", max_attempts=2)
        now = 0.0
        job = queue.lease("w", now=now)
        queue.fail(job.id, "w", "first", now=now)
        requeued = queue.get("s", 1)
        assert requeued.state == QUEUED
        assert requeued.next_retry_at == now + backoff_delay(1)
        now += backoff_delay(1)
        job = queue.lease("w", now=now)
        assert job.attempts == 2
        queue.fail(job.id, "w", "second", now=now)
        dead = queue.get("s", 1)
        assert dead.state == FAILED
        assert dead.error == "second"
        assert queue.lease("w", now=now + 1000.0) is None

    def test_reclaim_expired_requeues_dead_workers_jobs(self):
        _, queue = make_queue()
        queue.enqueue("s", 1, "p")
        queue.lease("doomed", ttl_s=1.0, now=0.0)
        assert queue.reclaim_expired(now=0.5) == 0  # still alive
        assert queue.reclaim_expired(now=2.0) == 1
        job = queue.get("s", 1)
        assert job.state == QUEUED
        assert job.lease_owner is None
        assert "doomed" in job.error

    def test_backoff_delay_is_capped_exponential(self):
        assert backoff_delay(1) == BACKOFF_BASE_S
        assert backoff_delay(2) == 2 * BACKOFF_BASE_S
        assert backoff_delay(3) == 4 * BACKOFF_BASE_S
        assert backoff_delay(50) == BACKOFF_CAP_S

    def test_results_for_and_worker_stats(self):
        _, queue = make_queue()
        for trial_id in (1, 2, 3):
            queue.enqueue("s", trial_id, "p", now=0.0)
        for worker in ("w1", "w2"):
            job = queue.lease(worker, now=1.0)
            queue.complete(job.id, worker, f"r{job.trial_id}".encode(),
                           now=3.0)
        results = queue.results_for("s", [1, 2, 3])
        assert results == {1: b"r1", 2: b"r2"}
        stats = {s["worker"]: s for s in queue.worker_stats("s")}
        assert stats["w1"]["jobs_done"] == 1
        assert stats["w1"]["busy_s"] == 2.0
        assert queue.depths("s") == {
            QUEUED: 1, LEASED: 0, DONE: 2, FAILED: 0,
        }


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
        queue.lease("dead", ttl_s=-1.0, session_id=fresh)  # already expired
        counts = store.gc(max_age_s=-1.0)
        assert counts["sessions_deleted"] == 1
        assert counts["jobs_deleted"] == 1
        assert counts["leases_reclaimed"] == 1
        with pytest.raises(ServiceError):
            store.get(old)
        assert store.get(fresh).id == fresh
        assert queue.get(fresh, 1) is not None


class TestClockSkewHardening:
    """S1: the janitor's expiry judgement must survive wall-clock steps.

    Lease *stamps* stay wall-clock (cross-process comparable); only the
    janitor's notion of "now" is cross-checked against the monotonic
    clock.  Both skew orderings are pinned: a forward step must not
    mass-expire healthy leases, a backward step must not keep a dead
    worker's lease alive.
    """

    class Clocks:
        def __init__(self, wall=1000.0, mono=500.0):
            self.wall = wall
            self.mono = mono

        def advance(self, dt):
            """Normal passage of time: both clocks tick together."""
            self.wall += dt
            self.mono += dt

        def step_wall(self, dt):
            """An NTP step: only the wall clock jumps."""
            self.wall += dt

    def patched_queue(self, monkeypatch):
        from repro.service import queue as queue_module

        clocks = self.Clocks()
        monkeypatch.setattr(queue_module, "_wall_clock", lambda: clocks.wall)
        monkeypatch.setattr(queue_module, "_mono_clock", lambda: clocks.mono)
        db = TrialDatabase()
        return clocks, db, JobQueue(db)  # anchors read the fakes

    def test_forward_step_does_not_mass_expire_healthy_leases(
        self, monkeypatch
    ):
        from repro.service.queue import SKEW_GRACE_S

        clocks, db, queue = self.patched_queue(monkeypatch)
        queue.enqueue("s", 1, "p", now=clocks.wall)
        job = queue.lease("w", ttl_s=60.0, now=clocks.wall)
        assert job is not None
        clocks.advance(10.0)
        clocks.step_wall(3600.0)  # NTP jumps the wall clock an hour ahead
        # Wall-clock "now" is far past the lease stamp, but the healthy
        # lease must survive: the janitor holds the pre-step timeline.
        assert queue.reclaim_expired() == 0
        assert db.execute(
            "SELECT state FROM jobs WHERE trial_id = 1"
        ).fetchone()[0] == LEASED
        # The worker heartbeats during the grace window, re-stamping its
        # lease under the stepped clock...
        clocks.advance(5.0)
        assert queue.heartbeat(job.id, "w", ttl_s=60.0, now=clocks.wall)
        # ...so once the grace window lapses and the janitor adopts the
        # stepped wall clock, the lease is still honoured.
        clocks.advance(SKEW_GRACE_S + 1.0)
        assert queue.heartbeat(job.id, "w", ttl_s=60.0, now=clocks.wall)
        assert queue.reclaim_expired() == 0

    def test_forward_step_still_reclaims_after_grace_without_heartbeat(
        self, monkeypatch
    ):
        from repro.service.queue import SKEW_GRACE_S

        clocks, db, queue = self.patched_queue(monkeypatch)
        queue.enqueue("s", 1, "p", now=clocks.wall)
        assert queue.lease("w", ttl_s=60.0, now=clocks.wall) is not None
        clocks.step_wall(3600.0)
        assert queue.reclaim_expired() == 0  # grace holds
        # A worker that never re-stamps through the whole grace window is
        # genuinely dead: adopting the stepped clock reclaims its lease.
        clocks.advance(SKEW_GRACE_S + 61.0)
        assert queue.reclaim_expired() == 1
        assert db.execute(
            "SELECT state FROM jobs WHERE trial_id = 1"
        ).fetchone()[0] == QUEUED

    def test_backward_step_still_reclaims_dead_lease(self, monkeypatch):
        clocks, db, queue = self.patched_queue(monkeypatch)
        queue.enqueue("s", 1, "p", now=clocks.wall)
        assert queue.lease("w", ttl_s=60.0, now=clocks.wall) is not None
        # The worker dies; the wall clock then steps back an hour.  A
        # purely wall-clock janitor would judge the lease alive for the
        # next hour; the monotonic timeline says it expired 10s ago.
        clocks.step_wall(-3600.0)
        clocks.advance(70.0)
        assert queue.reclaim_expired() == 1
        assert db.execute(
            "SELECT state FROM jobs WHERE trial_id = 1"
        ).fetchone()[0] == QUEUED

    def test_agreeing_clocks_use_wall_time_directly(self, monkeypatch):
        clocks, db, queue = self.patched_queue(monkeypatch)
        queue.enqueue("s", 1, "p", now=clocks.wall)
        assert queue.lease("w", ttl_s=60.0, now=clocks.wall) is not None
        clocks.advance(59.0)
        assert queue.reclaim_expired() == 0
        clocks.advance(2.0)  # natural expiry, no skew anywhere
        assert queue.reclaim_expired() == 1

    def test_explicit_now_bypasses_the_skew_detector(self, monkeypatch):
        """Simulated-time callers (tests, operators) keep full control."""
        clocks, db, queue = self.patched_queue(monkeypatch)
        queue.enqueue("s", 1, "p", now=clocks.wall)
        assert queue.lease("w", ttl_s=60.0, now=clocks.wall) is not None
        assert queue.reclaim_expired(now=clocks.wall + 61.0) == 1
