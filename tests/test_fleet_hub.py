"""Hub crash-safety: incarnation epochs, fencing, idempotent replay,
lease resync, and crash recovery of orphaned sessions.

These tests drive :meth:`FleetServer.handle_line` (the documented
unit-test seam) with *two* server incarnations over one database — the
in-process equivalent of ``kill -9``-ing the hub and restarting it.  The
full subprocess SIGKILL choreography lives in
``tests/test_faults_fleet.py``; here every protocol consequence of a
restart is pinned down deterministically:

* the epoch advances monotonically, once per hub start;
* mutation frames carrying a pre-crash epoch are fenced (and told to
  re-register), while frames without an epoch stay trusted;
* a ``complete`` replayed across the crash lands exactly once;
* ``resync`` re-adopts still-held leases under the new epoch and drops
  reclaimed ones;
* ``running`` sessions orphaned by the dead hub are requeued, to resume
  from their job logs.

It also holds the one-queue regression: a session claimed before any
host has joined is served by the first host that does.
"""

import json
import threading
import time

import pytest

from repro.fleet.host import RemoteHost
from repro.fleet.registry import HubState
from repro.fleet.server import FleetServer
from repro.fleet.wire import pack_bytes
from repro.service import JobQueue, SessionSpec, SessionStore
from repro.service.queue import (
    DONE, LEASED, MAX_HISTORY_ENTRIES, QUEUED,
)
from repro.service.sessions import S_QUEUED, S_RUNNING
from repro.storage import TrialDatabase

from tests.test_fleet import SPEC


def frame(op, **params):
    return json.dumps(dict(params, op=op)).encode()


@pytest.fixture()
def database(tmp_path):
    db = TrialDatabase(str(tmp_path / "hub.sqlite"))
    try:
        yield db
    finally:
        db.close()


def start_hub(database, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("lease_ttl_s", 5.0)
    return FleetServer(database, **kwargs)


def lease_one(server, machine_id="m1", worker="w0", trial_id=1):
    """Register, enqueue one job, lease it."""
    server.handle_line(frame("register", machine_id=machine_id))
    server.queue.enqueue("sess", trial_id, "{}")
    response = server.handle_line(frame(
        "lease", machine_id=machine_id, worker=worker,
        epoch=server.epoch,
    ))
    assert response["ok"] and response["job"] is not None
    return response["job"]


class TestHubEpoch:
    def test_epoch_advances_once_per_incarnation(self, database):
        first = start_hub(database)
        assert first.epoch == 1
        assert first.recovery == {"epoch": 1, "sessions_requeued": 0}
        first.server_close()
        second = start_hub(database)
        assert second.epoch == 2
        assert HubState(database).current_epoch() == 2
        # The first boot is not a "restart"; every one after is.
        assert second.database.stats().get("hub.restarts") == 1.0
        second.server_close()

    def test_register_and_status_expose_epoch(self, database):
        server = start_hub(database)
        try:
            joined = server.handle_line(frame("register", machine_id="m1"))
            assert joined["epoch"] == server.epoch == 1
            status = server.handle_line(frame("status"))
            assert status["epoch"] == 1
            assert status["recovery"]["sessions_requeued"] == 0
        finally:
            server.server_close()

    def test_leases_are_stamped_with_the_granting_epoch(self, database):
        server = start_hub(database)
        try:
            job = lease_one(server)
            stored = server.queue.get("sess", 1)
            assert stored.lease_epoch == server.epoch == 1
            assert job["id"] == stored.id
        finally:
            server.server_close()


class TestFencing:
    def _crashed_hub(self, database):
        """Lease a job under epoch 1, then 'crash' the hub and return
        (job, new incarnation).  The host still believes it holds the
        lease and still believes the epoch is 1."""
        old = start_hub(database)
        job = lease_one(old)
        old.server_close()  # SIGKILL, as far as the database can tell
        return job, start_hub(database)

    def test_stale_epoch_mutations_are_fenced(self, database):
        job, hub = self._crashed_hub(database)
        try:
            for op, extra in (
                ("extend", {}),
                ("fail", {"error": "boom"}),
                ("complete", {"result": pack_bytes(b"bits")}),
                ("lease", {}),
            ):
                response = hub.handle_line(frame(
                    op, machine_id="m1", worker="w0", job_id=job["id"],
                    epoch=1, **extra,
                ))
                assert not response["ok"], op
                assert response["fenced"] and response["reregister"], op
                assert response["epoch"] == 2, op
            # Nothing mutated: the job is still leased, unfinished.
            stored = hub.queue.get("sess", 1)
            assert stored.state == LEASED and stored.result is None
            assert hub.database.stats()["hub.fenced_frames"] == 4.0
        finally:
            hub.server_close()

    def test_frames_without_epoch_stay_trusted(self, database):
        """Back-compat: pre-epoch clients (and in-process tests) omit
        the field entirely — they must keep working across a restart."""
        job, hub = self._crashed_hub(database)
        try:
            response = hub.handle_line(frame(
                "complete", machine_id="m1", worker="w0",
                job_id=job["id"], result=pack_bytes(b"bits"),
            ))
            assert response["ok"] and response["accepted"]
            assert hub.queue.get("sess", 1).state == DONE
        finally:
            hub.server_close()

    def test_resync_readopts_held_leases_under_new_epoch(self, database):
        job, hub = self._crashed_hub(database)
        try:
            response = hub.handle_line(frame(
                "resync", machine_id="m1",
                held={str(job["id"]): "w0"},
            ))
            assert response["ok"]
            assert response["renewed"] == [job["id"]]
            assert response["dropped"] == []
            assert response["epoch"] == 2
            assert hub.queue.get("sess", 1).lease_epoch == 2
            # The re-adopted lease completes under the new epoch.
            done = hub.handle_line(frame(
                "complete", machine_id="m1", worker="w0",
                job_id=job["id"], epoch=2,
                result=pack_bytes(b"bits"),
            ))
            assert done["ok"] and done["accepted"]
            assert not done["duplicate"]
        finally:
            hub.server_close()

    def test_resync_drops_leases_reclaimed_in_the_interim(self, database):
        job, hub = self._crashed_hub(database)
        try:
            # The janitor got there first: the machine was declared dead
            # during the partition and its leases were drained.
            assert hub.queue.reclaim_owner("m1") == 1
            response = hub.handle_line(frame(
                "resync", machine_id="m1",
                held={str(job["id"]): "w0"},
            ))
            assert response["ok"]
            assert response["renewed"] == []
            assert response["dropped"] == [job["id"]]
            # The host must abandon the attempt; its complete is now a
            # zombie's and is rejected.
            late = hub.handle_line(frame(
                "complete", machine_id="m1", worker="w0",
                job_id=job["id"], epoch=2,
                result=pack_bytes(b"stale"),
            ))
            assert late["ok"] and not late["accepted"]
        finally:
            hub.server_close()

    def test_complete_replay_across_crash_lands_exactly_once(
        self, database
    ):
        """The acceptance race: the worker sent its result, the hub
        crashed, and the worker cannot know whether the write landed.
        It resends with its stale epoch; the replay must be acknowledged
        (not fenced) and must not double-count."""
        old = start_hub(database)
        job = lease_one(old)
        first = old.handle_line(frame(
            "complete", machine_id="m1", worker="w0", job_id=job["id"],
            epoch=1, result=pack_bytes(b"bits"),
        ))
        assert first["ok"] and first["accepted"]
        old.server_close()  # ...the ack, however, was lost to the crash
        hub = start_hub(database)
        try:
            replay = hub.handle_line(frame(
                "complete", machine_id="m1", worker="w0",
                job_id=job["id"], epoch=1,
                result=pack_bytes(b"other-bits"),
            ))
            assert replay["ok"] and replay["accepted"]
            assert replay["duplicate"]
            stored = hub.queue.get("sess", 1)
            assert stored.result == b"bits"  # the first write won
            assert hub.registry.get("m1").jobs_done == 1  # not re-counted
            assert (
                hub.database.stats()["hub.replayed_completions"] == 1.0
            )
        finally:
            hub.server_close()


class TestCrashRecovery:
    def test_orphaned_running_sessions_are_requeued(self, database):
        store = SessionStore(database)
        running = store.create(SessionSpec(**SPEC))
        queued = store.create(SessionSpec(**SPEC))
        claimed = store.claim_next_queued()
        assert claimed is not None and claimed.id == running
        assert store.get(running).state == S_RUNNING
        hub = start_hub(database)
        try:
            assert hub.recovery["sessions_requeued"] == 1
            assert store.get(running).state == S_QUEUED
            assert store.get(queued).state == S_QUEUED
        finally:
            hub.server_close()


class TestOneQueue:
    def test_session_claimed_before_any_host_is_served(
        self, database, tmp_path
    ):
        """A session the hub claims while no host is registered must be
        leased by the first host that joins.  (With per-shard queues,
        session ``stall-c`` hashed onto shard 1 of an empty fleet and the
        lone host was placed on shard 0: nothing was ever served.)"""
        server = start_hub(database)
        threads = [threading.Thread(
            target=server.serve_until_drained, daemon=True
        )]
        SessionStore(database).create(
            SessionSpec(**dict(SPEC, max_trials=2)), session_id="stall-c"
        )
        results = []
        threads.append(threading.Thread(
            target=lambda: results.extend(server.run_sessions(drain=True)),
            daemon=True,
        ))
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while not server.queue.jobs_for("stall-c"):
            assert time.monotonic() < deadline, "stall-c was never claimed"
            time.sleep(0.01)
        assert server.registry.list() == []

        host = RemoteHost("m1", "127.0.0.1", server.port,
                          db_path=str(tmp_path / "m1.db"))
        stop = threading.Event()
        try:
            job = host.hub.lease(1.0, stop)  # registers, then leases
            assert [machine.id for machine in server.registry.list()] == [
                "m1"
            ]
            assert job is not None and job.session_id == "stall-c"
            # The same machine runs that job and serves the rest.
            host.run_job(job)
            threads.append(threading.Thread(
                target=host.run_forever, args=(stop,), daemon=True
            ))
            threads[-1].start()
            threads[1].join(timeout=60.0)
            assert [len(result.trials) for result in results] == [2]
        finally:
            stop.set()
            server.initiate_drain()
            for thread in threads:
                thread.join(timeout=10.0)
            host.close()
            server.server_close()


class TestReclaimCompleteRace:
    """Satellite: the janitor's dead-host drain racing a live host's
    ``complete`` of the same lease.  Exactly one side wins, in both
    orderings — the loser's effect is a clean no-op."""

    def _leased(self, database):
        queue = JobQueue(database)
        queue.enqueue("sess", 1, "{}")
        job = queue.lease("m1/w0", ttl_s=30.0)
        assert job is not None
        return queue, job

    def test_complete_first_reclaim_is_noop(self, database):
        queue, job = self._leased(database)
        assert queue.complete(job.id, "m1/w0", b"bits")
        # The janitor declared m1 dead a moment too late: the job is
        # already DONE, so the prefix drain finds nothing to release.
        assert queue.reclaim_owner("m1") == 0
        stored = queue.get("sess", 1)
        assert stored.state == DONE and stored.result == b"bits"
        assert stored.attempts == 1

    def test_reclaim_first_complete_is_rejected(self, database):
        queue, job = self._leased(database)
        assert queue.reclaim_owner("m1") == 1
        # The "dead" host was actually alive and finishes a beat later:
        # its lease is gone, so the completion must not land.
        assert not queue.complete(job.id, "m1/w0", b"zombie-bits")
        assert not queue.is_done_by(job.id, "m1/w0")
        stored = queue.get("sess", 1)
        assert stored.state == QUEUED and stored.result is None
        # The retry owns the outcome and completes normally.
        retry = queue.lease("m2/w0", now=stored.next_retry_at + 1.0)
        assert retry is not None and retry.attempts == 2
        assert queue.complete(retry.id, "m2/w0", b"clean-bits")
        assert queue.get("sess", 1).result == b"clean-bits"


class TestErrorHistoryCap:
    def test_error_history_keeps_most_recent_entries(self, database):
        """Satellite: a hot-looping poison job must not grow its row
        without bound — only the newest attempts are retained."""
        queue = JobQueue(database)
        rounds = MAX_HISTORY_ENTRIES + 10
        queue.enqueue("sess", 1, "{}", max_attempts=rounds + 5)
        now = 1_000.0
        for attempt in range(1, rounds + 1):
            job = queue.lease("w0", now=now)
            assert job is not None
            assert queue.fail(job.id, "w0", f"boom {attempt}", now=now)
            now += 100.0  # clears any retry backoff
        history = queue.get("sess", 1).history()
        assert len(history) == MAX_HISTORY_ENTRIES
        assert history[-1]["error"] == f"boom {rounds}"
        assert history[0]["error"] == f"boom {rounds - MAX_HISTORY_ENTRIES + 1}"
        # Entries are still in attempt order after the cap.
        attempts = [entry["attempt"] for entry in history]
        assert attempts == sorted(attempts)
