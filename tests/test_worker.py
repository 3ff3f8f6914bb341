"""The trial worker's per-job overhead: one lease renewer per worker, and
one model pickle per cold job.

A worker holds one long-lived :class:`~repro.clock.Periodic` that renews
the lease of whichever job the worker is running, instead of a thread
started and joined around every job.  These tests pin what that must
keep: one renewal thread in a worker's lifetime, none left after
``close()``, and a new one only when the lease TTL changes its period;
a job that outlives many heartbeats keeps its lease; a
renewal that raises costs one tick, not the thread; a lost lease is no
longer renewed; and a renewal that races a completion changes nothing —
in the local queue or at the fleet hub.
"""

import collections
import pickle
import sqlite3
import sys
import threading
import time

import pytest

from repro import clock
from repro.artifacts import trial_key
from repro.fleet.host import HubJobs
from repro.fleet.server import FleetServer
from repro.nn.module import Module
from repro.service import JobQueue, SessionCoordinator
from repro.service.queue import DONE, LEASED
from repro.service.worker import TrialWorker
from repro.storage import TrialDatabase

from tests.clocks import frozen_clock  # noqa: F401 (fixture)
from tests.test_artifacts import make_task
from tests.test_service_coordinator import make_session


@pytest.fixture
def renewers(monkeypatch):
    """Every :class:`~repro.clock.Periodic` made while the test runs."""
    made = []

    class Recorded(clock.Periodic):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(clock, "Periodic", Recorded)
    return made


class SleepyWorker(TrialWorker):
    """A worker whose trial is ``during(job)`` (default: a short sleep)
    instead of training; the job completes with ``b"bits"``."""

    during = None

    def run_job(self, job):
        self.current = job
        super().run_job(job)

    def _evaluate(self, task, attempt):
        if self.during is not None:
            self.during(self.current)
        else:
            time.sleep(0.01)
        return b"bits"


def enqueue(database, count):
    queue = JobQueue(database)
    for trial_id in range(count):
        queue.enqueue("sess", trial_id, make_task(trial_id=trial_id).to_json())
    return queue


def drain(worker):
    """Lease and run jobs until the queue is empty."""
    while True:
        job = worker.source.lease(0.0, threading.Event())
        if job is None:
            return
        worker.run_leased(job)


class TestOneRenewerPerWorker:
    def test_n_jobs_start_one_thread_and_close_stops_it(self, renewers):
        database = TrialDatabase()
        enqueue(database, 5)
        worker = SleepyWorker(database=database, worker_id="w")
        assert renewers == []  # started by the first job, not before
        drain(worker)
        assert worker.jobs_done == 5
        assert len(renewers) == 1
        thread = renewers[0]._thread
        assert thread.is_alive()
        worker.close()
        assert not thread.is_alive()
        database.close()

    def test_inline_worker_of_a_session(self, renewers):
        database = TrialDatabase()
        session_id, _ = make_session(database, samples=160, max_trials=8)
        SessionCoordinator(database, session_id, workers=0).run()
        (inline,) = database.execute(
            "SELECT COUNT(*) FROM jobs WHERE lease_owner = 'inline'"
        ).fetchone()
        assert inline >= 2
        assert len(renewers) == 1
        assert not renewers[0]._thread.is_alive()
        database.close()

    def test_a_shorter_ttl_restarts_the_renewer_at_its_period(
        self, tmp_path, renewers
    ):
        """A fleet host adopts a restarted hub's ``lease_ttl_s`` between
        jobs.  From 10 s to 0.3 s, the 2.5 s renewer would let every
        lease expire between renewals; the next job gets a renewer at
        the new TTL's period instead, and a sibling reclaiming all
        through its 4-TTL trial finds nothing to reclaim."""
        database = TrialDatabase(str(tmp_path / "q.sqlite"))
        queue = enqueue(database, 2)
        worker = SleepyWorker(database=database, worker_id="w",
                              lease_ttl_s=10.0)
        renewed = []
        renew = worker.source.renew

        def counted(job):
            renewed.append((job.trial_id, time.monotonic()))
            return renew(job)

        worker.source.renew = counted
        reclaimed = []

        def trial(job):
            if job.trial_id == 0:
                return
            until = time.monotonic() + 4 * worker.source.lease_ttl_s
            while time.monotonic() < until:
                time.sleep(0.02)
                reclaimed.append(queue.reclaim_expired())

        worker.during = trial
        worker.run_leased(worker.source.lease(0.0, threading.Event()))
        worker.source.lease_ttl_s = 0.3
        started = time.monotonic()
        worker.run_leased(worker.source.lease(0.0, threading.Event()))
        first, second = renewers
        assert first.interval_s == 2.5 and second.interval_s == 0.075
        assert not first._thread.is_alive() and second._thread.is_alive()
        worker.close()
        assert not second._thread.is_alive()
        assert [job.attempts for job in queue.jobs_for("sess")] == [1, 1]
        assert [job.state for job in queue.jobs_for("sess")] == [DONE] * 2
        assert sum(reclaimed) == 0
        times = [started] + [at for trial_id, at in renewed if trial_id == 1]
        assert len(times) > 10
        assert max(b - a for a, b in zip(times, times[1:])) < 0.3
        database.close()


class TestRenewal:
    TTL_S = 0.4
    INTERVAL_S = 0.04

    def worker(self, database, during):
        worker = SleepyWorker(
            database=database, worker_id="w", lease_ttl_s=self.TTL_S,
            heartbeat_interval_s=self.INTERVAL_S,
        )
        worker.during = during
        return worker

    def test_job_outliving_many_heartbeats_keeps_its_lease(self, tmp_path):
        """A sibling reclaiming expired leases all through a 4-TTL job
        finds nothing to reclaim: the job completes on its first
        attempt."""
        database = TrialDatabase(str(tmp_path / "q.sqlite"))
        queue = enqueue(database, 1)
        reclaimed = []

        def long_trial(job):
            until = time.monotonic() + 4 * self.TTL_S
            while time.monotonic() < until:
                time.sleep(self.INTERVAL_S)
                reclaimed.append(queue.reclaim_expired())

        worker = self.worker(database, long_trial)
        drain(worker)
        worker.close()
        (job,) = queue.jobs_for("sess")
        assert job.state == DONE and job.attempts == 1
        assert sum(reclaimed) == 0 and len(reclaimed) > 10
        database.close()

    def test_renewal_error_does_not_stop_the_renewer(self, tmp_path):
        """The renewer outlives every job, so a renewal that raises (a
        wedged database) must cost one tick, not the thread."""
        database = TrialDatabase(str(tmp_path / "q.sqlite"))
        queue = enqueue(database, 1)
        worker = self.worker(database, lambda job: time.sleep(4 * self.TTL_S))
        calls = []
        renew = worker.source.renew

        def flaky(job):
            calls.append(job.id)
            if len(calls) <= 2:
                raise sqlite3.OperationalError("disk I/O error")
            return renew(job)

        worker.source.renew = flaky
        drain(worker)
        thread = worker._renewer._thread
        assert thread.is_alive()
        worker.close()
        (job,) = queue.jobs_for("sess")
        assert job.state == DONE and job.attempts == 1
        assert len(calls) > 10
        database.close()

    def test_lost_lease_is_no_longer_renewed(self):
        database = TrialDatabase()
        queue = enqueue(database, 1)
        worker = self.worker(database, None)
        calls = []
        renew = worker.source.renew

        def counted(job):
            renewed = renew(job)
            calls.append(renewed)
            return renewed

        worker.source.renew = counted
        seen = {}

        def stolen(job):
            time.sleep(3 * self.INTERVAL_S)
            seen["before_loss"] = list(calls)
            database.execute(
                "UPDATE jobs SET lease_owner = 'thief' WHERE id = ?",
                (job.id,),
            )
            deadline = time.monotonic() + 5.0
            while False not in calls and time.monotonic() < deadline:
                time.sleep(self.INTERVAL_S / 4)
            seen["after_loss"] = len(calls)
            seen["held"] = worker._job
            time.sleep(5 * self.INTERVAL_S)
            seen["later"] = len(calls)

        worker.during = stolen
        drain(worker)
        worker.close()
        assert seen["before_loss"] and all(seen["before_loss"])
        assert calls.count(False) == 1
        assert seen["held"] is None
        assert seen["later"] == seen["after_loss"]
        assert worker.jobs_done == 0  # the thief owns the job now
        database.close()

    def test_stale_tick_does_not_clear_the_next_job(self):
        """A tick that read job A, then lost the race with A's completion,
        must not stop the renewals of job B the worker holds by then."""
        database = TrialDatabase()
        queue = enqueue(database, 2)
        worker = self.worker(database, None)
        first = worker.source.lease(0.0, threading.Event())
        reached, go = threading.Event(), threading.Event()
        renew = worker.source.renew

        def slow_for_first(job):
            if job.id == first.id:
                reached.set()
                go.wait(5.0)
            return renew(job)

        worker.source.renew = slow_for_first
        worker._hold(first)
        tick = threading.Thread(target=worker._renew)
        tick.start()
        assert reached.wait(5.0)
        worker._hold(None)
        assert queue.complete(first.id, "w", b"bits")
        second = worker.source.lease(0.0, threading.Event())
        worker._hold(second)
        go.set()
        tick.join(5.0)
        assert worker._job is second
        worker.close()
        database.close()


    def test_stress_no_tick_clears_a_job_it_did_not_lose(self):
        """A 1 ms renewer whose requests and answers each take 1 ms (a
        hub round trip), over 100 short jobs, with the interpreter
        switching threads every 10 µs: ticks keep losing the race with a
        job's completion, yet every job is still held when its trial
        ends."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            database = TrialDatabase()
            enqueue(database, 100)
            worker = SleepyWorker(
                database=database, worker_id="w", heartbeat_interval_s=0.001,
            )
            renew = worker.source.renew

            def round_trip(job):
                time.sleep(0.001)
                renewed = renew(job)
                time.sleep(0.001)
                return renewed

            worker.source.renew = round_trip
            dropped = []

            def trial(job):
                time.sleep(0.002)
                dropped.append(worker._job is not job)

            worker.during = trial
            drain(worker)
            worker.close()
        finally:
            sys.setswitchinterval(previous)
        assert worker.jobs_done == len(dropped) == 100
        assert not any(dropped)
        database.close()


class TestRenewalRacingCompletion:
    def test_queue_heartbeat_matches_no_finished_row(self, frozen_clock):
        database = TrialDatabase()
        queue = enqueue(database, 1)
        job = queue.lease("w", ttl_s=10.0)
        assert queue.complete(job.id, "w", b"bits")
        before = queue.get("sess", 0)
        frozen_clock.advance(1.0)
        assert queue.heartbeat(job.id, "w", ttl_s=10.0) is False
        assert queue.get("sess", 0) == before
        database.close()

    def test_hub_extend_of_a_completed_job(self):
        """The host completed job A; its renewer's late ``extend`` of A
        is answered ``renewed: False`` — A stops being renewed — while
        the other held lease keeps its owner, expiry and epoch, and
        nothing is fenced or resynced."""
        with TrialDatabase() as database:
            server = FleetServer(database, port=0)
            thread = threading.Thread(
                target=server.serve_until_drained, daemon=True
            )
            thread.start()
            hub = HubJobs("m1", "127.0.0.1", server.port)
            try:
                enqueue(database, 2)
                first = hub.lease(0.0, threading.Event())
                second = hub.lease(0.0, threading.Event())
                assert hub.complete(first, b"bits")
                other = server.queue.get("sess", second.trial_id)
                response = hub.call("extend", job_id=first.id, worker="w0")
                assert response["ok"] and response["renewed"] is False
                assert hub.renew(first) is False
                assert server.queue.get("sess", second.trial_id) == other
                assert other.state == LEASED
                assert hub._held == {second.id}
                stats = database.stats()
                assert "hub.fenced_frames" not in stats
                assert hub.renew(second) is True
            finally:
                hub.client.close()
                server.initiate_drain()
                thread.join(timeout=5.0)


def test_cold_job_pickles_its_model_once(monkeypatch):
    """The job's result carries the pickle the artifact store made — the
    same bytes a memo hit would be completed with."""
    database = TrialDatabase()
    queue = enqueue(database, 1)
    pickled = collections.Counter()
    getstate = Module.__getstate__

    def counted(self):
        pickled[id(self)] += 1
        return getstate(self)

    monkeypatch.setattr(Module, "__getstate__", counted)
    worker = TrialWorker(database=database, worker_id="w")
    drain(worker)
    worker.close()
    assert worker.jobs_done == 1
    assert pickled and set(pickled.values()) == {1}
    (job,) = queue.jobs_for("sess")
    key = trial_key(make_task(trial_id=0))
    assert job.result == worker.artifacts.load_result(key)
    assert pickle.loads(job.result).model_blob is not None
    database.close()
