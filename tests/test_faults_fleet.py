"""Fleet chaos suite: whole-machine faults under ``$REPRO_FAULTS``.

The containment contract, at host granularity: a machine that dies
mid-lease, a dispatch connection that partitions, or a lease that quietly
goes stale must all drain back into the queue and re-run elsewhere — and
the session's final result must stay bit-identical to a fault-free
single-host run, because every containment path re-executes pure,
seed-driven work and the coordinator merges in strict wave order."""

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.service.worker as worker_module
from repro import faults
from repro.faults.plan import CRASH_EXIT_CODE
from repro.fleet.host import HostPool, RemoteHost
from repro.fleet.server import FleetServer
from repro.service import (
    JobQueue, SessionCoordinator, SessionSpec, SessionStore,
)
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase

from tests.test_fleet import SPEC, fingerprint, single_host_reference


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def run_fleet_session(tmp_path, name, hosts=2, lease_ttl_s=1.0,
                      machine_ttl_s=5.0, in_process=False,
                      **spec_overrides):
    """One session through a real fleet; returns (result, session_id,
    database) with the database left open for assertions."""
    fleet_dir = tmp_path / name
    fleet_dir.mkdir()
    database = TrialDatabase(str(fleet_dir / "hub.sqlite"))
    spec = dict(SPEC, **spec_overrides)
    session_id = SessionStore(database).create(SessionSpec(**spec))
    server = FleetServer(
        database, port=0, lease_ttl_s=lease_ttl_s,
        machine_ttl_s=machine_ttl_s,
    )
    serve_thread = threading.Thread(
        target=server.serve_until_drained, daemon=True
    )
    serve_thread.start()
    server.start_janitor(interval_s=0.2)
    if in_process:
        # In-process hosts: same protocol over real sockets, but the
        # test can monkeypatch their execution path.
        members = [
            RemoteHost(f"machine-{i + 1}", "127.0.0.1", server.port)
            for i in range(hosts)
        ]
        stop = threading.Event()
        threads = [
            threading.Thread(
                target=member.run_forever, kwargs={"stop_event": stop},
                daemon=True,
            )
            for member in members
        ]
        for thread in threads:
            thread.start()
        try:
            (result,) = server.run_sessions(
                drain=True, poll_interval_s=0.02
            )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
            for member in members:
                member.close()
    else:
        members = None
        with HostPool("127.0.0.1", server.port, str(fleet_dir),
                      hosts=hosts):
            (result,) = server.run_sessions(
                drain=True, poll_interval_s=0.02
            )
    server.initiate_drain()
    serve_thread.join(timeout=5.0)
    return result, session_id, database, members


@pytest.mark.slow
class TestDeadHostChaos:
    def test_host_killed_mid_lease_session_completes_identically(
        self, tmp_path
    ):
        reference = fingerprint(single_host_reference())
        # Trial 2's first attempt hard-kills whichever machine leased it
        # (``worker.crash`` is ``os._exit``: heartbeats, lease renewal and
        # all die with it).  The supervisor respawns the machine; the
        # orphaned lease expires and the retry runs clean.
        faults.configure("seed=11;worker.crash=1.0@2")
        result, session_id, database, _ = run_fleet_session(
            tmp_path, "deadhost"
        )
        try:
            assert fingerprint(result) == reference
            assert SessionStore(database).get(session_id).state == S_DONE
            queue = JobQueue(database)
            victim = queue.get(session_id, 2)
            assert victim.attempts >= 2
            history = " ".join(
                entry["error"] for entry in victim.history()
            )
            assert ("lease expired" in history
                    or "host declared dead" in history)
            assert queue.dead_letter_count(session_id) == 0
        finally:
            database.close()


@pytest.mark.slow
class TestPartitionChaos:
    def test_partitioned_hosts_reconnect_and_finish_identically(
        self, tmp_path
    ):
        reference = fingerprint(single_host_reference())
        # ~15% of dispatch requests lose their connection mid-request
        # (first attempt only); the client's reconnect-resync retry path
        # must make the whole fleet run invisible to the result.
        faults.configure("seed=11;fleet.partition=0.15")
        result, session_id, database, _ = run_fleet_session(
            tmp_path, "partition"
        )
        try:
            assert fingerprint(result) == reference
            assert SessionStore(database).get(session_id).state == S_DONE
        finally:
            database.close()


@pytest.mark.slow
class TestStaleLeaseChaos:
    def test_stale_lease_expires_and_zombie_result_rejected(
        self, tmp_path, monkeypatch
    ):
        """One trial's host silently stops extending its lease while the
        trial (artificially slowed) still runs.  The lease ages out, the
        job re-runs cleanly elsewhere, and the zombie's late ``complete``
        is rejected by the ownership protocol."""
        reference = fingerprint(single_host_reference())
        faults.configure("seed=11;fleet.stale_lease=1.0@2",
                         propagate=False)
        real_evaluate = worker_module.train_trial
        slowed = threading.Event()

        def slow_evaluate(task, *datasets, **kwargs):
            # First execution of trial 2 outlives its (unextended) lease.
            if task.trial_id == 2 and not slowed.is_set():
                slowed.set()
                time.sleep(2.5)
            return real_evaluate(task, *datasets, **kwargs)

        monkeypatch.setattr(worker_module, "train_trial", slow_evaluate)
        result, session_id, database, members = run_fleet_session(
            tmp_path, "stale", in_process=True, lease_ttl_s=0.8,
        )
        try:
            assert slowed.is_set()
            assert fingerprint(result) == reference
            assert SessionStore(database).get(session_id).state == S_DONE
            queue = JobQueue(database)
            victim = queue.get(session_id, 2)
            assert victim.attempts >= 2
            assert "lease expired" in " ".join(
                entry["error"] for entry in victim.history()
            )
            # The zombie's completion was rejected: exactly one accepted
            # completion per trial across the whole fleet.
            assert sum(m.jobs_done for m in members) == len(result.trials)
        finally:
            database.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _reference_summary():
    """The stored result summary of a clean single-host run — the same
    shape the hub persists, so dict-vs-dict comparison is exact."""
    with TrialDatabase() as database:
        session_id = SessionStore(database).create(SessionSpec(**SPEC))
        SessionCoordinator(database, session_id, workers=0).run()
        return SessionStore(database).get(session_id).result


@pytest.mark.slow
class TestReconnectStormChaos:
    def test_reconnect_storm_session_completes_identically(self, tmp_path):
        reference = fingerprint(single_host_reference())
        # Every dispatch request first tears its connection down and
        # rebuilds it — a hub flapping in and out of reach.  The clean
        # reconnect path (re-handshake per request) must stay invisible
        # to the result.
        faults.configure("seed=11;fleet.reconnect_storm=1.0")
        result, session_id, database, _ = run_fleet_session(
            tmp_path, "storm"
        )
        try:
            assert fingerprint(result) == reference
            assert SessionStore(database).get(session_id).state == S_DONE
        finally:
            database.close()


@pytest.mark.slow
class TestHubCrashChaos:
    # The result fields that must survive a hub kill -9 bit-for-bit
    # (everything except deployment bookkeeping like worker counts).
    RESULT_KEYS = (
        "num_trials", "failed_trials", "best_accuracy", "best_score",
        "best_configuration", "tuning_runtime_s", "tuning_energy_j",
        "stall_s",
    )

    def test_hub_killed_mid_run_restart_completes_identically(
        self, tmp_path
    ):
        """The tentpole end to end: the coordinator hub is SIGKILLed
        mid-campaign (first ``complete`` of job 2, before the write), a
        fresh hub process is started over the same database, and the
        fenced/epoch/replay machinery heals the fleet to a result
        bit-identical to a clean single-host run."""
        reference = _reference_summary()
        db_path = str(tmp_path / "hub.sqlite")
        with TrialDatabase(db_path) as database:
            session_id = SessionStore(database).create(SessionSpec(**SPEC))
        port = _free_port()
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        cmd = [
            sys.executable, "-m", "repro", "fleet", "serve",
            "--db", db_path, "--port", str(port), "--drain",
            "--lease-ttl", "2.0",
        ]
        # The fault plan reaches ONLY the hub (via its environment): die
        # on the first epoch-1 complete of job 2.  The restarted hub
        # draws epoch 2, so the same site never fires again.
        hub_env = dict(env, REPRO_FAULTS="seed=1;fleet.hub_crash=1.0@1:2")
        first = subprocess.Popen(
            cmd, env=hub_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            with HostPool("127.0.0.1", port, str(tmp_path), hosts=2):
                assert first.wait(timeout=240) == CRASH_EXIT_CODE
                second = subprocess.Popen(
                    cmd, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                try:
                    assert second.wait(timeout=240) == 0
                except Exception:
                    second.kill()
                    raise
        finally:
            if first.poll() is None:
                first.kill()
        with TrialDatabase(db_path) as database:
            record = SessionStore(database).get(session_id)
            assert record.state == S_DONE
            summary = record.result
            assert (
                {key: summary[key] for key in self.RESULT_KEYS}
                == {key: reference[key] for key in self.RESULT_KEYS}
            )
            # The second incarnation recorded the restart.
            from repro.fleet.registry import HubState

            assert HubState(database).current_epoch() == 2
            assert database.stats().get(
                "hub.restarts"
            ) == 1.0
