"""End-to-end fleet tests: a real coordinator plus real remote-host
processes (isolated per-machine databases, TCP dispatch only).

The headline contract: a multi-host fleet run is **bit-identical** to the
single-host run of the same spec, because jobs are pure functions of
their task and the coordinator merges results in strict wave order.  On
top of that, artifact-cache federation means a second machine never
cold-runs a trial the fleet has already paid for."""

import json
import threading
import time

import pytest

from repro.fleet.host import HostPool
from repro.fleet.server import FleetServer
from repro.service import SessionCoordinator, SessionSpec, SessionStore
from repro.service.queue import MEMO_OWNER
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase

SPEC = dict(workload="IC", device="armv7", seed=7, samples=160,
            max_trials=6)


def fingerprint(result):
    """Everything that must match between two equivalent runs."""
    return (
        [(t.trial_id, t.score, t.accuracy, t.stall_s) for t in result.trials],
        result.best_configuration,
        result.best_accuracy,
        result.best_score,
        result.tuning_runtime_s,
        result.tuning_energy_j,
        result.stall_s,
    )


def warm_fingerprint(result):
    """Fingerprint minus the inference-pipeline timing components.

    A second session of the same experiment in the same hub database
    finds the inference-tuning cache warm, so trials no longer stall on
    pipelined inference jobs (fleet or not) — scores, accuracies, and
    the chosen configuration must still match exactly."""
    return (
        [(t.trial_id, t.score, t.accuracy) for t in result.trials],
        result.best_configuration,
        result.best_accuracy,
        result.best_score,
    )


def single_host_reference(**overrides):
    spec = dict(SPEC, **overrides)
    with TrialDatabase() as db:
        session_id = SessionStore(db).create(SessionSpec(**spec))
        return SessionCoordinator(db, session_id, workers=0).run()


class Fleet:
    """One coordinator + N remote-host processes, torn down cleanly."""

    def __init__(self, tmp_path, name, hosts=2, lease_ttl_s=5.0,
                 machine_ttl_s=30.0):
        self.dir = tmp_path / name
        self.dir.mkdir()
        self.db_path = str(self.dir / "hub.sqlite")
        self.database = TrialDatabase(self.db_path)
        self.server = FleetServer(
            self.database, port=0, lease_ttl_s=lease_ttl_s,
            machine_ttl_s=machine_ttl_s,
        )
        self.hosts = hosts
        self._serve_thread = threading.Thread(
            target=self.server.serve_until_drained, daemon=True
        )
        self.pool = None

    def submit(self, **overrides):
        spec = dict(SPEC, **overrides)
        return SessionStore(self.database).create(SessionSpec(**spec))

    def run(self):
        """Serve all queued sessions through the remote hosts, once every
        host has registered (so all of them share the first wave)."""
        self._serve_thread.start()
        self.server.start_janitor()
        self.pool = HostPool(
            "127.0.0.1", self.server.port, str(self.dir),
            hosts=self.hosts,
        ).start()
        try:
            deadline = time.monotonic() + 30.0
            while len(self.server.registry.alive()) < self.hosts:
                assert time.monotonic() < deadline, "hosts did not register"
                time.sleep(0.01)
            return self.server.run_sessions(drain=True)
        finally:
            self.pool.stop()

    def stats(self):
        return self.server.database.stats()

    def leases(self):
        """Leases granted so far: every lease bumps its job's attempts
        (a memo-settled row counts one attempt but was never leased)."""
        (total,) = self.database.execute(
            "SELECT COALESCE(SUM(attempts), 0) FROM jobs "
            "WHERE lease_owner IS NOT ?", (MEMO_OWNER,)
        ).fetchone()
        return total

    def close(self):
        if self.pool is not None:
            self.pool.stop()
        self.server.initiate_drain()
        self._serve_thread.join(timeout=5.0)
        self.database.close()


@pytest.fixture()
def fleet_factory(tmp_path):
    fleets = []

    def build(name, **kwargs):
        fleet = Fleet(tmp_path, name, **kwargs)
        fleets.append(fleet)
        return fleet

    yield build
    for fleet in fleets:
        fleet.close()


@pytest.mark.slow
class TestFleetBitIdentity:
    def test_two_host_run_matches_single_host(self, fleet_factory):
        fleet = fleet_factory("fleet")
        session_id = fleet.submit()
        (result,) = fleet.run()
        assert fingerprint(result) == fingerprint(single_host_reference())
        record = SessionStore(fleet.database).get(session_id)
        assert record.state == S_DONE
        # The work really happened on remote machines: every finished
        # job's lease owner is a ``machine/<worker>`` identity.
        owners = {
            stats["worker"]
            for stats in fleet.server.queue.worker_stats(session_id)
        }
        assert owners
        assert all(owner.startswith("machine-") for owner in owners)
        machines = {m.id for m in fleet.server.registry.list()}
        assert machines == {"machine-1", "machine-2"}

    def test_two_host_warm_resume_matches_single_host(self, fleet_factory):
        """Reuse SHA: a promoted child whose parent ran on the other host
        fetches the parent from the hub and resumes it, as the single
        host does, instead of quietly training cold."""
        reuse = dict(scheduler="sha", num_configs=6, max_trials=12,
                     reuse_checkpoints=True)
        fleet = fleet_factory("reuse")
        fleet.submit(**reuse)
        (result,) = fleet.run()
        assert fingerprint(result) == fingerprint(
            single_host_reference(**reuse)
        )

    def test_federation_avoids_cold_reruns(self, fleet_factory, capsys):
        """A second identical session never cold-runs a trial — and, since
        the hub settles what its own store holds before dispatch, never
        reaches the *fresh* machines waiting for it either: no lease, no
        federation fetch, no upload.  (The host-side fetch keeps its own
        witness: ``test_memo_dispatch.py``.)"""
        first = fleet_factory("first")
        first.submit()
        (result_a,) = first.run()
        uploads = first.stats().get("federation.uploads", 0)
        assert uploads > 0  # cold runs were published to the hub
        hits = first.stats().get("federation.hits", 0)
        leases = first.leases()
        assert leases >= len(result_a.trials)

        # Same hub, brand-new host databases (a new base dir): they hold
        # nothing, and are asked for nothing.
        second_dir = first.dir / "fresh-hosts"
        second_dir.mkdir()
        second = first.submit()
        first.pool = HostPool(
            "127.0.0.1", first.server.port, str(second_dir), hosts=2,
        ).start()
        try:
            (result_b,) = first.server.run_sessions(drain=True)
        finally:
            first.pool.stop()
        assert warm_fingerprint(result_b) == warm_fingerprint(result_a)
        assert first.leases() == leases
        assert first.stats().get("federation.hits", 0) == hits
        assert first.stats().get("federation.uploads", 0) == uploads
        assert first.server.queue.worker_stats(second) == [{
            "worker": MEMO_OWNER, "jobs_done": len(result_b.trials),
            "busy_s": 0.0,
        }]

        # The counters are operator-visible through ``service status``.
        from repro.service.__main__ import main as service_main

        first.server.initiate_drain()  # stop the janitor before closing
        first.database.close()  # release before the CLI reopens it
        assert service_main(
            ["status", "--db", first.db_path, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["fleet"]["federation.uploads"] == uploads
        assert payload[0]["fleet"].get("federation.hits", 0) == hits
        assert len(payload[0]["machines"]) == 2
        assert payload[1]["result"]["worker_stats"][0]["worker"] == MEMO_OWNER


@pytest.mark.slow
class TestFleetLiveness:
    def test_host_pool_respawns_dead_hosts(self, fleet_factory):
        fleet = fleet_factory("respawn", hosts=1)
        fleet._serve_thread.start()
        fleet.pool = HostPool(
            "127.0.0.1", fleet.server.port, str(fleet.dir), hosts=1,
        ).start()
        try:
            deadline = 5.0
            while fleet.pool.alive() < 1 and deadline > 0:
                time.sleep(0.05)
                deadline -= 0.05
            (process,) = fleet.pool.processes
            process.terminate()
            process.join(timeout=5.0)
            deadline = 5.0
            while fleet.pool.alive() < 1 and deadline > 0:
                time.sleep(0.05)
                deadline -= 0.05
            assert fleet.pool.alive() == 1
            respawned = fleet.pool.processes[0]
            assert respawned.name == "machine-1"  # same identity
        finally:
            fleet.pool.stop()
        assert fleet.pool.alive() == 0
        fleet.pool.stop()  # idempotent
