"""Tests for the fleet's storage-facing pieces: machine registry,
capability routing at lease time, dead-host lease draining, and fleet
counters."""

import json

import pytest

from repro.fleet.registry import (
    ALIVE,
    DEAD,
    MachineRegistry,
    local_capabilities,
)
from repro.service.queue import JobQueue, LEASED, QUEUED
from repro.storage import TrialDatabase


@pytest.fixture()
def db():
    with TrialDatabase() as database:
        yield database


class TestMachineRegistry:
    def test_register_and_get(self, db):
        registry = MachineRegistry(db)
        machine = registry.register(
            "m1", capabilities={"hostname": "edge-a", "cores": 4},
            now=100.0,
        )
        assert machine.id == "m1"
        assert machine.hostname == "edge-a"
        assert machine.state == ALIVE
        assert machine.capabilities["cores"] == 4
        assert machine.registered_at == 100.0

    def test_duplicate_registration_is_a_reconnect(self, db):
        """A host restarting with the same machine id is a reconnect:
        capabilities and heartbeat refresh, the row and its history stay."""
        registry = MachineRegistry(db)
        registry.register("m1", capabilities={"cores": 2}, now=100.0)
        registry.record_done("m1")
        registry.set_state("m1", DEAD)
        again = registry.register(
            "m1", capabilities={"cores": 8}, now=200.0
        )
        assert again.state == ALIVE
        assert again.registered_at == 100.0
        assert again.jobs_done == 1
        assert again.capabilities["cores"] == 8
        assert again.last_heartbeat_at == 200.0
        assert len(registry.list()) == 1

    def test_heartbeat_refreshes_and_revives(self, db):
        registry = MachineRegistry(db)
        registry.register("m1", now=100.0)
        registry.set_state("m1", DEAD)
        assert registry.heartbeat("m1", now=150.0)
        machine = registry.get("m1")
        assert machine.state == ALIVE
        assert machine.last_heartbeat_at == 150.0

    def test_heartbeat_unknown_machine(self, db):
        assert not MachineRegistry(db).heartbeat("ghost")

    def test_expire_flips_only_stale_machines_once(self, db):
        registry = MachineRegistry(db)
        registry.register("fresh", now=100.0)
        registry.register("stale", now=10.0)
        doomed = registry.expire(ttl_s=30.0, now=100.0)
        assert doomed == ["stale"]
        assert registry.get("stale").state == DEAD
        assert registry.get("fresh").state == ALIVE
        # The second sweep reports nothing new — the janitor drains each
        # dead machine's leases exactly once.
        assert registry.expire(ttl_s=30.0, now=101.0) == []
        assert db.stats()["machines.expired"] == 1.0

    def test_record_done_and_forget(self, db):
        registry = MachineRegistry(db)
        registry.register("m1", now=1.0)
        registry.record_done("m1")
        registry.record_done("m1", count=2)
        assert registry.get("m1").jobs_done == 3
        assert registry.forget("m1")
        assert registry.get("m1") is None

    def test_fleet_counters_crash_safe_upserts(self, db):
        db.bump_stats({"federation.hits": 1})
        db.bump_stats({"federation.hits": 2, "federation.uploads": 5})
        # The registry's view (the session benchmark's) is the table's.
        assert MachineRegistry(db).stats() == {
            "federation.hits": 3.0,
            "federation.uploads": 5.0,
        }

    def test_local_capabilities_shape(self):
        tags = local_capabilities()
        assert tags["hostname"]
        assert tags["cores"] >= 1
        assert "backend" in tags["fingerprint"]
        assert "IC" in tags["workloads"]


class TestCapabilityLease:
    """Capability routing happens when a machine leases: the queue hands
    it only jobs whose payload names a workload it advertises."""

    def test_lease_skips_workloads_the_machine_lacks(self, db):
        queue = JobQueue(db)
        queue.enqueue("s", 1, json.dumps({"workload_id": "IC"}))
        queue.enqueue("s", 2, json.dumps({"workload_id": "SR"}))
        assert queue.lease("sr-only", workloads=["SR"]).trial_id == 2
        assert queue.lease("sr-only", workloads=["SR"]) is None
        assert queue.lease("none", workloads=[]) is None
        # An untagged machine (``workloads=None``) takes any job.
        assert queue.lease("untagged").trial_id == 1


class TestShardedQueue:
    """Dead-host draining of the one queue every fleet host leases from
    (the class name predates the single queue)."""

    def test_reclaim_owner_drains_machine_prefix(self, db):
        """Dead-host drain: every lease held by ``machine/<worker>`` is
        released at once, without waiting for per-job expiry."""
        queue = JobQueue(db)
        for trial in (1, 2, 3):
            queue.enqueue("s", trial, "{}")
        queue.lease("m1/w0", ttl_s=1000.0, now=10.0)
        queue.lease("m1/w1", ttl_s=1000.0, now=10.0)
        queue.lease("m2/w0", ttl_s=1000.0, now=10.0)
        assert queue.reclaim_owner("m1", now=20.0) == 2
        jobs = {j.trial_id: j for j in queue.jobs_for("s")}
        assert jobs[1].state == QUEUED
        assert "host declared dead" in jobs[1].error
        assert jobs[3].state == LEASED  # m2 untouched

    def test_reclaim_owner_exact_match_without_worker_suffix(self, db):
        queue = JobQueue(db)
        queue.enqueue("s", 1, "{}")
        queue.lease("m1", ttl_s=1000.0, now=10.0)
        assert queue.reclaim_owner("m1", now=20.0) == 1

    def test_reclaim_owner_exhausted_attempts_quarantines(self, db):
        queue = JobQueue(db)
        queue.enqueue("s", 1, "{}", max_attempts=1)
        queue.lease("m1/w0", ttl_s=1000.0, now=10.0)
        assert queue.reclaim_owner("m1", now=20.0) == 1
        assert queue.dead_letter_count("s") == 1
