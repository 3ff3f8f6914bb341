"""Dispatch-protocol edge cases: frame hygiene, registration, the lease
ownership protocol over the wire, and artifact federation.

Most tests drive :meth:`FleetServer.handle_line` directly (the documented
unit-test seam); the socket-level class at the bottom exercises the parts
only a real connection can.  The transport's tolerance for hostile
frames and severed sockets is ``tests/test_wire.py``'s, for both
protocols."""

import json
import threading

import pytest

from repro.errors import FleetError
from repro.fleet.client import FleetClient
from repro.fleet.server import FleetServer
from repro.fleet.wire import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    pack_bytes,
    unpack_bytes,
)
from repro.fleet.registry import ALIVE
from repro.service.queue import LEASED, QUEUED, SKEW_GRACE_S
from repro.storage import TrialDatabase
from tests.clocks import frozen_clock, offset_clock  # noqa: F401 (fixtures)


def frame(op, **params):
    return json.dumps(dict(params, op=op)).encode()


@pytest.fixture()
def server():
    with TrialDatabase() as database:
        instance = FleetServer(
            database, port=0, lease_ttl_s=5.0, machine_ttl_s=30.0,
        )
        try:
            yield instance
        finally:
            instance.server_close()


def send(server, op, **params):
    """A mutating frame as a registered host sends it: under the hub's
    current epoch."""
    return server.handle_line(frame(op, epoch=server.epoch, **params))


def register(server, machine_id, **extra):
    return server.handle_line(
        frame("register", machine_id=machine_id, **extra)
    )


class TestFrames:
    def test_wire_roundtrip(self):
        message = {"op": "ping", "n": 1}
        assert decode_frame(encode_frame(message).strip()) == message

    def test_pack_unpack_bytes(self):
        assert unpack_bytes(pack_bytes(b"\x00\xffblob")) == b"\x00\xffblob"
        assert pack_bytes(None) is None and unpack_bytes(None) is None
        with pytest.raises(FleetError):
            unpack_bytes("not base64!!")

    def test_encode_rejects_oversized(self):
        with pytest.raises(FleetError):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})


class TestRegistration:
    def test_fresh_machine_gets_lease_terms(self, server):
        first = register(server, "m1")
        assert first["ok"] and not first["rejoined"]
        assert first["lease_ttl_s"] == 5.0
        assert first["epoch"] == server.epoch

    def test_duplicate_machine_id_rejoins(self, server):
        """Re-registering the same id is a host reconnect, not a new
        machine: one row, refreshed capabilities."""
        register(server, "m1", capabilities={"cores": 2})
        again = register(server, "m1", capabilities={"cores": 8})
        assert again["ok"] and again["rejoined"]
        (machine,) = server.registry.list()
        assert machine.capabilities["cores"] == 8

    @pytest.mark.parametrize("workloads", ["IC", [1], {"IC": True}])
    def test_register_rejects_bad_workloads_tag(self, server, workloads):
        response = register(
            server, "m1", capabilities={"workloads": workloads}
        )
        assert not response["ok"] and "workloads" in response["error"]
        assert server.registry.get("m1") is None

    def test_register_requires_machine_id(self, server):
        assert not server.handle_line(frame("register"))["ok"]

    def test_heartbeat_unknown_machine_hints_reregister(self, server):
        response = server.handle_line(frame("heartbeat", machine_id="ghost"))
        assert not response["ok"]
        assert response["reregister"]

    def test_heartbeat_adds_dataset_cache_deltas(self, server):
        register(server, "m1")
        for counters in ({"hits": 2, "misses": 1.0}, {"hits": 1}, {}):
            assert server.handle_line(frame(
                "heartbeat", machine_id="m1", dataset_cache=counters
            ))["ok"]
        stats = server.database.stats()
        assert stats["dataset_cache.hits"] == 3.0
        assert stats["dataset_cache.misses"] == 1.0
        assert "dataset_cache.evictions" not in stats

    @pytest.mark.parametrize("counters", [
        {"size": 1}, {"hits": -1}, {"hits": "2"}, {"hits": True},
        {"misses": float("inf")}, {"misses": float("nan")}, [1, 2],
    ])
    def test_heartbeat_rejects_bad_dataset_cache(self, server, counters):
        register(server, "m1")
        response = server.handle_line(frame(
            "heartbeat", machine_id="m1", dataset_cache=counters
        ))
        assert not response["ok"] and "dataset_cache" in response["error"]
        assert not any(
            key.startswith("dataset_cache.")
            for key in server.database.stats()
        )


class TestLeaseProtocol:
    def _setup_job(self, server, machine_id="m1", trial_id=1):
        register(server, machine_id)
        server.queue.enqueue("sess", trial_id, "{}")

    def test_lease_from_unregistered_machine_rejected(self, server):
        response = send(server, "lease", machine_id="ghost")
        assert not response["ok"]
        assert response["reregister"]

    def test_lease_respects_machine_workloads(self, server):
        """Capability routing at lease time: a machine advertising only
        SR never takes an IC job; an untagged machine takes any."""
        server.queue.enqueue("sess", 1, json.dumps({"workload_id": "IC"}))
        register(server, "sr", capabilities={"workloads": ["SR"]})
        register(server, "any")
        assert send(server, "lease", machine_id="sr")["job"] is None
        job = send(server, "lease", machine_id="any")["job"]
        assert job is not None and job["trial_id"] == 1

    def test_lease_reads_the_machine_row_once(self, server):
        """One ``machines`` SELECT per ``lease`` frame, job or no job:
        the row ``_machine_ok`` validated is the row that routes."""
        self._setup_job(server, "m1")
        statements = []
        server.database._connection.set_trace_callback(statements.append)
        try:
            for expected in (1, None):  # a job, then an empty queue
                del statements[:]
                job = send(server, "lease", machine_id="m1")["job"]
                assert (job and job["trial_id"]) == expected
                reads = [
                    sql for sql in statements
                    if sql.lstrip().upper().startswith("SELECT")
                    and "FROM machines" in sql
                ]
                assert len(reads) == 1, statements
        finally:
            server.database._connection.set_trace_callback(None)

    def test_lease_complete_roundtrip(self, server):
        self._setup_job(server, "m1")
        job = send(server, "lease", machine_id="m1", worker="w3")["job"]
        blob = b"pickled-evaluation"
        response = send(
            server, "complete", machine_id="m1", worker="w3",
            job_id=job["id"], result=pack_bytes(blob),
        )
        assert response["ok"] and response["accepted"]
        stored = server.queue.get("sess", 1)
        assert stored.result == blob
        assert stored.lease_owner == "m1/w3"  # prefix-drainable owner
        assert server.registry.get("m1").jobs_done == 1
        # A second completion by the *same* owner is an idempotent
        # replay (the worker cannot know whether its first send landed
        # before a hub crash): acknowledged without a second write.
        replay = send(
            server, "complete", machine_id="m1", worker="w3",
            job_id=job["id"], result=pack_bytes(b"other-bits"),
        )
        assert replay["ok"] and replay["accepted"] and replay["duplicate"]
        assert server.queue.get("sess", 1).result == blob  # first wins
        assert server.registry.get("m1").jobs_done == 1  # not re-counted
        # A different worker claiming the finished job is still rejected.
        assert not send(
            server, "complete", machine_id="m1", worker="w9",
            job_id=job["id"], result=pack_bytes(blob),
        )["accepted"]

    def test_mid_lease_disconnect_then_reacquisition(
        self, server, offset_clock
    ):
        """A host that vanishes mid-lease stops extending; after expiry
        the job is re-leased (attempt 2) by another machine."""
        self._setup_job(server, "m1")
        register(server, "m2")
        job = send(server, "lease", machine_id="m1")["job"]
        assert job["attempts"] == 1
        # m1 disconnects: no extends.  The janitor reclaims after TTL.
        offset_clock.advance(6.0)
        sweep = server.janitor_sweep()
        assert sweep["leases_expired"] == 1
        requeued = server.queue.get("sess", 1)
        assert requeued.state == QUEUED
        retry = send(server, "lease", machine_id="m1")
        assert retry["job"] is None  # the retry's backoff is still pending
        # Once the backoff has passed, the re-lease goes to m2.
        offset_clock.advance(1.0)
        leased = server.queue.lease("m2/w0")
        assert leased is not None and leased.attempts == 2

    def test_zombie_complete_after_expiry_rejected(self, server, offset_clock):
        self._setup_job(server, "m1")
        job = send(server, "lease", machine_id="m1")["job"]
        offset_clock.advance(6.0)
        server.janitor_sweep()
        response = send(
            server, "complete", machine_id="m1", worker="w0",
            job_id=job["id"], result=pack_bytes(b"stale"),
        )
        assert response["ok"] and not response["accepted"]
        assert server.registry.get("m1").jobs_done == 0

    def test_extend_renews_job_and_machine(self, server):
        self._setup_job(server, "m1")
        job = send(server, "lease", machine_id="m1")["job"]
        before = server.registry.get("m1").last_heartbeat_at
        response = send(
            server, "extend", machine_id="m1", worker="w0", job_id=job["id"]
        )
        assert response["ok"] and response["renewed"]
        assert server.registry.get("m1").last_heartbeat_at >= before

    def test_dead_host_drain_releases_leases_immediately(
        self, server, offset_clock
    ):
        """Machine-level containment: when heartbeats stop, the janitor
        drains every lease the machine held without waiting for each
        job's own (much longer) lease to expire."""
        register(server, "m1")
        for trial in (1, 2):
            server.queue.enqueue("sess", trial, "{}")
        for worker in ("w0", "w1"):
            job = send(server, "lease", machine_id="m1", worker=worker)["job"]
            assert job is not None
            # Long manual lease: only the dead-host drain can free it soon.
            server.queue.heartbeat(job["id"], f"m1/{worker}", ttl_s=900.0)
        offset_clock.advance(31.0)
        sweep = server.janitor_sweep()
        assert sweep["machines_expired"] == 1
        assert sweep["leases_drained"] == 2
        assert server.database.stats()["leases.drained"] == 2.0
        # The dead machine must re-register before taking work again.
        refused = send(server, "lease", machine_id="m1")
        assert not refused["ok"] and refused["reregister"]
        rejoin = register(server, "m1")
        assert rejoin["rejoined"]

    def test_drain_stops_handing_out_work(self, server):
        self._setup_job(server, "m1")
        assert server.handle_line(frame("drain"))["draining"]
        response = send(server, "lease", machine_id="m1")
        assert response["ok"]
        assert response["job"] is None and response["draining"]


class TestJanitorClockStep:
    """The hub janitor judges machine and lease expiry on the queue's
    clock-step hardened reading (``JobQueue.expiry_now``): an NTP step
    of the wall clock neither declares a live machine dead nor drains
    its leases, and a silent machine is still expired once the grace
    window has passed."""

    NOTHING = {"machines_expired": 0, "leases_drained": 0,
               "leases_expired": 0}

    @pytest.fixture()
    def hub(self, frozen_clock):
        with TrialDatabase() as database:
            instance = FleetServer(
                database, port=0, lease_ttl_s=5.0, machine_ttl_s=30.0,
            )
            try:
                register(instance, "m1")
                instance.queue.enqueue("sess", 1, "{}")
                job = send(instance, "lease", machine_id="m1")["job"]
                assert job is not None
                yield instance, job
            finally:
                instance.server_close()

    def test_step_expires_nothing_inside_the_grace_window(
        self, hub, frozen_clock
    ):
        server, _ = hub
        frozen_clock.step_wall(3600.0)
        assert server.janitor_sweep() == self.NOTHING
        # Still inside the lease TTL on the pre-step timeline.
        frozen_clock.advance(server.lease_ttl_s - 1.0)
        assert server.janitor_sweep() == self.NOTHING
        assert server.registry.get("m1").state == ALIVE
        assert server.queue.get("sess", 1).state == LEASED

    def test_heartbeating_machine_is_kept_past_the_grace_window(
        self, hub, frozen_clock
    ):
        server, job = hub
        frozen_clock.step_wall(3600.0)
        waited = 0.0
        while waited < SKEW_GRACE_S + 1.0:
            frozen_clock.advance(1.0)
            waited += 1.0
            # ``extend`` heartbeats the lease and the machine together.
            assert send(
                server, "extend", machine_id="m1", worker="w0",
                job_id=job["id"],
            )["renewed"]
            assert server.janitor_sweep() == self.NOTHING
        assert server.registry.get("m1").state == ALIVE
        assert server.queue.get("sess", 1).state == LEASED

    def test_silent_machine_is_expired_and_drained_after_grace(
        self, hub, frozen_clock
    ):
        server, _ = hub
        frozen_clock.step_wall(3600.0)
        assert server.janitor_sweep() == self.NOTHING
        frozen_clock.advance(SKEW_GRACE_S + server.machine_ttl_s + 1.0)
        assert server.janitor_sweep() == {
            "machines_expired": 1, "leases_drained": 1, "leases_expired": 0,
        }
        assert server.queue.get("sess", 1).state == QUEUED


class TestArtifactFederation:
    def test_put_probe_get_roundtrip(self, server):
        blob = b"\x80checkpoint-bytes"
        put = send(
            server, "artifact_put", key="k1", payload=pack_bytes(blob),
            workload="IC", trial_id=3, epochs=2, data_fraction=0.5,
        )
        assert put["ok"] and put["stored"]
        probe = server.handle_line(
            frame("artifact_get", key="k1", probe=True)
        )
        assert probe["present"]
        got = server.handle_line(frame("artifact_get", key="k1"))
        assert unpack_bytes(got["payload"]) == blob
        miss = server.handle_line(frame("artifact_get", key="nope"))
        assert miss["ok"] and miss["payload"] is None
        stats = server.database.stats()
        assert stats["federation.uploads"] == 1.0
        assert stats["federation.hits"] == 1.0
        assert stats["federation.misses"] == 1.0

    def test_put_requires_key_and_payload(self, server):
        for params in ({"key": "k"}, {"payload": pack_bytes(b"x")}):
            response = send(server, "artifact_put", **params)
            assert not response["ok"]
            assert "needs a key and a payload" in response["error"]

    def test_status_reports_machines_and_counters(self, server):
        register(server, "m1", capabilities={"fingerprint": "fp-a"})
        status = server.handle_line(frame("status"))
        assert status["ok"]
        (machine,) = status["machines"]
        assert machine["id"] == "m1"
        assert machine["fingerprint"] == "fp-a"
        assert machine["heartbeat_age_s"] >= 0
        assert set(status["queue"]) == {
            "queued", "leased", "done", "failed"
        }


class TestOverTheWire:
    """Edge cases only a real socket can exercise."""

    @pytest.fixture()
    def live_server(self):
        with TrialDatabase() as database:
            server = FleetServer(database, port=0, lease_ttl_s=5.0)
            thread = threading.Thread(
                target=server.serve_until_drained, daemon=True
            )
            thread.start()
            try:
                yield server
            finally:
                server.initiate_drain()
                thread.join(timeout=5.0)

    def test_client_roundtrip(self, live_server):
        with FleetClient("127.0.0.1", live_server.port) as client:
            assert client.request("ping")["pong"]
            response = client.request("register", machine_id="m1")
            assert response["ok"] and not response["rejoined"]


    def test_mid_lease_disconnect_over_socket(self, live_server, offset_clock):
        """The wire version of vanish-mid-lease: the TCP connection dies
        with the lease held; nothing is completed; reclaim frees it."""
        live_server.queue.enqueue("sess", 1, "{}")
        client = FleetClient("127.0.0.1", live_server.port)
        client.request("register", machine_id="m1")
        job = client.request(
            "lease", machine_id="m1", epoch=live_server.epoch
        )["job"]
        assert job is not None
        client.close()  # host gone, lease still held
        offset_clock.advance(6.0)
        assert live_server.queue.reclaim_expired() == 1
        assert live_server.queue.get("sess", 1).state == QUEUED
