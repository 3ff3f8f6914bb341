"""The event-driven hand-off: doorbells, the long-polled ``lease`` and the
single merge loop.

Nothing here measures speed.  "Event-driven" is proved by making the
fallback tick (``poll_interval_s``) so long that only notifications can
finish a session in time; "one loop" by running one seeded spec under the
three merge policies and comparing with results recorded before the loops
were merged.
"""

import multiprocessing
import os
import random
import signal
import socket
import threading
import time

import pytest

import repro.fleet.server as fleet_server_module
from repro.fleet.host import HubJobs, RemoteHost
from repro.fleet.server import FleetServer
from repro.fleet.wire import decode_frame, encode_frame
from repro.service import (
    JobQueue, SessionCoordinator, SessionStore, WorkerPool,
)
from repro.service.doorbell import Doorbell, Doorbells
from repro.storage import TrialDatabase

from tests.test_service_coordinator import fingerprint, make_session

#: A fallback tick no test could sit through even once.
NEVER_S = 5.0

TINY = dict(samples=160, max_trials=8)


def inline_fingerprint(**spec):
    db = TrialDatabase()
    session_id, _ = make_session(db, **spec)
    return fingerprint(SessionCoordinator(db, session_id).run())


# -- the primitive ---------------------------------------------------------------
class TestDoorbell:
    def test_wait_times_out_unrung_and_returns_at_once_when_rung(self):
        bell = Doorbell()
        started = time.monotonic()
        assert bell.wait(0.05) is False
        assert time.monotonic() - started >= 0.04
        bell.ring()
        started = time.monotonic()
        assert bell.wait(NEVER_S) is True
        assert time.monotonic() - started < 1.0

    def test_ring_before_wait_is_not_lost_and_rings_coalesce(self):
        """Level-triggered: a ring that lands while the consumer is still
        checking its queue is found by the next wait; any number of them
        cost one wake-up."""
        bell = Doorbell()
        for _ in range(1000):
            bell.ring()
        assert bell.wait(NEVER_S) is True
        assert bell.wait(0.01) is False

    def test_ringer_never_blocks_on_a_full_or_closed_bell(self):
        bell = Doorbell()
        started = time.monotonic()
        for _ in range(200_000):  # pipe capacity is 64 KiB
            bell.ring()
        assert time.monotonic() - started < 5.0
        assert bell.wait(NEVER_S) is True
        bell.close()
        bell.ring()  # nobody left to wake: a no-op, not an error

    def test_wait_survives_signals(self):
        """The benchmark interrupts the waiting thread every 10 ms."""
        bell = Doorbell()
        previous = signal.signal(signal.SIGALRM, lambda *_: None)
        signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
        try:
            started = time.monotonic()
            assert bell.wait(0.2) is False
            assert 0.19 <= time.monotonic() - started < 1.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_broadcast_reaches_every_listener_registered_before_the_ring(self):
        bells = Doorbells()
        fixed = bells.add()
        with bells.listening() as transient:
            bells.ring()
            assert fixed.wait(NEVER_S) and transient.wait(NEVER_S)
        bells.ring()  # the transient listener is gone and closed
        assert fixed.wait(NEVER_S)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_crosses_process_boundaries(self, method):
        context = multiprocessing.get_context(method)
        to_child, to_parent = Doorbell(), Doorbell()
        child = context.Process(
            target=_echo_ring, args=(to_child, to_parent), daemon=True
        )
        child.start()
        try:
            to_child.ring()
            assert to_parent.wait(30.0), "the child never rang back"
        finally:
            child.join(timeout=10.0)
            assert not child.is_alive()


def _echo_ring(heard: Doorbell, answer: Doorbell) -> None:
    if heard.wait(30.0):
        answer.ring()


def _follow(bell: Doorbell, published, seen, slot: int) -> None:
    """Stress waiter: after every wake-up, copy the published value (a
    negative one means stop)."""
    while published.value >= 0:
        bell.wait(60.0)
        seen[slot] = published.value


class TestDoorbellStress:
    def test_no_lost_wakeup_and_no_blocked_ringer_under_kill_9(self):
        """4 ringer threads publish-then-ring at full speed to 6 waiter
        processes (more than cores), while waiters are SIGKILLed mid-wait
        and replaced on the same bell — what ``WorkerPool.stop``,
        ``ensure_alive`` and the ``worker.crash`` chaos site do.  Every
        surviving waiter must have seen the last published value well
        inside its 60 s wait (a lost wake-up would leave it asleep), and
        no ring may ever take long (a ringer blocked on a dead sleeper is
        the ``multiprocessing.Condition`` failure mode)."""
        waiters, ringers, kills = 6, 4, 12
        rng = random.Random(7)
        bells = Doorbells()
        slots = [bells.add() for _ in range(waiters)]
        published = multiprocessing.RawValue("q", 0)
        seen = multiprocessing.RawArray("q", waiters)

        def spawn(slot):
            process = multiprocessing.Process(
                target=_follow, args=(slots[slot], published, seen, slot),
                daemon=True,
            )
            process.start()
            return process

        processes = [spawn(slot) for slot in range(waiters)]
        lock = threading.Lock()
        stop = threading.Event()
        slowest = [0.0] * ringers

        def ringer(index):
            while not stop.is_set():
                with lock:
                    published.value += 1
                started = time.monotonic()
                bells.ring()
                slowest[index] = max(
                    slowest[index], time.monotonic() - started
                )

        threads = [
            threading.Thread(target=ringer, args=(i,), daemon=True)
            for i in range(ringers)
        ]
        try:
            for thread in threads:
                thread.start()
            for _ in range(kills):
                time.sleep(0.05)
                slot = rng.randrange(waiters)
                os.kill(processes[slot].pid, signal.SIGKILL)
                processes[slot].join(timeout=10.0)
                processes[slot] = spawn(slot)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "a ringer is blocked"
            with lock:
                published.value += 1
                final = published.value
            bells.ring()
            deadline = time.monotonic() + 10.0
            while list(seen) != [final] * waiters:
                assert time.monotonic() < deadline, (
                    f"lost wake-up: waiters saw {list(seen)}, "
                    f"last published {final}"
                )
                time.sleep(0.01)
            assert max(slowest) < 1.0, slowest
        finally:
            stop.set()
            published.value = -1
            bells.ring()
            for process in processes:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()


# -- sessions that only notifications can finish -------------------------------------
class TestEventDrivenSessions:
    def test_two_worker_service_session_needs_no_tick(self, tmp_path):
        reference = inline_fingerprint(**TINY)
        path = str(tmp_path / "service.sqlite")
        with TrialDatabase(path) as db, WorkerPool(
            path, 2, poll_interval_s=NEVER_S
        ) as pool:
            session_id, _ = make_session(db, **TINY)
            started = time.monotonic()
            result = SessionCoordinator(
                db, session_id, workers=2, pool=pool,
                poll_interval_s=NEVER_S,
            ).run()
            elapsed = time.monotonic() - started
        assert fingerprint(result) == reference
        assert elapsed < NEVER_S, (
            f"{elapsed:.1f} s: some hand-off waited out a fallback tick"
        )

    def test_two_host_fleet_session_needs_no_tick(self, tmp_path):
        reference = inline_fingerprint(**TINY)
        with LiveFleet(tmp_path, hosts=2, poll_interval_s=NEVER_S) as server:
            session_id, _ = make_session(server.database, **TINY)
            started = time.monotonic()
            results = server.run_sessions(
                drain=True, poll_interval_s=NEVER_S
            )
            elapsed = time.monotonic() - started
            done_by = {
                job.lease_owner
                for job in JobQueue(server.database).jobs_for(session_id)
            }
        assert [fingerprint(r) for r in results] == [reference]
        assert elapsed < NEVER_S, (
            f"{elapsed:.1f} s: some hand-off waited out a fallback tick"
        )
        assert done_by <= {"machine-1/w0", "machine-2/w0"}


class _OldHub(HubJobs):
    """The hub as a host from before the long poll sees it: its ``lease``
    has no ``wait_s``."""

    def call(self, op, **params):
        params.pop("wait_s", None)
        return super().call(op, **params)


class _OldHost(RemoteHost):
    """A host from before the long poll."""

    hub_class = _OldHub


class LiveFleet:
    """A live hub plus ``hosts`` in-process host threads (real loopback
    TCP, each host on its own database file); ``options`` are further
    :class:`RemoteHost` keyword arguments."""

    def __init__(self, tmp_path, hosts, poll_interval_s=0.05,
                 host_class=RemoteHost, **options):
        self.database = TrialDatabase(str(tmp_path / "hub.sqlite"))
        self.server = FleetServer(self.database, port=0)
        self.stop = threading.Event()
        self.hosts = [
            host_class(
                f"machine-{index}", "127.0.0.1", self.server.port,
                db_path=str(tmp_path / f"machine-{index}.db"),
                poll_interval_s=poll_interval_s, **options,
            )
            for index in range(1, hosts + 1)
        ]
        self.threads = [
            threading.Thread(target=self.server.serve_until_drained,
                             daemon=True),
            *[threading.Thread(target=host.run_forever, args=(self.stop,),
                               daemon=True) for host in self.hosts],
        ]

    def __enter__(self) -> FleetServer:
        for thread in self.threads:
            thread.start()
        return self.server

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.server.initiate_drain()
        for thread in self.threads:
            thread.join(timeout=10.0)
        stuck = [t for t in self.threads if t.is_alive()]
        for host in self.hosts:
            host.close()
        self.database.close()
        assert not stuck, "a host or the hub did not stop on drain"


class TestLongPollLease:
    @pytest.fixture
    def server(self):
        with TrialDatabase() as database:
            server = FleetServer(database, port=0)
            thread = threading.Thread(
                target=server.serve_until_drained, daemon=True
            )
            thread.start()
            server.handle_line(encode_frame(
                {"op": "register", "machine_id": "m1"}
            ))
            yield server
            server.initiate_drain()
            thread.join(timeout=5.0)

    def blocked_lease(self, server):
        """Start a ``lease`` that finds the queue empty and holds on."""
        box = {}

        def lease():
            box["response"] = server.handle_line(encode_frame(
                {"op": "lease", "machine_id": "m1", "wait_s": NEVER_S}
            ))
            box["returned_at"] = time.monotonic()

        thread = threading.Thread(target=lease, daemon=True)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive(), "the lease did not block"
        return thread, box

    def test_ring_hands_a_blocked_lease_the_new_job(self, server):
        thread, box = self.blocked_lease(server)
        server.queue.enqueue("sess", 1, "{}")
        rung_at = time.monotonic()
        server.jobs_bell.ring()
        thread.join(timeout=NEVER_S)
        assert box["response"]["job"]["trial_id"] == 1
        assert box["returned_at"] - rung_at < 0.5

    def test_initiate_drain_releases_a_blocked_lease(self, server):
        thread, box = self.blocked_lease(server)
        drained_at = time.monotonic()
        server.initiate_drain()
        thread.join(timeout=NEVER_S)
        assert box["response"]["ok"] and box["response"]["job"] is None
        assert box["returned_at"] - drained_at < 0.5

    def test_host_that_hung_up_mid_poll_is_not_leased_a_job(self, server):
        """A job leased to a closed connection would wait out a whole
        lease TTL before anyone else could run it."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        ) as sock:
            sock.sendall(encode_frame(
                {"op": "lease", "machine_id": "m1", "wait_s": NEVER_S}
            ))
            time.sleep(0.2)  # the handler is now holding the request
        server.queue.enqueue("sess", 1, "{}")
        server.jobs_bell.ring()
        time.sleep(0.3)
        assert server.queue.depths()["queued"] == 1

    def test_wait_is_capped_below_the_machine_heartbeat_interval(self):
        with TrialDatabase() as database:
            server = FleetServer(database, port=0, machine_ttl_s=0.4)
            try:
                server.handle_line(encode_frame(
                    {"op": "register", "machine_id": "m1"}
                ))
                started = time.monotonic()
                response = server.handle_line(encode_frame(
                    {"op": "lease", "machine_id": "m1", "wait_s": 60.0}
                ))
                assert response["ok"] and response["job"] is None
                assert 0.09 <= time.monotonic() - started < 0.4
                assert server.registry.get("m1").state == "alive"
            finally:
                server.server_close()

    @pytest.mark.parametrize("wait_s", ["soon", float("nan"), -3, None])
    def test_garbage_wait_s_is_answered_at_once(self, server, wait_s):
        started = time.monotonic()
        response = server.handle_line(encode_frame(
            {"op": "lease", "machine_id": "m1", "wait_s": wait_s}
        ))
        assert response["ok"] and response["job"] is None
        assert time.monotonic() - started < 0.5

    def test_new_host_drains_a_session_on_a_hub_that_ignores_wait_s(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fleet_server_module, "MAX_LEASE_WAIT_S", 0.0)
        self.drains(tmp_path, RemoteHost)

    def test_old_host_drains_a_session_on_a_long_polling_hub(self, tmp_path):
        self.drains(tmp_path, _OldHost)

    def drains(self, tmp_path, host_class):
        reference = inline_fingerprint(**TINY)
        with LiveFleet(tmp_path, hosts=1, host_class=host_class) as server:
            make_session(server.database, **TINY)
            results = server.run_sessions(drain=True)
        assert [fingerprint(r) for r in results] == [reference]


# -- idle connections -------------------------------------------------------------
class TestIdleConnectionsSurvive:
    """A connection that idles past ``READ_TIMEOUT_S`` used to be dropped
    by the server (the timed-out file object refused the next read); the
    reuse itself is pinned for both servers by ``tests/test_wire.py``,
    the read loop's buffering here."""

    def test_pipelined_frames_are_each_answered(self):
        """Two frames in one segment: the second must not sit in a
        buffer waiting for the socket to become readable again."""
        with TrialDatabase() as database:
            server = FleetServer(database, port=0)
            thread = threading.Thread(
                target=server.serve_until_drained, daemon=True
            )
            thread.start()
            try:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                ) as sock:
                    reader = sock.makefile("rb")
                    ping = encode_frame({"op": "ping"})
                    sock.sendall(ping + ping)
                    assert decode_frame(reader.readline())["pong"]
                    assert decode_frame(reader.readline())["pong"]
            finally:
                server.initiate_drain()
                thread.join(timeout=5.0)


# -- blobs are read once ------------------------------------------------------------
class TestResultBlobsAreReadOnce:
    def test_probe_carries_no_blob_and_each_result_is_fetched_once(
        self, monkeypatch
    ):
        db = TrialDatabase()
        session_id, _ = make_session(db, **TINY)
        fetched = []
        original = JobQueue.results_for

        def counting(self, session, trial_ids):
            results = original(self, session, trial_ids)
            fetched.extend(results)
            return results

        monkeypatch.setattr(JobQueue, "results_for", counting)
        result = SessionCoordinator(db, session_id).run()
        assert sorted(fetched) == sorted(t.trial_id for t in result.trials)
        settled = JobQueue(db).settled(session_id, fetched)
        assert set(settled.values()) == {("done", None)}


# -- one loop, three policies -----------------------------------------------------
#: Recorded on the parent commit (two drive loops) with this spec: the
#: integration order as (trial id, fidelity), scores, the winner, the
#: virtual makespan and — asynchronous sessions — the decision log.
GOLDENS = {
    "wave": dict(
        spec=dict(samples=160, max_trials=30),
        order=[(i, 1) for i in range(16)] + [(i, 2) for i in range(16, 24)]
        + [(i, 4) for i in range(24, 28)] + [(28, 8), (29, 8)],
        scores=[
            51.649603, 16.953715, 171.331198, 125.442428, 59.379259,
            270.146568, 369.541775, 63.014823, 11.942757, 387.025829,
            47.416663, 14.439262, 38.937033, 28.642828, 9.945612, 35.294357,
            113.635758, 75.583666, 50.449224, 23.792436, 95.558502,
            65.500425, 130.224121, 100.398954, 73.158532, 311.058424,
            240.507443, 88.394849, 156.169779, 154.690986,
        ],
        best={"gpus": 7, "num_layers": 18, "train_batch_size": 209},
        runtime_s=695.802469812019,
        log=None,
    ),
    "asha": dict(
        spec=dict(samples=160, max_trials=12, scheduler="asha"),
        order=[(i, 1) for i in range(9)] + [(16, 2), (17, 2), (18, 2)],
        scores=[
            37.761743, 82.304746, 10.952863, 12.931786, 17.378767,
            33.510793, 327.163333, 27.168598, 59.740841, 79.175536,
            91.273855, 32.843887,
        ],
        best={"gpus": 6, "num_layers": 34, "train_batch_size": 441},
        runtime_s=124.20997967161857,
        log=[
            [0, 0, 0, "pause", None], [1, 1, 0, "pause", None],
            [1, 0, 0, "promote", 16], [2, 2, 0, "promote", 17],
            [3, 3, 0, "promote", 18], [4, 4, 0, "pause", None],
            [5, 5, 0, "pause", None], [5, 4, 0, "promote", 19],
            [6, 6, 0, "pause", None], [7, 7, 0, "promote", 20],
            [8, 8, 0, "pause", None], [9, 16, 1, "pause", None],
            [10, 17, 1, "pause", None], [10, 16, 1, "promote", 21],
            [11, 18, 1, "promote", 22],
        ],
    ),
}


class TestOneLoopThreePolicies:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("policy,golden,pin_order", [
        ("wave", "wave", False),
        ("async", "asha", False),
        ("async+pin_order", "asha", True),
    ])
    def test_matches_the_two_loop_goldens(
        self, tmp_path, policy, golden, pin_order, workers
    ):
        expected = GOLDENS[golden]
        path = str(tmp_path / "s.sqlite") if workers else ":memory:"
        with TrialDatabase(path) as db:
            session_id, _ = make_session(db, **expected["spec"])
            result = SessionCoordinator(
                db, session_id, workers=workers, pin_order=pin_order
            ).run()
            log = SessionStore(db).get(session_id).result["decision_log"]
        assert len(result.trials) == len(expected["order"])
        if policy == "async" and workers:
            # Unpinned with real workers, the merge order is whatever
            # order they finish in — deterministic only in its shape.
            assert all(
                decision in ("promote", "pause", "complete")
                for _, _, _, decision, _ in log
            )
            return
        assert [
            (t.trial_id, t.fidelity) for t in result.trials
        ] == expected["order"]
        assert [t.score for t in result.trials] == pytest.approx(
            expected["scores"], rel=1e-6
        )
        assert dict(result.best_configuration) == expected["best"]
        assert result.tuning_runtime_s == pytest.approx(
            expected["runtime_s"], rel=1e-9
        )
        assert log == expected["log"]
