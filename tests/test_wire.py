"""The transport contract of :mod:`repro.wire`, kept by every protocol
built on it: one suite, parametrized over the protocols (the fleet hub's
server and its client)."""

import ast
import contextlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import NamedTuple, Tuple

import pytest

import repro.fleet.wire
from repro import faults, wire
from repro.errors import FleetError, WireError
from repro.fleet.client import FleetClient
from repro.fleet.server import FleetServer
from repro.storage import TrialDatabase
from repro.wire import MAX_BACKOFF_S, READ_TIMEOUT_S, decode_frame
from tests.clocks import frozen_clock  # noqa: F401 (fixture)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Protocol(NamedTuple):
    prefix: str
    server: type
    client: type
    error: type
    #: Chaos sites: sever mid-request, and the protocol's second site.
    sites: Tuple[str, str]
    #: Per request, how often each site fired under ``seed=7`` with both
    #: sites at 0.5 — recorded at the commit before the clients shared
    #: one ``_request_once``: the sites still key on ``(seq, attempt)``.
    fired: Tuple[Tuple[int, int], ...]


PROTOCOLS = {
    "fleet": Protocol(
        "fleet", FleetServer, FleetClient, FleetError,
        ("fleet.partition", "fleet.reconnect_storm"),
        ((1, 1), (0, 1), (1, 0), (0, 0), (0, 0), (1, 0),
         (0, 1), (1, 0), (1, 0), (0, 0), (1, 0), (1, 0)),
    ),
}


@pytest.fixture(params=sorted(PROTOCOLS))
def proto(request):
    return PROTOCOLS[request.param]


@pytest.fixture
def server(proto):
    with TrialDatabase() as database:
        server = proto.server(database, port=0)
        with server.serving() as thread:
            yield server
        assert not thread.is_alive(), "the server did not drain"


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


@contextlib.contextmanager
def raw_connection(server):
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=5.0
    ) as sock:
        yield sock, sock.makefile("rb")


#: Frames every server answers with an error frame (by its prefix) while
#: keeping the connection: undecodable bytes, valid JSON that is not an
#: object, an ``op`` no verb table holds, and one no table *can* hold.
HOSTILE_FRAMES = (
    (b"\x00\xfe{{{not json at all", "bad frame: undecodable frame"),
    (b"[1, 2, 3]", "bad frame: frame must be a JSON object"),
    (b'{"op": "frobnicate"}', "unknown op 'frobnicate'"),
    (b'{"op": ["ping"]}', "internal error: TypeError"),
)


def count(server, proto, name):
    return server.meters.snapshot().get(f"{proto.prefix}.{name}", 0)


class TestServerContract:
    def test_garbage_frame_is_answered_and_connection_kept(
        self, server, proto
    ):
        with raw_connection(server) as (sock, reader):
            for hostile, error in HOSTILE_FRAMES:
                sock.sendall(hostile + b'\n{"op": "ping"}\n')
                response = decode_frame(reader.readline())
                assert not response["ok"]
                assert response["error"].startswith(error)
                # The newline kept the stream aligned: same connection,
                # next frame served.
                assert decode_frame(reader.readline())["pong"] is True
        assert count(server, proto, "errors") == len(HOSTILE_FRAMES)
        # And other clients are unaffected.
        with proto.client("127.0.0.1", server.port) as client:
            assert client.request("ping")["ok"]

    def test_oversized_frame_is_answered_then_hung_up_on(
        self, server, proto
    ):
        assert FleetServer.max_frame_bytes == 32 * 1024 * 1024
        server.max_frame_bytes = 4096
        with raw_connection(server) as (sock, reader):
            sock.sendall(b"x" * 10000 + b"\n" + b'{"op": "ping"}\n')
            response = decode_frame(reader.readline())
            assert not response["ok"]
            assert "frame too long" in response["error"]
            # The stream is unrecoverable: the server hangs up (a reset
            # is possible when it closes with bytes still unread).
            try:
                rest = reader.readline()
            except OSError:
                rest = b""
            assert rest == b""
        assert count(server, proto, "errors") == 1
        # New connections are still served.
        with proto.client("127.0.0.1", server.port) as client:
            assert client.request("ping")["ok"]

    def test_connection_idle_past_the_read_timeout_is_reused(
        self, server, proto
    ):
        """The read loop re-checks the drain flag every
        ``READ_TIMEOUT_S``; that must not cost an idle client its
        connection (a failed read, a backoff sleep and a redial)."""
        with proto.client("127.0.0.1", server.port) as client:
            assert client.request("ping")["pong"]
            sock = client._sock
            time.sleep(3 * READ_TIMEOUT_S)
            assert client.request("ping")["pong"]
            assert client._sock is sock, "the client had to redial"
        assert count(server, proto, "connections") == 1

    def test_verb_that_raises_becomes_an_internal_error_frame(
        self, server, proto
    ):
        def meltdown(server, payload, connection):
            raise RuntimeError("kb meltdown")

        server.verbs = dict(server.verbs, meltdown=meltdown)
        with proto.client(
            "127.0.0.1", server.port, retries=0
        ) as client:
            response = client.request("meltdown")
            assert not response["ok"]
            assert "internal error" in response["error"]
            assert "RuntimeError: kb meltdown" in response["error"]
            assert count(server, proto, "errors") == 1
            # The handler thread survived: the next frame is served, on
            # the same connection.
            assert client.request("ping")["ok"]
        assert count(server, proto, "connections") == 1

    def test_drain_waits_for_in_flight_and_refuses_late_frames(
        self, proto
    ):
        entered, release = threading.Event(), threading.Event()

        def slow(server, payload, connection):
            entered.set()
            release.wait(10.0)
            return {"ok": True, "finished": True}

        answers = []
        with TrialDatabase() as database:
            server = proto.server(database, port=0)
            server.verbs = dict(server.verbs, slow=slow)
            with server.serving() as serve_thread:
                with proto.client("127.0.0.1", server.port) as busy, \
                        proto.client(
                            "127.0.0.1", server.port, retries=0
                        ) as late:
                    assert late.request("ping")["ok"]
                    asker = threading.Thread(
                        target=lambda: answers.append(busy.request("slow")),
                        daemon=True,
                    )
                    asker.start()
                    assert entered.wait(5.0)
                    assert server.in_flight == 1
                    server.initiate_drain()
                    # A frame arriving now is not answered...
                    with pytest.raises(proto.error):
                        late.request("ping")
                    # ...while the one in flight holds the drain open.
                    serve_thread.join(timeout=0.3)
                    assert serve_thread.is_alive()
                    release.set()
                    asker.join(timeout=5.0)
                    assert answers == [{"ok": True, "finished": True}]
                    serve_thread.join(timeout=5.0)
                    assert not serve_thread.is_alive()
                    assert server.in_flight == 0

    def test_latency_is_metered_under_the_protocol_prefix(self, proto):
        with TrialDatabase() as database:
            server = proto.server(database, port=0)
            try:
                assert server.handle_line(b'{"op": "ping"}') == {
                    "ok": True, "pong": True, "draining": False,
                }
                assert not server.handle_line(b"[1, 2, 3]")["ok"]
                stats = server.meters.snapshot()
                assert stats[f"{proto.prefix}.requests"] == 2
                assert stats[f"{proto.prefix}.errors"] == 1
                # Answered frames are timed; undecodable ones are not.
                assert stats[f"{proto.prefix}.latency_s"]["count"] == 1
                assert {"p50", "p90", "p99"} <= set(
                    stats[f"{proto.prefix}.latency_s"]
                )
            finally:
                server.server_close()


    def test_every_op_but_ping_spends_a_rate_limit_token(
        self, proto, frozen_clock
    ):
        with TrialDatabase() as database:
            server = proto.server(database, port=0, rate_limit=1.0, burst=2)
            try:
                for _ in range(4):
                    assert server.handle_line(b'{"op": "ping"}', "a")["ok"]
                errors = [
                    server.handle_line(b'{"op": "frobnicate"}', "a")["error"]
                    for _ in range(3)
                ]
                assert errors == ["unknown op 'frobnicate'"] * 2 + [
                    "rate_limited"
                ]
                # Each client has its own bucket.
                assert server.handle_line(
                    b'{"op": "frobnicate"}', "b"
                )["error"] == "unknown op 'frobnicate'"
                assert count(server, proto, "rate_limited") == 1
            finally:
                server.server_close()


class TestTokenBucket:
    def test_rate_validated(self):
        with pytest.raises(WireError):
            wire.TokenBucket(0.0)

    def test_burst_then_refusal(self, frozen_clock):
        bucket = wire.TokenBucket(rate=1.0, burst=3)
        assert all(bucket.allow("c") for _ in range(3))
        assert not bucket.allow("c")

    def test_refills_over_time(self, frozen_clock):
        bucket = wire.TokenBucket(rate=2.0, burst=2)
        assert bucket.allow("c")
        assert bucket.allow("c")
        assert not bucket.allow("c")
        frozen_clock.advance(1.0)
        assert bucket.allow("c")  # 2 tokens/s refill

    def test_clients_are_independent(self, frozen_clock):
        bucket = wire.TokenBucket(rate=1.0, burst=1)
        assert bucket.allow("a")
        assert bucket.allow("b")
        assert not bucket.allow("a")


class TestClientContract:
    def test_chaos_sites_fire_on_the_pinned_requests(
        self, server, proto
    ):
        """Severed sockets, churned connections and garbage replies are
        each healed by a reconnect — and for a pinned seed they strike
        the same requests as before the clients were one class."""
        faults.configure(
            f"seed=7;{proto.sites[0]}=0.5;{proto.sites[1]}=0.5",
            propagate=False,
        )
        fired = []
        with proto.client(
            "127.0.0.1", server.port, backoff_s=0.001
        ) as client:
            for _ in proto.fired:
                before = dict(faults.get_plan().fired)
                assert client.request("ping")["pong"]
                after = faults.get_plan().fired
                fired.append(tuple(
                    after.get(site, 0) - before.get(site, 0)
                    for site in proto.sites
                ))
        assert tuple(fired) == proto.fired

    def test_exhausted_budget_raises_the_protocols_error(
        self, server, proto
    ):
        # Severed on every attempt (until_attempt=99): retries cannot win.
        faults.configure(f"seed=1;{proto.sites[0]}=1.0:99", propagate=False)
        client = proto.client(
            "127.0.0.1", server.port, retries=1, backoff_s=0.001
        )
        with pytest.raises(proto.error) as raised:
            client.request("ping")
        assert type(raised.value) is proto.error
        assert client._request_seq == 2  # one try, one retry
        assert client._sock is None  # left closed, ready to redial

    def test_unreachable_server_raises_the_protocols_error(self, proto):
        client = proto.client("127.0.0.1", 1, timeout_s=0.1, retries=0)
        with pytest.raises(proto.error, match="cannot reach"):
            client.request("ping")

    def test_no_backoff_sleep_exceeds_the_cap(self, proto, frozen_clock):
        sleeps = frozen_clock.sleeps
        client = proto.client(
            "127.0.0.1", 1, timeout_s=0.1, retries=8, backoff_s=1.0
        )
        with pytest.raises(proto.error):
            client.request("ping")
        assert len(sleeps) == 8
        assert max(sleeps) <= MAX_BACKOFF_S
        # Doubling from 1 s would have slept ~128 s by now: the cap, not
        # a small budget, is what bounds the last sleeps (jitter halves
        # a sleep at most).
        assert all(sleep >= MAX_BACKOFF_S / 2 for sleep in sleeps[2:])

    def test_endless_reply_is_cut_off_at_the_frame_cap(
        self, proto, monkeypatch
    ):
        """A peer streaming bytes with no newline must cost a bounded
        read and a retry, not unbounded buffering."""
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
        flood_limit = 16 * 1024 * 1024  # per connection; never reached
        sent = []
        listener = socket.create_server(("127.0.0.1", 0))

        def flood():
            while True:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    return
                sent.append(0)
                with connection:
                    try:
                        while sent[-1] < flood_limit:
                            sent[-1] += connection.send(b"x" * 65536)
                    except OSError:
                        pass  # the client gave up on this connection

        thread = threading.Thread(target=flood, daemon=True)
        thread.start()
        try:
            client = proto.client(
                "127.0.0.1", listener.getsockname()[1],
                retries=2, backoff_s=0.001,
            )
            with pytest.raises(proto.error, match="malformed"):
                client.request("ping")
            client.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)
        assert len(sent) == 3  # one dial per attempt
        assert max(sent) < flood_limit


class TestLayering:
    def test_wire_imports_only_the_stdlib_and_four_leaf_modules(self):
        with open(os.path.join(REPO, "src", "repro", "wire.py")) as handle:
            tree = ast.parse(handle.read())
        relative, absolute = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1
                # ``from . import clock, faults`` names the modules itself.
                relative.update(
                    [node.module] if node.module
                    else (alias.name for alias in node.names)
                )
            elif isinstance(node, ast.ImportFrom):
                absolute.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                absolute.update(a.name.split(".")[0] for a in node.names)
        assert relative == {"clock", "errors", "faults", "telemetry"}
        stdlib = getattr(sys, "stdlib_module_names", None)  # 3.10+
        if stdlib is not None:
            assert absolute <= set(stdlib), absolute - set(stdlib)
        assert not absolute & {"repro", "numpy"}

    def test_each_protocol_keeps_its_error_family(self):
        assert repro.fleet.wire.decode_frame is wire.decode_frame
        with pytest.raises(FleetError):
            repro.fleet.wire.decode_frame(b"{nope")
        with pytest.raises(FleetError):
            repro.fleet.wire.unpack_bytes("not base64!!")


class TestServingHelper:
    """``FrameServer.serving(signals=True)`` at its CLI call site: a
    ``fleet serve`` process drains on SIGTERM and exits cleanly (the
    hub-restart drill in ``tests/test_faults_fleet.py`` kills it
    instead)."""

    def test_fleet_serve_drains_on_sigterm(self, tmp_path):
        db = str(tmp_path / "hub.sqlite")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "serve",
             "--db", db, "--port", "0"],
            env=dict(os.environ, PYTHONPATH="src"), cwd=REPO,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith(
                "fleet coordinator listening on 127.0.0.1:"
            )
            port = int(banner.split()[4].rpartition(":")[2])
            with FleetClient(port=port) as client:
                assert client.request("ping")["pong"]
                process.send_signal(signal.SIGTERM)
                out, _ = process.communicate(timeout=20.0)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0
        assert "fleet stats: " in out
