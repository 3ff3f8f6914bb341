"""The wire layer: newline-delimited JSON frames over persistent TCP.

The transport under the fleet hub (:mod:`repro.fleet`), kept apart from
its verbs: framing, the server's read loop and connection handler,
in-flight accounting, graceful drain, rate limiting, and the client's
reconnect-and-retry loop.  A protocol is what is left — a
:class:`FrameServer` subclass naming its meter prefix, its request cap
and a **verb table** (``op`` → method), and a :class:`FrameClient`
subclass naming its error type and its chaos sites.

Request frames are ``{"op": <name>, ...}``; response frames are
``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``; binary
fields travel base64-inside-JSON.  Connections are persistent: per frame
the cost is one read, one decode, one dict dispatch, one encode, one
write.

Imports only the standard library plus :mod:`repro.errors`,
:mod:`repro.faults` and :mod:`repro.telemetry`.
"""

from __future__ import annotations

import base64
import contextlib
import json
import random
import select
import signal
import socket
import socketserver
import threading
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Type

from . import clock
from .errors import ReproError, WireError
from .faults import should
from .telemetry import MeterRegistry

Frame = Dict[str, Any]
#: A verb's view of its client: the socket (a verb holding a request must
#: notice a hang-up), or ``None`` at the in-process test seam.
Peer = Optional[socket.socket]

#: Default frame size cap.  The largest frames are the fleet's
#: ``complete`` uploads (a pickled evaluation, 18 KB since a model
#: pickles only its state — DESIGN §5d); 32 MiB leaves a wide margin
#: while still rejecting a runaway (or hostile) frame before it exhausts
#: memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: How long a handler waits for the next frame before re-checking the
#: drain flag, seconds.  Bounds drain latency.
READ_TIMEOUT_S = 0.2

#: Client retries after the first attempt; 3 tries total by default.
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.05

#: Ceiling on one backoff sleep — with the deep retry budgets hosts use
#: to ride out a hub restart, uncapped doubling would sleep for minutes.
MAX_BACKOFF_S = 2.0


# -- framing -------------------------------------------------------------------------
def encode_frame(message: Frame) -> bytes:
    """One message → one ``\\n``-terminated JSON line."""
    line = json.dumps(message, separators=(",", ":"), sort_keys=True)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(data)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return data


def decode_frame(line: bytes) -> Frame:
    """One received line → message dict (raises :class:`WireError` on
    garbage — the caller decides whether the connection survives)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable frame: {error}")
    if not isinstance(message, dict):
        raise WireError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def pack_bytes(payload: Optional[bytes]) -> Optional[str]:
    """Binary → base64 text for JSON transport (``None`` passes through)."""
    if payload is None:
        return None
    return base64.b64encode(payload).decode("ascii")


def unpack_bytes(text: Optional[str]) -> Optional[bytes]:
    if text is None:
        return None
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as error:
        raise WireError(f"undecodable binary field: {error}")


def error_frame(message: str, **extra: Any) -> Frame:
    return {"ok": False, "error": str(message), **extra}


def ok_frame(**fields: Any) -> Frame:
    return {"ok": True, **fields}


# -- reading a connection ------------------------------------------------------------
def peer_closed(sock: socket.socket) -> bool:
    """Whether the peer has hung up, judged without consuming a byte."""
    try:
        if not select.select([sock], [], [], 0)[0]:
            return False
        return sock.recv(1, socket.MSG_PEEK) == b""
    except OSError:
        return True


def read_frames(
    sock: socket.socket,
    draining: Callable[[], bool],
    idle_s: float,
    max_bytes: int,
) -> Iterator[bytes]:
    """Yield each newline-terminated line arriving on ``sock`` (the one
    server read loop).

    Ends on EOF, on a connection error, or once ``draining()`` is true —
    re-checked every ``idle_s`` while the peer is silent, by ``select``
    on the blocking socket (a socket *timeout* would poison a buffered
    reader: it refuses every read after the first timeout).  A line over
    ``max_bytes`` is yielded as far as read and ends the stream.
    """
    buffer = bytearray()
    scanned = 0  # no newline before here: a big frame is searched once
    while not draining():
        end = buffer.find(b"\n", scanned)
        scanned = len(buffer)
        if end >= 0:
            line = bytes(buffer[:end + 1])
            del buffer[:end + 1]
            scanned = 0
            yield line
        elif len(buffer) > max_bytes:
            yield bytes(buffer)
            return
        else:
            try:
                if not select.select([sock], [], [], idle_s)[0]:
                    continue
                chunk = sock.recv(1 << 16)
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk


class TokenBucket:
    """Per-key token buckets: ``rate`` requests/second, ``burst`` deep."""

    def __init__(self, rate: float, burst: Optional[int] = None):
        if rate <= 0:
            raise WireError(f"rate limit must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1.0, rate))
        self._lock = threading.Lock()
        self._buckets: Dict[str, Tuple[float, float]] = {}

    def allow(self, key: str) -> bool:
        now = clock.monotonic()
        with self._lock:
            tokens, last = self._buckets.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens < 1.0:
                self._buckets[key] = (tokens, now)
                return False
            self._buckets[key] = (tokens - 1.0, now)
            return True


# -- server --------------------------------------------------------------------------
class _FrameHandler(socketserver.StreamRequestHandler):
    """One persistent client connection; loops until EOF or drain."""

    def handle(self) -> None:
        server: "FrameServer" = self.server  # type: ignore[assignment]
        client = self.client_address[0]
        server._count("connections")
        for line in read_frames(
            self.connection, lambda: server.draining, READ_TIMEOUT_S,
            server.max_frame_bytes,
        ):
            oversized = len(line) > server.max_frame_bytes
            if oversized:
                # The rest of the stream cannot be trusted to re-align
                # on newlines: answer with an error, then hang up.
                server._count("errors")
                response = error_frame("frame too long")
            else:
                line = line.strip()
                if not line:
                    continue
                with server._in_flight_lock:
                    server.in_flight += 1
                try:
                    response = server.handle_line(
                        line, client, self.connection
                    )
                finally:
                    with server._in_flight_lock:
                        server.in_flight -= 1
            try:
                self.wfile.write(encode_frame(response))
            except OSError:
                break
            if oversized:
                break


class FrameServer(socketserver.ThreadingTCPServer):
    """Threaded frame server; a protocol subclasses it with a verb table."""

    daemon_threads = True
    allow_reuse_address = True

    #: Prefix of this protocol's meters (``<prefix>.requests``,
    #: ``.connections``, ``.errors``, ``.rate_limited``, ``.latency_s``).
    meter_prefix = "wire"
    #: Hard cap on one request frame; anything longer is a protocol
    #: violation (or garbage) and gets an error instead of unbounded
    #: buffering.
    max_frame_bytes = MAX_FRAME_BYTES

    def __init__(
        self,
        host: str,
        port: int,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
    ):
        super().__init__((host, port), _FrameHandler)
        self.meters = MeterRegistry()
        self.limiter = TokenBucket(rate_limit, burst) if rate_limit else None
        self.draining = False
        #: Frames currently being answered (drain waits for zero).
        self.in_flight = 0
        self._in_flight_lock = threading.Lock()

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    def _count(self, name: str) -> None:
        self.meters.count(f"{self.meter_prefix}.{name}")

    # -- request dispatch ----------------------------------------------------
    def handle_line(
        self, line: bytes, client: str = "", connection: Peer = None
    ) -> Frame:
        """Answer one frame: decode, rate-limit, dispatch through
        :attr:`verbs`, contain errors, meter the latency (also the
        unit-test seam, which has no ``connection``)."""
        started = clock.monotonic()
        self._count("requests")
        try:
            payload = decode_frame(line)
        except WireError as error:
            self._count("errors")
            return error_frame(f"bad frame: {error}")
        op = payload.get("op")
        try:
            verb = self.verbs.get(op)  # an unhashable ``op`` raises here
            if (
                self.limiter is not None and op != "ping"
                and not self.limiter.allow(client)
            ):
                # Shed abusive traffic explicitly instead of queueing it;
                # the liveness probe spends no token.
                self._count("rate_limited")
                response = error_frame("rate_limited")
            elif verb is None:
                self._count("errors")
                response = error_frame(f"unknown op {op!r}")
            else:
                response = verb(self, payload, connection)
        except Exception as error:  # noqa: BLE001 — one bad request must
            # not take down the handler thread (and with it the
            # connection of a well-behaved client pipelining requests).
            self._count("errors")
            response = error_frame(
                f"internal error: {type(error).__name__}: {error}"
            )
        self.meters.record(
            f"{self.meter_prefix}.latency_s", clock.monotonic() - started
        )
        return response

    def _ping(self, payload: Frame, connection: Peer) -> Frame:
        return ok_frame(pong=True, draining=self.draining)

    #: ``op`` → verb, called as ``verb(server, payload, connection)``.
    verbs: Dict[Optional[str], Callable[..., Frame]] = {"ping": _ping}

    # -- lifecycle -----------------------------------------------------------
    def initiate_drain(self) -> None:
        """Stop accepting work and unblock :meth:`serve_until_drained`.

        Safe to call from a signal handler: everything that blocks or
        takes a lock — :meth:`_on_drain`, then ``shutdown`` — is moved
        onto a helper thread.
        """
        if self.draining:
            return
        self.draining = True

        def release() -> None:
            self._on_drain()
            self.shutdown()

        threading.Thread(target=release, daemon=True).start()

    def _on_drain(self) -> None:
        """Hook: release whatever a protocol has blocked on the drain
        flag (the fleet hub's long-polled leases, its janitor)."""

    def serve_until_drained(
        self, poll_interval: float = 0.1, drain_timeout_s: float = 5.0
    ) -> None:
        """``serve_forever`` plus an orderly exit.

        Returns once :meth:`initiate_drain` was called, every in-flight
        request finished (or ``drain_timeout_s`` elapsed), and the
        listening socket is closed.
        """
        try:
            self.serve_forever(poll_interval=poll_interval)
        finally:
            deadline = clock.monotonic() + drain_timeout_s
            while self.in_flight > 0 and clock.monotonic() < deadline:
                clock.sleep(0.01)
            self.server_close()

    @contextlib.contextmanager
    def serving(
        self, signals: bool = False, drain_timeout_s: float = 5.0
    ) -> Iterator[threading.Thread]:
        """Serve on a daemon thread for the length of the block, then
        drain and join it.  With ``signals`` (main thread only) SIGTERM
        and SIGINT start the drain too; ``join`` the yielded thread to
        serve until one arrives."""
        if signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: self.initiate_drain())
        thread = threading.Thread(
            target=self.serve_until_drained,
            kwargs={"drain_timeout_s": drain_timeout_s}, daemon=True,
        )
        thread.start()
        try:
            yield thread
        finally:
            self.initiate_drain()
            thread.join(timeout=2 * drain_timeout_s)


# -- client --------------------------------------------------------------------------
class FrameClient:
    """Blocking client over one persistent TCP connection.

    Transport errors and malformed responses are retried a bounded
    number of times with jittered exponential backoff, reconnecting each
    time.  The chaos sites (:mod:`repro.faults`, keyed on the request
    sequence number and attempt) are named per protocol.
    """

    #: What :meth:`request` raises, and how messages name the other end.
    error: Type[ReproError] = WireError
    peer = "server"
    #: Chaos: sever the socket mid-request (a dropped switch port, a
    #: restarting server); dial afresh before it (NAT/keepalive churn, no
    #: bytes lost).
    sever_site: Optional[str] = None
    churn_site: Optional[str] = None

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ):
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._request_seq = 0

    # -- connection ----------------------------------------------------------
    def connect(self) -> "FrameClient":
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout_s
                )
            except OSError as error:
                raise self.error(
                    f"cannot reach {self.peer} at {self.host}:{self.port}: "
                    f"{error}"
                )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- requests ------------------------------------------------------------
    def request(self, op: str, **params: Any) -> Frame:
        """Send one frame, retrying transport faults with backoff.

        Raises :attr:`error` once the retry budget is spent.
        """
        payload = dict(params, op=op)
        for attempt in range(1, self.retries + 2):
            try:
                return self._request_once(payload, attempt)
            except self.error as error:
                last_error = error
                # Reconnect-resync: after a transport error or garbage
                # frame the stream position is unknowable; a fresh
                # connection is the only safe retry.
                self.close()
                if attempt <= self.retries:
                    clock.sleep(
                        min(MAX_BACKOFF_S,
                            self.backoff_s * (2.0 ** (attempt - 1)))
                        * random.uniform(0.5, 1.0)
                    )
        raise last_error

    def _request_once(self, payload: Frame, attempt: int) -> Frame:
        self._request_seq += 1
        seq = self._request_seq
        if self.churn_site and self._sock is not None and should(
            self.churn_site, key=seq, attempt=attempt
        ):
            self.close()
        self.connect()
        assert self._sock is not None and self._rfile is not None
        if self.sever_site and should(
            self.sever_site, key=seq, attempt=attempt
        ):
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            # Not ``encode_frame``: servers take either spelling, and the
            # session benchmark's ``bytes_out`` counts that function's
            # output as *response* bytes.
            self._sock.sendall(
                (json.dumps(payload, sort_keys=True) + "\n").encode()
            )
            line = self._rfile.readline(MAX_FRAME_BYTES + 1)
        except OSError as error:
            raise self.error(f"{self.peer} connection failed: {error}")
        if not line:
            raise self.error(f"{self.peer} closed the connection")
        try:
            return decode_frame(line)
        except WireError as error:
            raise self.error(f"malformed {self.peer} response: {error}")
