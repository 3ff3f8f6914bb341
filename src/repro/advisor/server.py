"""The recommendation server: high-throughput answers over TCP.

A stdlib :class:`socketserver.ThreadingTCPServer` speaking one JSON
object per line, designed for sustained load from many clients:

* connections are **persistent** — a client sends any number of requests
  over one socket, so the per-request cost is one read, one dict
  dispatch, one write;
* an **LRU response cache** short-circuits repeated questions without
  touching sqlite (the hot path for "what config for IC on armv7?"
  asked by a million users is a dict lookup);
* a per-client **token-bucket rate limit** (optional) sheds abusive
  traffic with an explicit ``rate_limited`` error instead of queueing it;
* **graceful drain**: SIGTERM (wired by the CLI) stops accepting new
  requests, lets in-flight ones finish, then returns from
  :meth:`serve_until_drained`;
* every request feeds the :class:`~repro.telemetry.MeterRegistry` —
  hit/miss/error counters and a latency meter whose snapshot reports
  p50/p90/p99.

Protocol (newline-delimited JSON, UTF-8)::

    → {"op": "ask", "workload": "IC", "device": "armv7",
       "objective": "runtime", "target_accuracy": 0.8}
    ← {"ok": true, "cache_hit": false, "advice": {...}}

    → {"op": "stats"}          ← {"ok": true, "stats": {...}, ...}
    → {"op": "index"}          ← {"ok": true, "indexed": 3}
    → {"op": "ping"}           ← {"ok": true, "pong": true}
"""

from __future__ import annotations

import json
import select
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..errors import AdvisorError
from ..storage import TrialDatabase
from ..telemetry import MeterRegistry
from .kb import KnowledgeBase

#: How long a handler blocks waiting for the next request line before
#: re-checking the drain flag, seconds.  Bounds drain latency.
READ_TIMEOUT_S = 0.2

#: Default response-cache capacity (distinct questions, not bytes).
DEFAULT_CACHE_SIZE = 1024

#: Hard cap on one request line; anything longer is a protocol violation
#: (or garbage) and gets an error response instead of unbounded buffering.
MAX_LINE_BYTES = 64 * 1024

#: Fields a cache key is built from, in canonical order.
_ASK_FIELDS = ("workload", "device", "objective", "target_accuracy",
               "system")


class LRUCache:
    """A thread-safe least-recently-used mapping of bounded size."""

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE):
        if capacity < 1:
            raise AdvisorError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._items: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class TokenBucket:
    """Per-key token buckets: ``rate`` requests/second, ``burst`` deep."""

    def __init__(self, rate: float, burst: Optional[int] = None):
        if rate <= 0:
            raise AdvisorError(f"rate limit must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1.0, rate))
        self._lock = threading.Lock()
        self._buckets: Dict[str, Tuple[float, float]] = {}

    def allow(self, key: str, now: Optional[float] = None) -> bool:
        now = time.monotonic() if now is None else now
        with self._lock:
            tokens, last = self._buckets.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens < 1.0:
                self._buckets[key] = (tokens, now)
                return False
            self._buckets[key] = (tokens - 1.0, now)
            return True


def read_frames(
    sock: socket.socket,
    draining: Callable[[], bool],
    idle_s: float,
    max_bytes: int,
) -> Iterator[bytes]:
    """Yield each newline-terminated line arriving on ``sock`` (a
    server's read loop; the fleet hub runs it too).

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


class _AdvisorHandler(socketserver.StreamRequestHandler):
    """One persistent client connection; loops until EOF or drain."""

    def handle(self) -> None:
        server: "AdvisorServer" = self.server  # type: ignore[assignment]
        client = self.client_address[0]
        server.meters.counter("advisor.connections").inc()
        for line in read_frames(
            self.connection, lambda: server.draining, READ_TIMEOUT_S,
            MAX_LINE_BYTES,
        ):
            if len(line) > MAX_LINE_BYTES:
                # Oversized frame: the rest of the stream cannot be
                # trusted to re-align on newlines, so answer with an
                # error and drop the connection.
                server.meters.counter("advisor.errors").inc()
                try:
                    self.wfile.write(
                        (json.dumps({
                            "ok": False,
                            "error": "request line too long",
                        }) + "\n").encode()
                    )
                except OSError:
                    pass
                break
            line = line.strip()
            if not line:
                continue
            with server.track_in_flight():
                response = server.handle_line(line, client)
            try:
                self.wfile.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode()
                )
            except OSError:
                break


class AdvisorServer(socketserver.ThreadingTCPServer):
    """Threaded line-JSON recommendation server over one knowledge base."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        database: TrialDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
        meters: Optional[MeterRegistry] = None,
    ):
        super().__init__((host, port), _AdvisorHandler)
        self.database = database
        self.kb = KnowledgeBase(database)
        self.cache = LRUCache(cache_size)
        self.limiter = (
            TokenBucket(rate_limit, burst) if rate_limit else None
        )
        self.meters = meters or MeterRegistry()
        self.draining = False
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._drained = threading.Event()

    # -- addresses ----------------------------------------------------------
    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    # -- in-flight accounting ------------------------------------------------
    def track_in_flight(self) -> "_InFlight":
        return _InFlight(self)

    @property
    def in_flight(self) -> int:
        with self._in_flight_lock:
            return self._in_flight

    # -- request dispatch ----------------------------------------------------
    def handle_line(self, line: bytes, client: str) -> Dict[str, Any]:
        """Parse and answer one request line (also the unit-test seam)."""
        started = time.perf_counter()
        self.meters.counter("advisor.requests").inc()
        try:
            payload = json.loads(line.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            self.meters.counter("advisor.errors").inc()
            return {"ok": False, "error": f"bad request: {error}"}
        try:
            response = self.process(payload, client)
        except Exception as error:  # noqa: BLE001 — one bad request must
            # not take down the handler thread (and with it the
            # connection of a well-behaved client pipelining requests).
            self.meters.counter("advisor.errors").inc()
            response = {
                "ok": False,
                "error": f"internal error: {type(error).__name__}: {error}",
            }
        self.meters.meter("advisor.latency_s").record(
            time.perf_counter() - started
        )
        return response

    def process(self, payload: Dict[str, Any], client: str) -> Dict[str, Any]:
        op = payload.get("op", "ask")
        if op == "ping":
            return {"ok": True, "pong": True, "draining": self.draining}
        if op == "stats":
            return {
                "ok": True,
                "stats": self.meters.snapshot(),
                "cache_entries": len(self.cache),
                "knowledge_base_size": self.kb.size(),
            }
        if op == "index":
            indexed = self.kb.index_sessions()
            self.cache.clear()
            self.meters.counter("advisor.indexed").inc(indexed)
            return {"ok": True, "indexed": indexed}
        if op == "ask":
            return self._ask(payload, client)
        self.meters.counter("advisor.errors").inc()
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _ask(self, payload: Dict[str, Any], client: str) -> Dict[str, Any]:
        if self.limiter is not None and not self.limiter.allow(client):
            self.meters.counter("advisor.rate_limited").inc()
            return {"ok": False, "error": "rate_limited"}
        key = tuple(payload.get(field) for field in _ASK_FIELDS)
        cached = self.cache.get(key)
        if cached is not None:
            self.meters.counter("advisor.cache_hits").inc()
            return dict(cached, cache_hit=True)
        self.meters.counter("advisor.cache_misses").inc()
        try:
            advice = self.kb.query(
                workload=payload.get("workload", ""),
                device=payload.get("device", "armv7"),
                objective=payload.get("objective", "runtime"),
                target_accuracy=payload.get("target_accuracy"),
                system=payload.get("system"),
                allow_nearest=bool(payload.get("allow_nearest", True)),
            )
        except AdvisorError as error:
            self.meters.counter("advisor.errors").inc()
            return {"ok": False, "error": str(error)}
        response = {"ok": True, "advice": advice.to_dict()}
        self.cache.put(key, response)
        return dict(response, cache_hit=False)

    # -- lifecycle ----------------------------------------------------------
    def initiate_drain(self) -> None:
        """Stop accepting work and unblock :meth:`serve_until_drained`.

        Safe to call from a signal handler: the blocking ``shutdown`` is
        moved onto a helper thread.
        """
        if self.draining:
            return
        self.draining = True
        threading.Thread(target=self.shutdown, daemon=True).start()

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
            deadline = time.monotonic() + drain_timeout_s
            while self.in_flight > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            self.server_close()
            self._drained.set()


class _InFlight:
    """Context manager counting requests currently being answered."""

    def __init__(self, server: AdvisorServer):
        self._server = server

    def __enter__(self) -> "_InFlight":
        with self._server._in_flight_lock:
            self._server._in_flight += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with self._server._in_flight_lock:
            self._server._in_flight -= 1
