"""The recommendation server: high-throughput answers over TCP.

A :class:`~repro.wire.FrameServer` (persistent connections, graceful
SIGTERM drain, error containment — see :mod:`repro.wire`) designed for
sustained load from many clients.  What is the advisor's own:

* an **LRU response cache** short-circuits repeated questions without
  touching sqlite (the hot path for "what config for IC on armv7?"
  asked by a million users is a dict lookup);
* a per-client **token-bucket rate limit** (optional) on ``ask`` — the
  one verb that can cost a knowledge-base query;
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

import threading
from collections import OrderedDict
from typing import Any, Optional

from ..errors import AdvisorError
from ..storage import TrialDatabase
from ..wire import Frame, FrameServer, Peer
from .kb import KnowledgeBase

#: Default response-cache capacity (distinct questions, not bytes).
DEFAULT_CACHE_SIZE = 1024

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


class AdvisorServer(FrameServer):
    """Threaded line-JSON recommendation server over one knowledge base."""

    meter_prefix = "advisor"
    #: A question is a few hundred bytes; 64 KiB is already generous.
    max_frame_bytes = 64 * 1024

    def __init__(
        self,
        database: TrialDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        rate_limit: Optional[float] = None,
        burst: Optional[int] = None,
    ):
        super().__init__(host, port, rate_limit, burst)
        self.database = database
        self.kb = KnowledgeBase(database)
        self.cache = LRUCache(cache_size)

    def limits(self, op: Optional[str]) -> bool:
        return op in (None, "ask")

    # -- verbs ---------------------------------------------------------------
    def _stats(self, payload: Frame, connection: Peer) -> Frame:
        return {
            "ok": True,
            "stats": self.meters.snapshot(),
            "cache_entries": len(self.cache),
            "knowledge_base_size": self.kb.size(),
        }

    def _index(self, payload: Frame, connection: Peer) -> Frame:
        indexed = self.kb.index_sessions()
        self.cache.clear()
        self.meters.count("advisor.indexed", indexed)
        return {"ok": True, "indexed": indexed}

    def _ask(self, payload: Frame, connection: Peer) -> Frame:
        key = tuple(payload.get(field) for field in _ASK_FIELDS)
        cached = self.cache.get(key)
        if cached is not None:
            self.meters.count("advisor.cache_hits")
            return dict(cached, cache_hit=True)
        self.meters.count("advisor.cache_misses")
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
            self.meters.count("advisor.errors")
            return {"ok": False, "error": str(error)}
        response = {"ok": True, "advice": advice.to_dict()}
        self.cache.put(key, response)
        return dict(response, cache_hit=False)

    verbs = {
        **FrameServer.verbs,
        None: _ask,  # a frame without an ``op`` is an ``ask``
        "ask": _ask,
        "stats": _stats,
        "index": _index,
    }
