"""Line-JSON client for the recommendation server.

One persistent connection per client; every request is one line out, one
line back.  Used by ``advisor ask``/``advisor bench``, the load
generator's worker threads, and tests.

Resilience: :class:`~repro.wire.FrameClient`'s bounded, backed-off
reconnect-and-retry, with the ``advisor.drop`` and ``advisor.garbage``
chaos sites.  On top, an optional
:class:`~repro.advisor.resilience.CircuitBreaker` makes a *dead* advisor
cheap: after a few consecutive failures requests fail instantly instead
of burning a connect timeout each, and callers fall back to cold-start
via :meth:`AdvisorClient.try_ask`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import AdvisorError
from ..wire import DEFAULT_BACKOFF_S, DEFAULT_RETRIES, Frame, FrameClient
from .resilience import CircuitBreaker

DEFAULT_PORT = 8377
DEFAULT_TIMEOUT_S = 5.0


class AdvisorClient(FrameClient):
    """Blocking client over one persistent TCP connection."""

    error = AdvisorError
    peer = "advisor"
    sever_site = "advisor.drop"
    garbage_site = "advisor.garbage"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        breaker: Optional[CircuitBreaker] = None,
    ):
        super().__init__(host, port, timeout_s, retries, backoff_s)
        self.breaker = breaker

    # -- circuit breaker ----------------------------------------------------
    def _admit(self) -> None:
        if self.breaker is not None and not self.breaker.allow():
            raise AdvisorError(
                f"advisor at {self.host}:{self.port} circuit is open; "
                "failing fast"
            )

    def _request_once(self, payload: Frame, attempt: int) -> Frame:
        try:
            response = super()._request_once(payload, attempt)
        except AdvisorError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return response

    # -- verbs --------------------------------------------------------------
    def ask(
        self,
        workload: str,
        device: str = "armv7",
        objective: str = "runtime",
        target_accuracy: Optional[float] = None,
        system: Optional[str] = None,
        allow_nearest: bool = True,
    ) -> Dict[str, Any]:
        return self.request(
            "ask",
            workload=workload,
            device=device,
            objective=objective,
            target_accuracy=target_accuracy,
            system=system,
            allow_nearest=allow_nearest,
        )

    def try_ask(self, *args: Any, **kwargs: Any) -> Optional[Dict[str, Any]]:
        """Best-effort :meth:`ask`: ``None`` instead of raising.

        The warm-start fallback — callers treat ``None`` exactly like
        "no advice available" and cold-start the search.
        """
        try:
            return self.ask(*args, **kwargs)
        except AdvisorError:
            return None

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def index(self) -> Dict[str, Any]:
        return self.request("index")
