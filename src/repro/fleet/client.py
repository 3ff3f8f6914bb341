"""Line-JSON client for the fleet dispatch server.

One persistent connection per host process, with
:class:`~repro.wire.FrameClient`'s resilience discipline: transport
errors and malformed frames are retried a bounded number of times with
jittered exponential backoff, reconnecting each time — a fresh
connection is the only reliable way to resynchronise a line protocol
after garbage.

Two chaos sites live here.  ``fleet.partition`` severs the socket
mid-request — exactly what a dropped switch port or a mid-request server
restart looks like from the host's side — so the reconnect-resync retry
path is exercised for real.  ``fleet.reconnect_storm`` is the gentler
cousin: it forces the client onto a *fresh* connection before each
request (clean close + reconnect, no bytes lost), modelling flappy
NAT/keepalive churn and proving the protocol carries no per-connection
state worth losing.
"""

from __future__ import annotations

from ..errors import FleetError
from ..wire import DEFAULT_BACKOFF_S, DEFAULT_RETRIES, FrameClient

DEFAULT_PORT = 8378
DEFAULT_TIMEOUT_S = 10.0


class FleetClient(FrameClient):
    """Blocking dispatch client over one persistent TCP connection."""

    error = FleetError
    peer = "fleet server"
    sever_site = "fleet.partition"
    churn_site = "fleet.reconnect_storm"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ):
        super().__init__(host, port, timeout_s, retries, backoff_s)
