"""Fleet dispatch wire format: newline-delimited JSON frames.

Deliberately the same transport the advisor speaks — one JSON object per
line over a persistent TCP connection — so every hardening lesson from
that server (oversized-frame rejection, garbage tolerance, graceful
drain) carries over unchanged, and the advisor's ``read_frames`` is the
one read loop both servers run.  Binary payloads (pickled evaluations,
artifact blobs) travel base64-inside-JSON; the frame cap is sized for
them.

Request frames are ``{"op": <name>, ...}``; response frames are
``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``.  Ops:

==================  =======================================================
``register``        join the fleet (capability tags) → shard + lease terms
                    + the hub's current incarnation ``epoch``
``heartbeat``       machine liveness ping
``lease``           claim one job from the machine's shard queue; with
                    ``wait_s`` a long poll — the hub holds the request
                    until a job can be leased, it drains, or the wait
                    (capped hub-side) runs out
``extend``          renew a held job lease
``complete``        upload a finished job's evaluation blob
``fail``            report a job failure (traceback travels as text)
``resync``          re-adopt held leases under a new hub epoch after a
                    hub restart (``held`` maps job id → worker name)
``artifact_get``    federation: fetch an artifact payload by trial key
                    (response carries a blake2b ``checksum``)
``artifact_put``    federation: publish a cold-run artifact to the hub
                    (optional ``checksum`` is verified before storing)
``status``          fleet overview (machines, shards, counters)
``drain``           ask the server to stop handing out work
``ping``            connection liveness probe
==================  =======================================================

Fencing: mutation frames (``lease``/``extend``/``complete``/``fail``/
``artifact_put``) may carry the ``epoch`` the sender registered under.
A hub that restarted since then rejects the frame with ``{"ok": false,
"fenced": true, "reregister": true, "epoch": <current>}`` — the client
re-registers, resyncs its leases, and retries.  Frames without an epoch
field (older clients, in-process tests) are trusted as current.
``complete`` is exempt when the job is already done by the same owner:
the hub answers ``{"ok": true, "accepted": true, "duplicate": true}``
so an in-flight result that raced a hub crash lands exactly once.
"""

from __future__ import annotations

import base64
import json
import select
import socket
from typing import Any, Dict, Optional

from ..errors import FleetError

#: Frame size cap.  Artifact payloads (pickled model + evaluation) are a
#: few hundred KB; 32 MiB leaves a wide margin while still rejecting a
#: runaway (or hostile) frame before it exhausts memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024


def peer_closed(sock: socket.socket) -> bool:
    """Whether the peer has hung up, judged without consuming a byte."""
    try:
        if not select.select([sock], [], [], 0)[0]:
            return False
        return sock.recv(1, socket.MSG_PEEK) == b""
    except OSError:
        return True


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message → one ``\\n``-terminated JSON line."""
    line = json.dumps(message, separators=(",", ":"), sort_keys=True)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise FleetError(
            f"frame of {len(data)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return data


def decode_frame(line: bytes) -> Dict[str, Any]:
    """One received line → message dict (raises :class:`FleetError` on
    garbage — the caller decides whether the connection survives)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FleetError(f"undecodable frame: {error}")
    if not isinstance(message, dict):
        raise FleetError(
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
        raise FleetError(f"undecodable binary field: {error}")


def error_frame(message: str, **extra: Any) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"ok": False, "error": str(message)}
    frame.update(extra)
    return frame


def ok_frame(**fields: Any) -> Dict[str, Any]:
    frame: Dict[str, Any] = {"ok": True}
    frame.update(fields)
    return frame
