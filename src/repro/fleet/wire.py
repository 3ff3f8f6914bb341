"""Fleet dispatch wire format: newline-delimited JSON frames.

The transport is :mod:`repro.wire`'s — one JSON object per line over a
persistent TCP connection, the one the advisor speaks too — so every
hardening lesson (oversized-frame rejection, garbage tolerance, graceful
drain) is learnt once; the framing helpers are re-exported here.  Binary
payloads (pickled evaluations, artifact blobs) travel base64-inside-JSON;
the 32 MiB frame cap is sized for them with a wide margin (a
``complete`` frame is 18 KB since a model pickles only its state).

Request frames are ``{"op": <name>, ...}``; response frames are
``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``.  Ops:

==================  =======================================================
``register``        join the fleet (capability tags) → lease terms + the
                    hub's current incarnation ``epoch``
``heartbeat``       machine liveness ping; an optional ``dataset_cache``
                    maps hits/misses/evictions to the host's dataset-memo
                    deltas since its last heartbeat (finite counts >= 0)
``lease``           claim the oldest runnable job of a workload the
                    machine advertises (no ``workloads`` tag: any); with
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
``status``          fleet overview (machines, queue depths, counters)
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

from ..wire import (  # noqa: F401 — this protocol's frame helpers
    MAX_FRAME_BYTES, decode_frame, encode_frame, error_frame, ok_frame,
    pack_bytes, peer_closed, unpack_bytes,
)
