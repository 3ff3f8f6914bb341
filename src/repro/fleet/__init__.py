"""repro.fleet — the multi-host tuning fleet.

Scales one tuning session across machines while keeping the single-host
determinism contract: remote hosts are separate processes with isolated
databases, jobs are dispatched over a line-JSON TCP protocol
(:mod:`repro.wire`), and the coordinator merges results in strict wave
order — so a fleet run is bit-identical to the same spec run on one
machine.

Layout:

* :mod:`repro.fleet.registry` — machine registry (capability tags,
  liveness heartbeats, fleet counters);
* :mod:`repro.fleet.wire` — the dispatch frame format;
* :mod:`repro.fleet.server` — the coordinator-side dispatch server,
  janitor, and remote session driver;
* :mod:`repro.fleet.client` — the host-side dispatch client
  (reconnect-resync retries);
* :mod:`repro.fleet.host` — the remote worker host: the service's
  :class:`~repro.service.worker.TrialWorker` over the hub-client job
  source :class:`~repro.fleet.host.HubJobs`, and
  :class:`~repro.fleet.host.HostPool`.

This package root deliberately imports only the storage-facing pieces —
``server``/``client``/``host`` are imported as explicit submodules by
their users, keeping :mod:`repro.service.worker`'s registry import free
of cycles.
"""

from .registry import (  # noqa: F401
    Machine,
    MachineRegistry,
    local_capabilities,
)
