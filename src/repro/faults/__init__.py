"""Deterministic fault injection for the tuning service (facade).

This module is the *only* thing the hot paths import, and it is kept
deliberately tiny: when fault injection is disabled (the default) every
hook below is a single ``is None`` check — no injector code is even
imported.  The real machinery lives in :mod:`repro.faults.plan` and is
pulled in lazily the first time a plan is activated, so tests can assert
that ``repro.faults.plan`` never lands in ``sys.modules`` on a clean run.

Activation:

* set the ``REPRO_FAULTS`` environment variable (inherited by worker
  processes spawned from the pool), or
* call :func:`configure` in-process (which also exports the spec to the
  environment by default so child processes see the same schedule).

Spec strings look like::

    seed=42;worker.crash=0.5;worker.hang=1.0:1:2.5;storage.io=0.05

Each site entry is ``site=probability[:until_attempt[:param]][@key]``:
the fault fires when a deterministic per-``(seed, site, key)`` draw lands
below ``probability`` *and* the caller's attempt number is at most
``until_attempt`` (default 1 — faults are retryable by construction
unless the spec says otherwise).  ``param`` carries site-specific
magnitude (hang duration in seconds); ``@key`` restricts the rule to one
injection key (e.g. one trial id).  Same spec, same call sequence →
bit-identical fault schedule, in every process.

Injection sites wired into the codebase:

========================  ====================================================
``worker.crash``          hard-kills the worker (or fleet host) process
                          mid-trial
``worker.fail``           raises inside trial execution (exercises retries)
``worker.hang``           sleeps ``param`` seconds inside the trial deadline
``trainer.nan``           corrupts one training loss to NaN (numeric guard)
``storage.io``            raises a transient sqlite "disk I/O error"
``fleet.partition``       severs a fleet host's dispatch connection
``fleet.stale_lease``     suppresses one job's remote lease extensions
``fleet.hub_crash``       hard-kills the fleet *hub* mid-frame (keyed on
                          ``<epoch>:<job>`` so a restarted hub, running
                          under a new incarnation epoch, is not re-killed)
``fleet.reconnect_storm`` forces a fleet client onto a fresh TCP
                          connection for every request (reconnect churn)
``artifact.corrupt_blob`` flips bits in an artifact payload on read
                          (exercises checksum verification + quarantine)
``traffic.request_storm`` multiplies trace arrivals ``param``-fold
                          mid-replay (decision-only; the replay engine
                          sheds gracefully and reports)
========================  ====================================================
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: Environment variable carrying the fault spec into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: The active plan, or ``None`` when injection is off (the default).
_plan: Optional[Any] = None


def configure(spec: Any = None, propagate: bool = True) -> Optional[Any]:
    """Activate (or, with ``spec=None``, deactivate) fault injection.

    ``spec`` may be a spec string, a :class:`~repro.faults.plan.FaultPlan`,
    or ``None``.  With ``propagate=True`` the canonical spec string is
    exported to :data:`ENV_VAR` so worker processes spawned afterwards
    inherit the same schedule.
    """
    global _plan
    if spec is None:
        _plan = None
        if propagate:
            os.environ.pop(ENV_VAR, None)
        return None
    from .plan import FaultPlan

    plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    _plan = plan
    if propagate:
        os.environ[ENV_VAR] = plan.to_spec()
    return plan


def reset() -> None:
    """Deactivate injection and clear the environment spec."""
    configure(None)


def enabled() -> bool:
    return _plan is not None


def get_plan() -> Optional[Any]:
    return _plan


def fault_point(site: str, key: Any = None, attempt: int = 1) -> None:
    """Maybe inject a fault at ``site`` (no-op unless a plan is active).

    Depending on the site this may raise, sleep, or kill the process —
    callers place the hook exactly where the equivalent real-world fault
    would strike.
    """
    if _plan is None:
        return
    _plan.fire(site, key=key, attempt=attempt)


def should(site: str, key: Any = None, attempt: int = 1) -> bool:
    """Decision-only hook for callers that act on the fault themselves
    (a fleet client severs its own connection, for instance)."""
    if _plan is None:
        return False
    return _plan.should(site, key=key, attempt=attempt)


def corrupt_nan(
    site: str, value: float, key: Any = None, attempt: int = 1
) -> float:
    """Return NaN instead of ``value`` when the site's rule fires."""
    if _plan is None:
        return value
    return _plan.corrupt_nan(site, value, key=key, attempt=attempt)


def _bootstrap() -> None:
    """Activate from the environment (worker processes land here)."""
    spec = os.environ.get(ENV_VAR)
    if spec:
        configure(spec, propagate=False)


_bootstrap()
