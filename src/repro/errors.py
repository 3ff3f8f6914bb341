"""Exception hierarchy for the EdgeTune reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while the
library itself raises the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A parameter value or configuration is invalid for its space."""


class SearchSpaceError(ReproError):
    """A parameter space is malformed (empty, inconsistent bounds, ...)."""


class BudgetError(ReproError):
    """A trial budget is invalid (non-positive, min above max, ...)."""


class ShapeError(ReproError):
    """A tensor shape does not match what a layer or loss expects."""


class NotFittedError(ReproError):
    """An estimator or surrogate was used before being fitted."""


class DeviceError(ReproError):
    """An emulated device specification is invalid or unknown."""


class WorkloadError(ReproError):
    """A workload (model + dataset pair) is unknown or inconsistent."""


class StorageError(ReproError):
    """The persistent trial database rejected an operation."""


class SchedulingError(ReproError):
    """The discrete-event executor detected an inconsistent schedule."""


class TuningError(ReproError):
    """A tuning run could not complete (no trials, exhausted budget, ...)."""


class ServiceError(ReproError):
    """The tuning service hit an unrecoverable condition (bad session
    spec, exhausted job retries, lost session)."""


class FleetError(ServiceError):
    """The multi-host tuning fleet hit an unrecoverable condition
    (unreachable coordinator, protocol violation, unknown machine)."""


class WireError(FleetError):
    """A frame could not be encoded or decoded, or a transport setting
    is invalid.  Raised by the :mod:`repro.wire` helpers; it is a
    :class:`FleetError` so the fleet's callers catch it under their own
    family."""


class TrialTimeoutError(ServiceError):
    """A trial exceeded its wall-clock deadline and was abandoned; the
    job is failed (and retried) instead of hanging its worker."""


class InjectedFault(ReproError):
    """A fault deliberately raised by :mod:`repro.faults` — only ever
    seen with fault injection enabled (chaos tests, resilience drills)."""
