"""Persistent trial database and the inference historical-result cache.

Also home of the schema shared with :mod:`repro.service`: the ``sessions``
and ``jobs`` tables behind the persistent tuning job queue.
"""

from .database import (
    BUSY_TIMEOUT_MS,
    SCHEMA_VERSION,
    StoredInferenceResult,
    TrialDatabase,
)

__all__ = [
    "TrialDatabase",
    "StoredInferenceResult",
    "SCHEMA_VERSION",
    "BUSY_TIMEOUT_MS",
]
