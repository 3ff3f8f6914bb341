"""Lightweight operational meters for the tuning service.

Distinct from :mod:`repro.telemetry.metrics` (simulated physical
measurements): meters track *real* operational quantities — wave
latencies, per-frame request counts — cheaply enough to update on every
frame and in the coordinator's poll loop.  Events that must survive a
crash or be read from another process are counted in the database
instead (:meth:`~repro.storage.TrialDatabase.bump_stats`).

Thread safety: a wire server's per-connection handler threads update
meters while the drain path snapshots them, so every update and read
holds the registry's one lock — a plain ``threading.Lock``, whose
uncontended acquisition is tens of nanoseconds, invisible next to the
work being metered.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

from .metrics import MetricSummary


class MeterRegistry:
    """Named counts and sampled series for one server or coordinator run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._samples: Dict[str, List[float]] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the monotonic count ``name``."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + int(amount)

    def record(self, name: str, value: float) -> None:
        """Append one sample to the series ``name`` (kept in memory; a
        session records at most a few thousand)."""
        with self._lock:
            self._samples.setdefault(name, []).append(float(value))

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict dump (JSON-safe) for status output and session
        result summaries: a number per count, a summary per series."""
        with self._lock:
            out: Dict[str, Any] = dict(sorted(self._counts.items()))
            series = sorted(
                (name, list(samples))
                for name, samples in self._samples.items()
            )
        for name, samples in series:
            summary = MetricSummary.of(samples)
            out[name] = {
                "count": summary.count,
                "mean": summary.mean,
                "min": summary.minimum,
                "max": summary.maximum,
                "p50": summary.p50,
                "p90": summary.p90,
                "p99": summary.p99,
            }
        return out
