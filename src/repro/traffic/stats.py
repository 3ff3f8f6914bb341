"""Persistent traffic counters for ``service status``.

Replays executed while scoring deployment candidates (the SLO-aware
inference objectives) add crash-safe aggregate counters to the storage
layer's ``fleet_stats`` event counters under a ``traffic.`` prefix, so
``service status --json`` can report serving-load progress — requests
replayed, SLO violations, shed/diverged replays — next to the fleet and
cache counters, from any process, after any crash.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..storage import TrialDatabase
from .replay import ReplayStats, SLOSpec

#: Key prefix separating traffic counters from the other event counters.
PREFIX = "traffic."


def record_replay(
    database: TrialDatabase,
    stats: ReplayStats,
    slo: Optional[SLOSpec] = None,
) -> None:
    """Fold one replay's outcome into the persistent counters."""
    amounts = {
        "replays": 1,
        "requests_replayed": stats.requests,
        "requests_shed": stats.shed,
        "replays_diverged": 1 if stats.diverged else 0,
        "storm_injected": stats.storm_injected,
    }
    if slo is not None:
        for name, count in slo.violations(stats).items():
            amounts[f"slo_violations.{name}"] = count
    database.bump_stats(
        {PREFIX + key: amount for key, amount in amounts.items()}
    )


def traffic_stats(database: TrialDatabase) -> Dict[str, float]:
    """All ``traffic.*`` counters, with the prefix stripped."""
    return {
        key[len(PREFIX):]: value
        for key, value in database.stats(PREFIX).items()
    }
