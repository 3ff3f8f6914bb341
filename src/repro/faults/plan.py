"""Fault plans: the seed-driven schedule behind :mod:`repro.faults`.

Imported lazily by the facade — never on a hot path with injection off.

Determinism contract: whether a rule fires for a given ``(site, key,
attempt)`` is a pure function of the plan seed, so the same spec produces
the same fault schedule in every process, every run.  Sites called
without an explicit key fall back to a per-site invocation counter, which
makes their schedule deterministic per call *sequence* (sufficient for
statement-level sites like ``storage.io``).
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .. import clock
from ..errors import InjectedFault

#: Sites understood by :meth:`FaultPlan.fire`; decision-only sites
#: (``fleet.partition``, ``trainer.nan``, ...) are queried via ``should``/
#: ``corrupt_nan`` and need no action here.
KNOWN_SITES = (
    "worker.crash",
    "worker.fail",
    "worker.hang",
    "trainer.nan",
    "storage.io",
    "fleet.partition",
    "fleet.stale_lease",
    "fleet.hub_crash",
    "fleet.reconnect_storm",
    "artifact.corrupt_blob",
    "traffic.request_storm",
)

#: Exit code of an injected worker crash (mirrors SIGKILL's 128+9).
CRASH_EXIT_CODE = 137

#: Default hang duration when a ``worker.hang`` rule carries no param.
DEFAULT_HANG_S = 30.0


@dataclass(frozen=True)
class FaultRule:
    """One site's injection rule."""

    site: str
    probability: float
    #: Fire only while the caller's attempt number is <= this; the
    #: default 1 makes every fault retryable.  Large values (99) model
    #: poison configs that fail deterministically on every attempt.
    until_attempt: int = 1
    #: Site-specific magnitude (hang seconds).
    param: Optional[float] = None
    #: Restrict the rule to a single injection key (e.g. one trial id).
    only_key: Optional[str] = None

    def to_spec(self) -> str:
        value = f"{self.site}={self.probability:g}"
        if self.param is not None:
            value += f":{self.until_attempt}:{self.param:g}"
        elif self.until_attempt != 1:
            value += f":{self.until_attempt}"
        if self.only_key is not None:
            value += f"@{self.only_key}"
        return value


def _uniform(seed: int, site: str, key: Any) -> float:
    """Deterministic draw in [0, 1) — stable across processes and runs
    (unlike ``hash()``, which is salted per interpreter)."""
    token = f"{seed}|{site}|{key}".encode("utf-8")
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """A parsed, activated fault schedule."""

    def __init__(self, seed: int = 0,
                 rules: Optional[Dict[str, FaultRule]] = None):
        self.seed = int(seed)
        self.rules: Dict[str, FaultRule] = dict(rules or {})
        for site in self.rules:
            if site not in KNOWN_SITES:
                raise InjectedFault(
                    f"unknown fault site {site!r}; expected one of "
                    f"{KNOWN_SITES}"
                )
        #: Per-site invocation counters for key-less call sites.
        self._counters: Dict[str, int] = {}
        #: Per-site count of faults actually injected (telemetry).
        self.fired: Dict[str, int] = {}

    # -- spec round-trip -----------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``seed=N;site=prob[:until[:param]][@key];...``."""
        seed = 0
        rules: Dict[str, FaultRule] = {}
        for entry in str(spec).split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise InjectedFault(f"malformed fault entry {entry!r}")
            site, _, value = entry.partition("=")
            site = site.strip()
            value = value.strip()
            if site == "seed":
                seed = int(value)
                continue
            only_key: Optional[str] = None
            if "@" in value:
                value, _, only_key = value.partition("@")
            parts = value.split(":")
            try:
                probability = float(parts[0])
                until = int(parts[1]) if len(parts) > 1 else 1
                param = float(parts[2]) if len(parts) > 2 else None
            except (ValueError, IndexError) as error:
                raise InjectedFault(
                    f"malformed fault entry {entry!r}: {error}"
                )
            if not 0.0 <= probability <= 1.0:
                raise InjectedFault(
                    f"fault probability must be in [0, 1], got {probability}"
                )
            rules[site] = FaultRule(
                site=site,
                probability=probability,
                until_attempt=until,
                param=param,
                only_key=only_key,
            )
        return cls(seed=seed, rules=rules)

    def to_spec(self) -> str:
        """Canonical spec string (environment propagation round-trip)."""
        parts = [f"seed={self.seed}"]
        parts.extend(
            rule.to_spec() for _, rule in sorted(self.rules.items())
        )
        return ";".join(parts)

    # -- decisions ----------------------------------------------------------
    def should(self, site: str, key: Any = None, attempt: int = 1) -> bool:
        """Pure decision: does the rule for ``site`` fire here?"""
        rule = self.rules.get(site)
        if rule is None:
            return False
        if attempt > rule.until_attempt:
            return False
        if key is None:
            self._counters[site] = self._counters.get(site, 0) + 1
            key = self._counters[site]
        if rule.only_key is not None and str(key) != rule.only_key:
            return False
        if _uniform(self.seed, site, key) >= rule.probability:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        return True

    def corrupt_nan(self, site: str, value: float, key: Any = None,
                    attempt: int = 1) -> float:
        return float("nan") if self.should(site, key, attempt) else value

    # -- actions ------------------------------------------------------------
    def fire(self, site: str, key: Any = None, attempt: int = 1) -> None:
        """Decide and *act*: crash, hang, or raise, depending on the site."""
        if not self.should(site, key, attempt):
            return
        rule = self.rules[site]
        if site in ("worker.crash", "fleet.hub_crash"):
            # A real crash: no cleanup, no exception handlers — the
            # heartbeat dies with us and the lease protocol takes over
            # (on a fleet host the whole machine disappears mid-lease).
            # ``fleet.hub_crash`` kills the *coordinator hub* itself;
            # keying its call sites on the hub's incarnation epoch makes
            # the crash fire exactly once — the restarted hub draws on a
            # new epoch and sails past the same frame.
            os._exit(CRASH_EXIT_CODE)
        if site == "worker.hang":
            clock.sleep(rule.param if rule.param is not None
                        else DEFAULT_HANG_S)
            return
        if site == "storage.io":
            # The exact exception sqlite raises for a failing disk, so
            # the containment path is identical to a real I/O error.
            raise sqlite3.OperationalError("disk I/O error (injected)")
        raise InjectedFault(
            f"injected fault at {site} (key={key!r}, attempt={attempt})"
        )

    def fired_total(self) -> int:
        return sum(self.fired.values())
