"""Synchronous successive halving (Jamieson & Talwalkar 2016).

The multi-fidelity core of HyperBand and BOHB, and the paper's §2.2
budget example: start many trials on the minimum budget, keep the best
``1/eta`` fraction at each rung, multiply the budget by ``eta``, repeat
until one trial runs at full fidelity.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, List, Optional, Tuple

from ..errors import SearchSpaceError, TuningError
from ..rng import SeedLike
from ..space import Configuration, ParameterSpace
from .base import ScheduledTrial, Searcher, TrialReport, TrialScheduler

logger = logging.getLogger(__name__)


def rung_fidelities(min_fidelity: int, max_fidelity: int, eta: int) -> List[int]:
    """The fidelity ladder: min, min*eta, ... capped at max (inclusive)."""
    if min_fidelity < 1 or max_fidelity < min_fidelity:
        raise SearchSpaceError(
            f"invalid fidelity range [{min_fidelity}, {max_fidelity}]"
        )
    if eta < 2:
        raise SearchSpaceError(f"eta must be >= 2, got {eta}")
    ladder = []
    fidelity = min_fidelity
    while fidelity < max_fidelity:
        ladder.append(fidelity)
        fidelity *= eta
    ladder.append(max_fidelity)
    return ladder


class SuccessiveHalvingScheduler(TrialScheduler):
    """One halving bracket.

    ``num_configs`` trials start at ``min_fidelity``; each rung promotes
    the best ``ceil(n/eta)`` of its reports to the next fidelity.
    """

    def __init__(
        self,
        space: ParameterSpace,
        searcher: Searcher,
        num_configs: Optional[int] = None,
        eta: int = 2,
        min_fidelity: int = 1,
        max_fidelity: int = 16,
        seed: SeedLike = None,
        bracket: int = 0,
        first_trial_id: int = 0,
    ):
        super().__init__(space, max_fidelity, seed)
        self.searcher = searcher
        self.eta = eta
        self.min_fidelity = min_fidelity
        self.bracket = bracket
        self.fidelities = rung_fidelities(min_fidelity, max_fidelity, eta)
        if num_configs is None:
            num_configs = eta ** (len(self.fidelities) - 1)
        if num_configs < 1:
            raise SearchSpaceError("num_configs must be >= 1")
        self.num_configs = num_configs
        self._next_trial_id = first_trial_id
        self._rung = 0
        #: (configuration, parent trial id, parent fidelity) per slot;
        #: first-rung entries carry (config, None, None).
        self._pending: List[
            Tuple[Configuration, Optional[int], Optional[int]]
        ] = []
        self._awaiting: Dict[int, ScheduledTrial] = {}
        self._reports: List[TrialReport] = []
        self._exhausted = False
        self._populate_first_rung()

    # -- internals ---------------------------------------------------------
    def _populate_first_rung(self) -> None:
        for _ in range(self.num_configs):
            configuration = self.searcher.suggest()
            if configuration is None:  # finite space exhausted
                break
            self._pending.append((configuration, None, None))
        if not self._pending:
            raise TuningError("searcher produced no configurations")

    def _promote(self) -> None:
        """Close the current rung and seed the next with the survivors."""
        survivors = max(1, int(math.ceil(len(self._reports) / self.eta)))
        # Ties break by trial id, so the survivor set is a pure function
        # of the *set* of reports, never of their arrival order (reports
        # arrive in issue order under the wave coordinator, where the
        # stable sort produced the same ranking; this keeps the rung
        # outcome order-independent for any driver).
        ordered = sorted(
            self._reports, key=lambda r: (r.score, r.trial.trial_id)
        )
        self._rung += 1
        if self._rung >= len(self.fidelities):
            self._exhausted = True
            return
        # Survivors carry their lineage: the promoted trial's parent is
        # the report it grew out of (the warm-resume chain).
        self._pending = [
            (
                report.trial.configuration,
                report.trial.trial_id,
                report.trial.fidelity,
            )
            for report in ordered[:survivors]
        ]
        self._reports = []

    # -- TrialScheduler interface ---------------------------------------------
    def next_trial(self) -> Optional[ScheduledTrial]:
        if self._exhausted:
            return None
        if not self._pending:
            if self._awaiting:
                return None  # waiting for outstanding reports
            self._promote()
            if self._exhausted or not self._pending:
                return None
        configuration, parent_id, parent_fidelity = self._pending.pop(0)
        trial = ScheduledTrial(
            trial_id=self._next_trial_id,
            configuration=configuration,
            fidelity=self.fidelities[self._rung],
            bracket=self.bracket,
            rung=self._rung,
            parent_id=parent_id,
            parent_fidelity=parent_fidelity,
        )
        self._next_trial_id += 1
        self._awaiting[trial.trial_id] = trial
        return trial

    def report(self, report: TrialReport) -> None:
        trial = self._awaiting.pop(report.trial.trial_id, None)
        if trial is None:
            # After a mid-rung state_dict restore, completions for trials
            # issued past the snapshot are not in ``_awaiting``; they must
            # neither KeyError nor silently restart the rung.  The restored
            # scheduler re-issues the same trials deterministically, so
            # skipping the stray report loses nothing.
            logger.warning(
                "ignoring report for unknown trial %d "
                "(issued before a checkpoint restore, or duplicate)",
                report.trial.trial_id,
            )
            return
        self._reports.append(report)
        self.searcher.observe(report.trial.configuration, report.score)
        # Promote eagerly when a rung completes so `next_trial` never has
        # to guess.
        if not self._pending and not self._awaiting:
            self._promote()

    @property
    def finished(self) -> bool:
        return self._exhausted

    @property
    def total_trials_issued(self) -> int:
        return self._next_trial_id
