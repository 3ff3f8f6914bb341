"""Asynchronous successive halving (ASHA, Li et al. 2020).

Synchronous halving (:mod:`.successive_halving`) decides promotions only
when a rung is *full*, so one slow trial stalls every worker at the rung
barrier.  ASHA decides the moment a result lands: a trial is promoted to
the next rung when it sits in the top ``1/eta`` of the results *completed
so far* at its rung, and the freed worker immediately receives the next
runnable unit (a pending promotion, else a fresh bottom-rung trial).

The promotion rule is the standard "promotable" check, re-evaluated on
every landing result: at a rung with ``n`` completed results, the best
``floor(n / eta)`` of them (ties broken by trial id) may run at the next
fidelity.  A result that lands inside that frontier is promoted at once;
a result that lands outside it is *paused* — it may still be promoted
later, when enough worse results have landed to grow the frontier past
it.  Paused trials that never re-enter the frontier simply stay paused
(asha's aggressive-early-stopping semantics); top-rung results complete.

Determinism contract
--------------------

Given a fixed order of *completions* (which trial's report arrives at
which result index), every decision this scheduler makes — including the
trial ids it assigns to promotions — is a pure function of that order:

* fresh bottom-rung trials get ids ``first_trial_id + k`` for the k-th
  suggestion (the searcher's suggestion stream is seed-driven);
* promotions get ids ``first_trial_id + num_configs + j`` for the j-th
  promotion *decision*, and decisions happen only inside
  :meth:`report`;
* :attr:`decision_log` records ``(result_index, trial_id, rung,
  decision, child_id)`` per decision and is therefore bit-identical
  across runs — and across a :meth:`state_dict` save/restore — whenever
  the completion order is the same.

Out-of-order integration *changes* the frontier each decision sees, so
two different completion orders may promote different trials; the
replay-mode contract (pin the completion order) is what makes N-worker
runs comparable.  See DESIGN.md §8.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..errors import SearchSpaceError, TuningError
from ..rng import SeedLike
from ..space import ParameterSpace
from .base import ScheduledTrial, Searcher, TrialReport, TrialScheduler
from .successive_halving import rung_fidelities

logger = logging.getLogger(__name__)

#: Decision kinds recorded in :attr:`ASHAScheduler.decision_log`.
PROMOTE = "promote"
PAUSE = "pause"
COMPLETE = "complete"


class ASHAScheduler(TrialScheduler):
    """One asynchronous halving bracket.

    ``num_configs`` configurations enter at ``min_fidelity``; every
    landing report re-evaluates its rung's promotion frontier (top
    ``floor(n/eta)`` of completed results) and promotes any frontier
    member not yet promoted.  There are no rung barriers: the driver
    should keep calling :meth:`next_trial` whenever a worker is free.
    """

    #: Drivers branch on this: no rung barriers, results may integrate
    #: out of issue order (see :func:`repro.core.model_server.drive`).
    asynchronous = True

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
        self.first_trial_id = first_trial_id
        #: Fresh bottom-rung suggestions issued so far (id = first + k).
        self._fresh_issued = 0
        #: Promotion decisions made so far (child id = first + n + j).
        self._promotions_issued = 0
        #: Searcher returned ``None`` (finite space drained early).
        self._searcher_drained = False
        #: Promoted children waiting for a worker, in decision order.
        self._runnable: List[ScheduledTrial] = []
        #: Issued trials whose report has not landed yet.
        self._awaiting: Dict[int, ScheduledTrial] = {}
        #: rung -> completed results, as (score, trial_id, trial) tuples.
        self._rung_results: Dict[int, List[Tuple[float, int, ScheduledTrial]]] = {}
        #: rung -> trial ids already promoted out of that rung.
        self._promoted: Dict[int, Set[int]] = {}
        #: Monotone index of the next report to land.
        self._result_index = 0
        #: (result_index, trial_id, rung, decision, child_id) per decision.
        self.decision_log: List[Tuple[int, int, int, str, Optional[int]]] = []

    # -- TrialScheduler interface -------------------------------------------
    def next_trial(self) -> Optional[ScheduledTrial]:
        """A pending promotion first, else a fresh bottom-rung trial.

        Returns ``None`` when nothing is runnable *right now*; unlike
        the synchronous scheduler this is not a stall — more work
        usually appears once an outstanding report lands.
        """
        if self._runnable:
            trial = self._runnable.pop(0)
            self._awaiting[trial.trial_id] = trial
            return trial
        if self._fresh_issued < self.num_configs and not self._searcher_drained:
            configuration = self.searcher.suggest()
            if configuration is None:
                self._searcher_drained = True
                if self._fresh_issued == 0:
                    raise TuningError("searcher produced no configurations")
                return None
            trial = ScheduledTrial(
                trial_id=self.first_trial_id + self._fresh_issued,
                configuration=configuration,
                fidelity=self.fidelities[0],
                bracket=self.bracket,
                rung=0,
            )
            self._fresh_issued += 1
            self._awaiting[trial.trial_id] = trial
            return trial
        return None

    def report(self, report: TrialReport) -> None:
        trial = self._awaiting.pop(report.trial.trial_id, None)
        if trial is None:
            # A report the restored scheduler never issued (checkpoint
            # taken before the trial, or a duplicate delivery): skip it
            # rather than corrupting the rung bookkeeping.
            logger.warning(
                "ignoring report for unknown trial %d "
                "(issued before a checkpoint restore, or duplicate)",
                report.trial.trial_id,
            )
            return
        index = self._result_index
        self._result_index += 1
        self.searcher.observe(report.trial.configuration, report.score)
        rung = trial.rung
        if rung >= len(self.fidelities) - 1:
            self.decision_log.append(
                (index, trial.trial_id, rung, COMPLETE, None)
            )
            return
        results = self._rung_results.setdefault(rung, [])
        results.append((float(report.score), trial.trial_id, trial))
        promoted = self._promoted.setdefault(rung, set())
        # The promotion frontier: best floor(n/eta) completed results at
        # this rung, ties broken by trial id (pure function of the
        # completed set, never of arrival order within it).
        keep = len(results) // self.eta
        frontier = sorted(results, key=lambda r: (r[0], r[1]))[:keep]
        landing_promoted = any(
            tid == trial.trial_id for _, tid, _ in frontier
        )
        # The landing trial's own decision is logged first; trials the
        # grown frontier reaches back to promote follow in rank order.
        if landing_promoted:
            self._promote(index, trial, rung)
        else:
            self.decision_log.append(
                (index, trial.trial_id, rung, PAUSE, None)
            )
        for _, tid, parent in frontier:
            if tid not in promoted and tid != trial.trial_id:
                self._promote(index, parent, rung)

    def _promote(self, index: int, parent: ScheduledTrial, rung: int) -> None:
        """Issue ``parent``'s next-rung child and log the decision."""
        child_id = (
            self.first_trial_id + self.num_configs + self._promotions_issued
        )
        self._promotions_issued += 1
        self._runnable.append(
            ScheduledTrial(
                trial_id=child_id,
                configuration=parent.configuration,
                fidelity=self.fidelities[rung + 1],
                bracket=self.bracket,
                rung=rung + 1,
                parent_id=parent.trial_id,
                parent_fidelity=self.fidelities[rung],
            )
        )
        self._promoted.setdefault(rung, set()).add(parent.trial_id)
        self.decision_log.append(
            (index, parent.trial_id, rung, PROMOTE, child_id)
        )

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        return self.searcher.warm_start(records)

    @property
    def finished(self) -> bool:
        fresh_done = (
            self._fresh_issued >= self.num_configs or self._searcher_drained
        )
        return fresh_done and not self._runnable and not self._awaiting

    @property
    def total_trials_issued(self) -> int:
        return self._fresh_issued + self._promotions_issued
