"""BOHB: Bayesian Optimisation + HyperBand (Falkner et al. 2018).

HyperBand's bracket structure decides *budgets*; a TPE model shared across
brackets decides *which configurations* to start, replacing HyperBand's
uniform sampling once enough observations exist.  This is the paper's
default search algorithm (§4.2) and the one its multi-budget strategy
plugs into.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..rng import SeedLike, derive_seed
from ..space import Configuration, ParameterSpace
from .base import Searcher, TrialReport, coerce_warm_start_records
from .hyperband import HyperBandScheduler
from .tpe import DEFAULT_STARTUP_TRIALS, TPESampler


class _BudgetAwareTPE(Searcher):
    """TPE that models the highest fidelity with enough observations.

    BOHB's key detail: scores from different budgets are not directly
    comparable, so the density model is fitted on the single largest
    fidelity that has accumulated ``startup_trials`` points; lower-fidelity
    data only guides sampling until then.
    """

    def __init__(
        self,
        space: ParameterSpace,
        seed: SeedLike = None,
        startup_trials: int = DEFAULT_STARTUP_TRIALS,
    ):
        super().__init__(space, seed)
        self.startup_trials = startup_trials
        self._samplers: Dict[int, TPESampler] = {}
        self._counts: Dict[int, int] = {}
        self._fallback = TPESampler(
            space, seed=derive_seed(self.seed, "fallback"),
            startup_trials=startup_trials,
        )
        self._current_fidelity: Optional[int] = None

    def _sampler_for(self, fidelity: int) -> TPESampler:
        if fidelity not in self._samplers:
            self._samplers[fidelity] = TPESampler(
                self.space,
                seed=derive_seed(self.seed, "tpe", fidelity),
                startup_trials=self.startup_trials,
            )
            self._counts[fidelity] = 0
        return self._samplers[fidelity]

    def observe_at(self, fidelity: int, configuration: Configuration,
                   score: float) -> None:
        self._sampler_for(fidelity).observe(configuration, score)
        self._counts[fidelity] += 1
        self._fallback.observe(configuration, score)

    # -- Searcher interface ---------------------------------------------------
    def observe(self, configuration: Configuration, score: float) -> None:
        # No-op: the bracket machinery reports through this generic hook,
        # but BOHB already records every report with its fidelity via
        # :meth:`observe_at`; recording here again would double-count.
        return None

    def suggest(self) -> Optional[Configuration]:
        modelled = [
            fidelity
            for fidelity, count in self._counts.items()
            if count >= self.startup_trials
        ]
        if modelled:
            return self._samplers[max(modelled)].suggest()
        return self._fallback.suggest()

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        """Seed the per-budget models from prior-session trials.

        Records are registered under their original fidelity, preserving
        BOHB's rule that only same-budget scores are compared; records
        without a fidelity (from plain searchers) inform the fallback
        sampler only.
        """
        coerced = coerce_warm_start_records(self.space, records)
        for record in coerced:
            fidelity = record["fidelity"]
            if fidelity > 0:
                self.observe_at(
                    fidelity, record["configuration"], record["score"]
                )
            else:
                self._fallback.observe(
                    record["configuration"], record["score"]
                )
        return len(coerced)

    def reset(self) -> None:
        for sampler in self._samplers.values():
            sampler.reset()
        self._samplers.clear()
        self._counts.clear()
        self._fallback.reset()


class BOHBScheduler(HyperBandScheduler):
    """HyperBand brackets sampled by a shared budget-aware TPE."""

    def __init__(
        self,
        space: ParameterSpace,
        eta: int = 2,
        min_fidelity: int = 1,
        max_fidelity: int = 16,
        seed: SeedLike = None,
        startup_trials: int = DEFAULT_STARTUP_TRIALS,
    ):
        tpe = _BudgetAwareTPE(
            space, seed=derive_seed(seed if seed is not None else 0, "bohb"),
            startup_trials=startup_trials,
        )
        super().__init__(
            space,
            eta=eta,
            min_fidelity=min_fidelity,
            max_fidelity=max_fidelity,
            seed=seed,
            shared_searcher=tpe,
        )
        self.tpe = tpe

    def report(self, report: TrialReport) -> None:
        # Register the observation under its fidelity for the per-budget
        # model before the bracket's generic bookkeeping runs.
        self.tpe.observe_at(
            report.trial.fidelity, report.trial.configuration, report.score
        )
        super().report(report)

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        return self.tpe.warm_start(records)
