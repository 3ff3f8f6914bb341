"""Search-algorithm interfaces.

Two layers, mirroring how Ray Tune (and the paper) organise tuning:

* a :class:`Searcher` proposes configurations and learns from observed
  scores (grid, random, TPE);
* a :class:`TrialScheduler` additionally decides *fidelities* — how much
  budget each proposed trial receives and which trials continue — the home
  of successive halving, HyperBand and BOHB.

Scores are **minimised** throughout (objective functions already encode
"maximise accuracy" as a ratio to be minimised, paper §4.4).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ConfigurationError, SearchSpaceError, TuningError
from ..rng import SeedLike, ensure_seed
from ..space import Configuration, ParameterSpace


def coerce_warm_start_records(
    space: ParameterSpace, records: List[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Validate raw warm-start records against ``space``.

    A record is a mapping with ``configuration`` (name → value dict),
    ``score`` and optionally ``fidelity``; the returned dicts carry the
    validated :class:`Configuration` instead of the raw dict.  Records
    whose configuration does not fit the space — stale columns from an
    older release, a different workload's parameters — are silently
    dropped: warm starting is best-effort by design, never a reason to
    fail a session.
    """
    coerced: List[Dict[str, Any]] = []
    for record in records:
        values = record.get("configuration")
        score = record.get("score")
        if not isinstance(values, Mapping) or score is None:
            continue
        try:
            configuration = space.configuration(**values)
            score = float(score)
        except (ConfigurationError, TypeError, ValueError):
            continue
        if score != score:  # NaN never helps a model
            continue
        coerced.append(
            {
                "configuration": configuration,
                "score": score,
                "fidelity": int(record.get("fidelity", 0) or 0),
            }
        )
    return coerced


class _Snapshottable:
    """Opaque state snapshot/restore, shared by searchers and schedulers.

    The default implementation captures the full mutable state
    (``__dict__``) — including RNG generators, pending rungs and
    observation histories — in one pickle blob, so a restored object
    continues the search bit-for-bit where the snapshot was taken.
    Subclasses with unpicklable state must override both hooks.

    This is not how the service resumes a session: a resumed coordinator
    rebuilds its scheduler by replaying the session's job log through a
    fresh one (:mod:`repro.service.coordinator`).  The hooks remain for
    callers that hand a search between processes or pause it.
    """

    def state_dict(self) -> bytes:
        """Serialized snapshot of all mutable search state."""
        return pickle.dumps(self.__dict__, protocol=pickle.HIGHEST_PROTOCOL)

    def load_state_dict(self, blob: bytes) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The snapshot must come from an instance constructed with the same
        arguments (space, seed, ...); only *mutable* state is carried.
        """
        self.__dict__.update(pickle.loads(blob))


class Searcher(_Snapshottable):
    """Proposes configurations over a fixed space."""

    def __init__(self, space: ParameterSpace, seed: SeedLike = None):
        if len(space) == 0:
            raise SearchSpaceError("cannot search an empty space")
        self.space = space
        self.seed = ensure_seed(seed)

    def suggest(self) -> Optional[Configuration]:
        """Next configuration to try, or ``None`` when exhausted."""
        raise NotImplementedError

    def observe(self, configuration: Configuration, score: float) -> None:
        """Feed back an observed score (lower is better). Default: ignore."""

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        """Seed the searcher from prior-session trial records.

        ``records`` are raw dicts (``configuration``/``score``/optional
        ``fidelity``) as stored in the trial database; implementations
        validate them against their space and fold the survivors into
        their model *before* the first :meth:`suggest`.  Returns how many
        records were actually absorbed.  The default absorbs nothing —
        memoryless searchers (grid) have no model to seed.
        """
        return 0

    def reset(self) -> None:
        """Restore the initial state (used by repeated experiments)."""
        raise NotImplementedError


@dataclass
class ScheduledTrial:
    """A unit of work issued by a scheduler: configuration + fidelity.

    ``fidelity`` is the iteration level ``it`` of the paper's Algorithm 2 —
    the budget strategies translate it into concrete epochs / dataset
    fractions.  ``rung``/``bracket`` locate the trial inside successive
    halving; plain searchers issue everything at ``max_fidelity``.

    ``parent_id``/``parent_fidelity`` record rung lineage: a trial
    promoted by successive halving names the lower-fidelity trial whose
    configuration it continues, which is what lets the artifact cache
    warm-resume the promotion from the parent's checkpoint instead of
    retraining from scratch.  ``None`` for first-rung trials and plain
    searchers.
    """

    trial_id: int
    configuration: Configuration
    fidelity: int
    bracket: int = 0
    rung: int = 0
    parent_id: Optional[int] = None
    parent_fidelity: Optional[int] = None


@dataclass
class TrialReport:
    """Observed outcome of a scheduled trial."""

    trial: ScheduledTrial
    score: float
    accuracy: float = float("nan")

    def __post_init__(self) -> None:
        if self.score != self.score:  # NaN guard
            raise TuningError(
                f"trial {self.trial.trial_id} reported a NaN score"
            )


class TrialScheduler(_Snapshottable):
    """Issues :class:`ScheduledTrial`s and consumes :class:`TrialReport`s."""

    def __init__(
        self,
        space: ParameterSpace,
        max_fidelity: int,
        seed: SeedLike = None,
    ):
        if len(space) == 0:
            raise SearchSpaceError("cannot schedule over an empty space")
        if max_fidelity < 1:
            raise SearchSpaceError(
                f"max_fidelity must be >= 1, got {max_fidelity}"
            )
        self.space = space
        self.max_fidelity = int(max_fidelity)
        self.seed = ensure_seed(seed)

    def next_trial(self) -> Optional[ScheduledTrial]:
        """The next trial to run, or ``None`` when the schedule is done."""
        raise NotImplementedError

    def report(self, report: TrialReport) -> None:
        """Record the outcome of a trial previously issued."""
        raise NotImplementedError

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        """Seed the scheduler's search model from prior trials (see
        :meth:`Searcher.warm_start`).  Default: absorb nothing."""
        return 0

    @property
    def finished(self) -> bool:
        raise NotImplementedError


class SearcherScheduler(TrialScheduler):
    """Adapter: run a plain :class:`Searcher` for ``num_trials`` trials,
    all at maximum fidelity (the "fixed budget" strawman of §2.2)."""

    def __init__(
        self,
        searcher: Searcher,
        num_trials: int,
        max_fidelity: int = 1,
        seed: SeedLike = None,
    ):
        super().__init__(searcher.space, max_fidelity, seed)
        if num_trials < 1:
            raise SearchSpaceError(f"num_trials must be >= 1, got {num_trials}")
        self.searcher = searcher
        self.num_trials = num_trials
        self._issued = 0
        self._reported = 0

    def next_trial(self) -> Optional[ScheduledTrial]:
        if self._issued >= self.num_trials:
            return None
        configuration = self.searcher.suggest()
        if configuration is None:
            return None
        trial = ScheduledTrial(
            trial_id=self._issued,
            configuration=configuration,
            fidelity=self.max_fidelity,
        )
        self._issued += 1
        return trial

    def report(self, report: TrialReport) -> None:
        self._reported += 1
        self.searcher.observe(report.trial.configuration, report.score)

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        return self.searcher.warm_start(records)

    @property
    def finished(self) -> bool:
        next_possible = self._issued < self.num_trials
        return not next_possible and self._reported >= self._issued
