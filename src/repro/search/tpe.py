"""Tree-structured Parzen Estimator sampler (Bergstra et al. 2011).

The Bayesian-optimisation half of BOHB (Falkner et al. 2018): observations
are split into a *good* quantile and the rest; two kernel-density
estimators l(x) and g(x) are fitted over the unit hypercube, and new
candidates maximise the density ratio l(x)/g(x).

Implemented with per-dimension Gaussian Parzen windows over the unit-cube
embedding of configurations, so categorical/integer/float parameters are
handled uniformly.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SearchSpaceError
from ..rng import SeedLike, make_rng
from ..space import Configuration, ParameterSpace
from .base import Searcher, coerce_warm_start_records

#: Fraction of observations treated as "good".
DEFAULT_GAMMA = 0.25

#: Random configurations evaluated before the model kicks in.
DEFAULT_STARTUP_TRIALS = 8

#: Candidates scored by the density ratio per suggestion.
DEFAULT_CANDIDATES = 24

#: Minimum Parzen bandwidth (keeps the KDE proper with few points).
MIN_BANDWIDTH = 0.08


class ParzenEstimator:
    """Product of 1-D Gaussian mixture densities over the unit cube.

    Draw-order contract: :meth:`sample_many` makes each candidate's
    ``rng.integers`` draw and then its ``d`` standard-normal draws
    (``rng.standard_normal`` straight into the candidate's row), in
    candidate order, exactly as that many ``rng.integers`` +
    ``rng.normal(0.0, bandwidths)`` pairs would, so batching leaves the
    generator stream (and every later suggestion) untouched. The block is
    then scaled once, ``noise *= bandwidths; noise += 0.0``: numpy's
    ``normal(loc, scale)`` is ``loc + scale * z`` element by element, so
    ``normal(0.0, b)`` is ``0.0 + b * z``, and the ``+ 0.0`` keeps even
    the sign of a zero product. All other arithmetic on the drawn values
    is elementwise or a reduction along the same axis, so each row
    equals the one-row result bit for bit (``tests/tpe_oracle.py`` holds
    the scalar ``rng.normal`` code).
    """

    def __init__(self, points: np.ndarray):
        if points.ndim != 2 or len(points) == 0:
            raise SearchSpaceError("ParzenEstimator needs an (n, d) array")
        self.points = points
        count, dims = points.shape
        # Scott's rule per dimension, floored for stability.
        spread = points.std(axis=0)
        scott = spread * count ** (-1.0 / (dims + 4))
        self.bandwidths = np.maximum(scott, MIN_BANDWIDTH)
        self._log_norm = np.log(self.bandwidths).sum()

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` points as a ``(count, d)`` array: pick a kernel,
        perturb, reflect into [0, 1]."""
        indices = np.empty(count, dtype=np.intp)
        noise = np.empty((count, self.points.shape[1]))
        for row in range(count):
            indices[row] = rng.integers(len(self.points))
            rng.standard_normal(out=noise[row])
        # numpy's normal(loc, scale) is ``loc + scale * z`` per element,
        # in draw order: scale and shift the whole block once instead.
        noise *= self.bandwidths
        noise += 0.0
        draws = self.points[indices] + noise
        # Reflect at the boundaries to keep the proposal inside the cube.
        draws = np.abs(draws)
        draws = 1.0 - np.abs(1.0 - draws)
        return np.clip(draws, 0.0, 1.0)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one point (:meth:`sample_many` of one)."""
        return self.sample_many(rng, 1)[0]

    def log_densities(self, xs: np.ndarray) -> np.ndarray:
        """Log of the mixture density at each row of ``xs`` (up to the same
        constant for every estimator of equal dimension, which ratios
        cancel): every row against every kernel as one
        ``(count, n, d)`` array."""
        z = (xs[:, None, :] - self.points[None, :, :]) / self.bandwidths
        per_kernel = -0.5 * (z**2).sum(axis=2) - self._log_norm
        peaks = per_kernel.max(axis=1)
        means = np.exp(per_kernel - peaks[:, None]).mean(axis=1)
        # math.log, not np.log: the scalar code's rounding, row by row.
        return peaks + np.array([math.log(mean) for mean in means])

    def log_density(self, x: np.ndarray) -> float:
        """:meth:`log_densities` of the single point ``x``."""
        return float(self.log_densities(x[None, :])[0])


class TPESampler(Searcher):
    """TPE searcher over a :class:`ParameterSpace`."""

    learns = True

    def __init__(
        self,
        space: ParameterSpace,
        seed: SeedLike = None,
        gamma: float = DEFAULT_GAMMA,
        startup_trials: int = DEFAULT_STARTUP_TRIALS,
        candidates: int = DEFAULT_CANDIDATES,
    ):
        super().__init__(space, seed)
        if not 0.0 < gamma < 1.0:
            raise SearchSpaceError(f"gamma must be in (0, 1), got {gamma}")
        if startup_trials < 2:
            raise SearchSpaceError("startup_trials must be >= 2")
        self.gamma = gamma
        self.startup_trials = startup_trials
        self.candidates = candidates
        self._rng = make_rng(self.seed)
        self._observations: List[Tuple[np.ndarray, float]] = []

    # -- observation -----------------------------------------------------
    def observe(self, configuration: Configuration, score: float) -> None:
        self.observe_vector(configuration.to_unit_vector(), score)

    def observe_vector(self, vector: np.ndarray, score: float) -> None:
        """:meth:`observe` of a configuration already embedded in the
        unit cube (``vector`` is kept, not copied: do not mutate it)."""
        self._observations.append((vector, float(score)))

    def warm_start(self, records: List[Mapping[str, Any]]) -> int:
        """Seed the Parzen model with prior-session observations.

        Absorbed records count toward ``startup_trials``, so a searcher
        warm-started with enough history skips the random-exploration
        phase entirely and models from the first suggestion.
        """
        coerced = coerce_warm_start_records(self.space, records)
        for record in coerced:
            self.observe(record["configuration"], record["score"])
        return len(coerced)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._observations.clear()

    # -- suggestion ---------------------------------------------------------
    def _split(self) -> Tuple[np.ndarray, np.ndarray]:
        ordered = sorted(self._observations, key=lambda item: item[1])
        n_good = max(2, int(math.ceil(self.gamma * len(ordered))))
        good = np.array([vector for vector, _ in ordered[:n_good]])
        bad_items = ordered[n_good:]
        if len(bad_items) < 2:
            bad_items = ordered  # degenerate split: reuse everything
        bad = np.array([vector for vector, _ in bad_items])
        return good, bad

    def suggest(self) -> Optional[Configuration]:
        if len(self._observations) < self.startup_trials:
            return self.space.sample(self._rng)
        good, bad = self._split()
        good_kde = ParzenEstimator(good)
        bad_kde = ParzenEstimator(bad)
        candidates = good_kde.sample_many(self._rng, self.candidates)
        ratios = good_kde.log_densities(candidates) - bad_kde.log_densities(
            candidates
        )
        best_vector: Optional[np.ndarray] = None
        best_ratio = -math.inf
        for candidate, ratio in zip(candidates, ratios):
            if ratio > best_ratio:
                best_ratio = ratio
                best_vector = candidate
        assert best_vector is not None
        return self.space.from_unit_vector(best_vector)
