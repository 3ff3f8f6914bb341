"""Correctness oracle for :mod:`repro.search.tpe`.

The scalar Parzen-estimator code the batched one replaced: one candidate
drawn, and one candidate scored against every kernel, at a time.
:class:`repro.search.tpe.ParzenEstimator` must return these values bit
for bit and leave the generator where they leave it (the draw-order
contract in its docstring).
"""

import math
from typing import Optional

import numpy as np

from repro.space import Configuration


def sample(estimator, rng: np.random.Generator) -> np.ndarray:
    """Draw one point: pick a kernel, perturb, reflect into [0, 1]."""
    index = int(rng.integers(len(estimator.points)))
    draw = estimator.points[index] + rng.normal(0.0, estimator.bandwidths)
    # Reflect at the boundaries to keep the proposal inside the cube.
    draw = np.abs(draw)
    draw = 1.0 - np.abs(1.0 - draw)
    return np.clip(draw, 0.0, 1.0)


def log_density(estimator, x: np.ndarray) -> float:
    """Log of the mixture density at ``x``."""
    z = (x[None, :] - estimator.points) / estimator.bandwidths[None, :]
    per_kernel = -0.5 * (z**2).sum(axis=1) - np.log(
        estimator.bandwidths
    ).sum()
    peak = per_kernel.max()
    return float(
        peak + math.log(np.exp(per_kernel - peak).mean())
    )


def suggest(sampler) -> Optional[Configuration]:
    """:meth:`TPESampler.suggest` as it was: score each candidate as it
    is drawn, keep the first strictly best."""
    from repro.search.tpe import ParzenEstimator

    if len(sampler._observations) < sampler.startup_trials:
        return sampler.space.sample(sampler._rng)
    good, bad = sampler._split()
    good_kde = ParzenEstimator(good)
    bad_kde = ParzenEstimator(bad)
    best_vector: Optional[np.ndarray] = None
    best_ratio = -math.inf
    for _ in range(sampler.candidates):
        candidate = sample(good_kde, sampler._rng)
        ratio = log_density(good_kde, candidate) - log_density(
            bad_kde, candidate
        )
        if ratio > best_ratio:
            best_ratio = ratio
            best_vector = candidate
    assert best_vector is not None
    return sampler.space.from_unit_vector(best_vector)
