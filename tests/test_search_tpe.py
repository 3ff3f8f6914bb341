"""The batched TPE scoring equals the scalar code it replaced, bit for bit.

``ParzenEstimator.sample_many`` / ``log_densities`` against the scalar
oracle in ``tests/tpe_oracle.py`` over random point sets (duplicates
included, so bandwidths sit at ``MIN_BANDWIDTH``), and a digest of
``TPESampler.suggest`` over 200 seeded sampler states, recorded with
the scalar candidate loop.
"""

import copy
import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.tpe import ParzenEstimator, TPESampler
from repro.space import Categorical, Float, Integer, ParameterSpace

from . import tpe_oracle

#: ``suggest_digest()`` with the scalar candidate loop (one candidate
#: drawn, then scored by two ``log_density`` calls, at a time).
SUGGEST_DIGEST = (
    "9f83931a0631b11ad8acf59d297ae19db381e8473949a2a8a749950c8f69853f"
)

PARAMETERS = [
    Float("x", 0.0, 1.0),
    Integer("batch", 1, 512, log=True),
    Categorical("layers", [18, 34, 50, 101]),
    Float("rate", 1e-4, 1.0, log=True),
    Integer("cores", 1, 8),
    Float("dropout", 0.0, 0.5),
]


def sampler_state(seed: int) -> TPESampler:
    """A sampler over the first 1-6 parameters that has observed enough
    random configurations to model; every fourth state observes a few
    configurations over and over (duplicate points)."""
    space = ParameterSpace(PARAMETERS[: 1 + seed % len(PARAMETERS)])
    startup = 2 + seed % 7
    sampler = TPESampler(space, seed=seed, startup_trials=startup,
                         candidates=8 + seed % 24)
    rng = np.random.default_rng(10_000 + seed)
    pool = [space.sample(rng) for _ in range(2 + seed % 3)]
    for index in range(startup + seed % 40):
        if seed % 4 == 0:
            configuration = pool[index % len(pool)]
        else:
            configuration = space.sample(rng)
        vector = configuration.to_unit_vector()
        # Rounded scores tie now and then.
        sampler.observe(configuration, round(float(
            ((vector - 0.3) ** 2).sum() + 0.1 * rng.random()), 2))
    return sampler


def suggest_digest(states: int = 200, rounds: int = 3) -> str:
    """SHA-256 over each state's suggestions and generator state."""
    digest = hashlib.sha256()
    for seed in range(states):
        sampler = sampler_state(seed)
        for _ in range(rounds):
            configuration = sampler.suggest()
            digest.update(repr(sorted(configuration.items())).encode())
            digest.update(repr(sampler._rng.bit_generator.state).encode())
            sampler.observe(configuration, float(
                configuration.to_unit_vector().sum()))
    return digest.hexdigest()


def test_suggest_digest_unchanged():
    assert suggest_digest() == SUGGEST_DIGEST


def test_suggest_equals_the_scalar_loop():
    for seed in range(0, 200, 7):
        batched = sampler_state(seed)
        scalar = copy.deepcopy(batched)
        for _ in range(3):
            configuration = batched.suggest()
            assert configuration == tpe_oracle.suggest(scalar)
            assert (batched._rng.bit_generator.state
                    == scalar._rng.bit_generator.state)
            batched.observe(configuration, 0.5)
            scalar.observe(configuration, 0.5)


@st.composite
def point_sets(draw):
    """An (n, d) array in the unit cube, n 2-80 and d 1-6; half of them
    built from 1-3 repeated rows, so spreads are small or 0 and the
    bandwidths sit at ``MIN_BANDWIDTH``."""
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        distinct = rng.random((draw(st.integers(1, 3)), d))
        points = distinct[rng.integers(len(distinct), size=n)]
    else:
        points = rng.random((n, d))
        # Points on the faces of the cube exercise the reflection.
        points[rng.random((n, d)) < 0.1] = 0.0
        points[rng.random((n, d)) < 0.1] = 1.0
    return points, seed


@settings(max_examples=150, deadline=None)
@given(point_sets(), st.integers(1, 40))
def test_sample_many_matches_the_oracle(case, count):
    points, seed = case
    estimator = ParzenEstimator(points)
    batched_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    batch = estimator.sample_many(batched_rng, count)
    expected = np.array(
        [tpe_oracle.sample(estimator, oracle_rng) for _ in range(count)]
    )
    assert batch.shape == expected.shape
    assert batch.tobytes() == expected.tobytes()
    assert batched_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert estimator.sample(batched_rng).tobytes() == tpe_oracle.sample(
        estimator, oracle_rng).tobytes()


@settings(max_examples=150, deadline=None)
@given(point_sets(), st.integers(1, 40))
def test_log_densities_match_the_oracle(case, count):
    points, seed = case
    estimator = ParzenEstimator(points)
    rng = np.random.default_rng(seed + 1)
    xs = estimator.sample_many(rng, count)
    xs[: count // 2] = rng.random((count // 2, points.shape[1]))
    scores = estimator.log_densities(xs)
    expected = [tpe_oracle.log_density(estimator, x) for x in xs]
    assert [float(score) for score in scores] == expected
    assert estimator.log_density(xs[0]) == expected[0]

