"""Tests for search algorithms and multi-fidelity schedulers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchSpaceError, TuningError
from repro.search import (
    BOHBScheduler,
    GridSearcher,
    HyperBandScheduler,
    RandomSearcher,
    SearcherScheduler,
    SuccessiveHalvingScheduler,
    TPESampler,
    TrialReport,
    build_scheduler,
    build_searcher,
    rung_fidelities,
)
from repro.space import (
    Categorical,
    Configuration,
    Float,
    Integer,
    ParameterSpace,
)


def small_space():
    return ParameterSpace(
        [
            Float("x", 0.0, 1.0),
            Integer("n", 1, 8),
            Categorical("c", ("a", "b")),
        ]
    )


def quadratic(configuration):
    return (configuration["x"] - 0.6) ** 2 + 0.01 * (
        configuration["n"] - 4
    ) ** 2 + (0.0 if configuration["c"] == "a" else 0.2)


def drive(scheduler, objective, limit=5000):
    """Run a scheduler to completion against a deterministic objective."""
    history = []
    while True:
        trial = scheduler.next_trial()
        if trial is None:
            assert scheduler.finished
            break
        score = objective(trial.configuration) + 0.005 * (
            scheduler.max_fidelity - trial.fidelity
        )
        scheduler.report(TrialReport(trial=trial, score=score))
        history.append((trial, score))
        assert len(history) <= limit, "scheduler runaway"
    return history


class TestGridSearcher:
    def test_exhausts_grid_once(self):
        space = ParameterSpace(
            [Categorical("a", (1, 2)), Categorical("b", ("x", "y", "z"))]
        )
        searcher = GridSearcher(space)
        seen = []
        while True:
            configuration = searcher.suggest()
            if configuration is None:
                break
            seen.append(configuration)
        assert len(seen) == 6
        assert len(set(seen)) == 6

    def test_reset(self):
        space = ParameterSpace([Categorical("a", (1, 2))])
        searcher = GridSearcher(space)
        first = searcher.suggest()
        searcher.suggest()
        assert searcher.suggest() is None
        searcher.reset()
        assert searcher.suggest() == first


class TestRandomSearcher:
    def test_deterministic_given_seed(self):
        space = small_space()
        a = [RandomSearcher(space, seed=3).suggest() for _ in range(1)]
        b = [RandomSearcher(space, seed=3).suggest() for _ in range(1)]
        assert a == b

    def test_avoids_duplicates_in_finite_space(self):
        space = ParameterSpace([Categorical("a", tuple(range(10)))])
        searcher = RandomSearcher(space, seed=0)
        seen = [searcher.suggest() for _ in range(10)]
        assert len(set(seen)) == 10
        assert searcher.suggest() is None

    def test_reset_restores_stream(self):
        searcher = RandomSearcher(small_space(), seed=5)
        first = searcher.suggest()
        searcher.reset()
        assert searcher.suggest() == first


class TestTPE:
    def test_improves_over_random(self):
        space = small_space()
        tpe = TPESampler(space, seed=11, startup_trials=6)
        best_tpe = math.inf
        for _ in range(40):
            configuration = tpe.suggest()
            score = quadratic(configuration)
            tpe.observe(configuration, score)
            best_tpe = min(best_tpe, score)
        # The model-guided search lands a genuinely good optimum.
        assert best_tpe < 0.08

    def test_concentrates_near_optimum(self):
        space = ParameterSpace([Float("x", 0.0, 1.0)])
        tpe = TPESampler(space, seed=2, startup_trials=6)
        for _ in range(30):
            configuration = tpe.suggest()
            tpe.observe(configuration, (configuration["x"] - 0.3) ** 2)
        late = [tpe.suggest()["x"] for _ in range(10)]
        assert abs(np.median(late) - 0.3) < 0.25

    def test_invalid_gamma(self):
        with pytest.raises(SearchSpaceError):
            TPESampler(small_space(), gamma=1.5)


class TestRungFidelities:
    def test_paper_example(self):
        """§2.2: min 1, max 16, eta 2 -> 1, 2, 4, 8, 16."""
        assert rung_fidelities(1, 16, 2) == [1, 2, 4, 8, 16]

    def test_non_power_max_included(self):
        assert rung_fidelities(1, 10, 2) == [1, 2, 4, 8, 10]

    def test_invalid(self):
        with pytest.raises(SearchSpaceError):
            rung_fidelities(4, 2, 2)
        with pytest.raises(SearchSpaceError):
            rung_fidelities(1, 8, 1)


class TestSuccessiveHalving:
    def test_paper_trial_counts(self):
        """§2.2's example: 16 trials at fid 1, then 8, 4, 2, 1."""
        space = small_space()
        scheduler = SuccessiveHalvingScheduler(
            space, RandomSearcher(space, seed=0), eta=2,
            min_fidelity=1, max_fidelity=16, seed=0,
        )
        history = drive(scheduler, quadratic)
        per_fidelity = {}
        for trial, _ in history:
            per_fidelity[trial.fidelity] = (
                per_fidelity.get(trial.fidelity, 0) + 1
            )
        assert per_fidelity == {1: 16, 2: 8, 4: 4, 8: 2, 16: 1}

    def test_promotes_best(self):
        space = small_space()
        scheduler = SuccessiveHalvingScheduler(
            space, RandomSearcher(space, seed=1), eta=2,
            min_fidelity=1, max_fidelity=4, seed=1,
        )
        history = drive(scheduler, quadratic)
        rung0 = [(t, s) for t, s in history if t.rung == 0]
        rung1_configs = {t.configuration for t, _ in history if t.rung == 1}
        promoted_scores = sorted(s for t, s in rung0)[: len(rung1_configs)]
        for trial, score in rung0:
            if trial.configuration in rung1_configs:
                assert score <= max(promoted_scores) + 1e-9

    def test_report_for_unknown_trial_skipped(self, caplog):
        """Unknown-trial completions (e.g. issued past a checkpoint
        restore) are logged and dropped, never a crash — and never
        restart the rung."""
        space = small_space()
        scheduler = SuccessiveHalvingScheduler(
            space, RandomSearcher(space, seed=0)
        )
        trial = scheduler.next_trial()
        fake = TrialReport(
            trial=type(trial)(
                trial_id=999, configuration=trial.configuration, fidelity=1
            ),
            score=1.0,
        )
        with caplog.at_level("WARNING", logger="repro.search"):
            scheduler.report(fake)
        assert "unknown trial 999" in caplog.text
        # The stray report left no trace: the real trial is still
        # awaited and the rung's report list is untouched.
        assert trial.trial_id in scheduler._awaiting
        assert scheduler._reports == []
        scheduler.report(
            TrialReport(trial=trial, score=quadratic(trial.configuration))
        )
        history = drive(scheduler, quadratic, limit=5000)
        assert scheduler.finished
        assert history  # the run still completes normally


class TestHyperBand:
    def test_runs_all_brackets(self):
        space = small_space()
        scheduler = HyperBandScheduler(
            space, eta=2, min_fidelity=1, max_fidelity=8, seed=2
        )
        history = drive(scheduler, quadratic)
        brackets = {t.bracket for t, _ in history}
        assert brackets == {0, 1, 2, 3}

    def test_later_brackets_start_higher(self):
        space = small_space()
        scheduler = HyperBandScheduler(
            space, eta=2, min_fidelity=1, max_fidelity=8, seed=2
        )
        history = drive(scheduler, quadratic)
        start_fidelity = {}
        for trial, _ in history:
            start_fidelity.setdefault(trial.bracket, trial.fidelity)
        # bracket s_max starts at min fidelity, bracket 0 at max fidelity
        assert start_fidelity[3] == 1
        assert start_fidelity[0] == 8

    def test_trial_ids_unique(self):
        space = small_space()
        scheduler = HyperBandScheduler(space, max_fidelity=8, seed=0)
        history = drive(scheduler, quadratic)
        ids = [t.trial_id for t, _ in history]
        assert len(ids) == len(set(ids))


class TestBOHB:
    def test_completes_and_finds_good_config(self):
        space = small_space()
        scheduler = BOHBScheduler(space, max_fidelity=8, seed=4)
        history = drive(scheduler, quadratic)
        top = [t for t, _ in history if t.fidelity == 8]
        assert top
        best = min(
            (quadratic(t.configuration) for t in top)
        )
        assert best < 0.25

    def test_model_kicks_in(self):
        """After enough observations BOHB samples non-uniformly: late
        suggestions should beat the uniform-random average."""
        space = ParameterSpace([Float("x", 0.0, 1.0)])
        scheduler = BOHBScheduler(
            space, max_fidelity=8, seed=9, startup_trials=4
        )
        history = drive(
            scheduler, lambda c: (c["x"] - 0.25) ** 2
        )
        late = [t.configuration["x"] for t, _ in history[-8:]]
        assert abs(np.mean(late) - 0.25) < 0.3

    def test_a_report_embeds_its_configuration_once(self, monkeypatch):
        """The report's fidelity model and the fallback model get one
        unit vector between them, equal in both."""
        calls = []
        embed = Configuration.to_unit_vector
        monkeypatch.setattr(
            Configuration, "to_unit_vector",
            lambda self: calls.append(1) or embed(self),
        )
        scheduler = BOHBScheduler(small_space(), max_fidelity=8, seed=4)
        reported = {}
        while True:
            trial = scheduler.next_trial()
            if trial is None:
                break
            score = quadratic(trial.configuration)
            before = len(calls)
            scheduler.report(TrialReport(trial=trial, score=score))
            assert len(calls) - before == 1
            reported.setdefault(trial.fidelity, []).append(
                (embed(trial.configuration).tobytes(), score)
            )
        tpe = scheduler.tpe

        def seen(sampler):
            return [(v.tobytes(), s) for v, s in sampler._observations]

        assert sorted(seen(tpe._fallback)) == sorted(
            sum(reported.values(), [])
        )
        for fidelity, observed in reported.items():
            assert seen(tpe._samplers[fidelity]) == observed


class TestRegistry:
    def test_build_searcher_names(self):
        for name in ("grid", "random", "tpe"):
            assert build_searcher(name, small_space(), seed=0) is not None
        with pytest.raises(SearchSpaceError):
            build_searcher("cmaes", small_space())

    @pytest.mark.parametrize(
        "name", ["grid", "random", "tpe", "sha", "hyperband", "bohb", "median"]
    )
    def test_build_scheduler_runs(self, name):
        scheduler = build_scheduler(
            name, small_space(), seed=3, max_fidelity=4, num_trials=6
        )
        history = drive(scheduler, quadratic)
        assert history

    def test_unknown_scheduler(self):
        with pytest.raises(SearchSpaceError):
            build_scheduler("pbt", small_space())


@given(
    eta=st.integers(2, 4),
    max_fidelity=st.integers(2, 32),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_property_sha_fidelities_never_exceed_max(eta, max_fidelity, seed):
    space = small_space()
    scheduler = SuccessiveHalvingScheduler(
        space, RandomSearcher(space, seed=seed), eta=eta,
        min_fidelity=1, max_fidelity=max_fidelity, seed=seed,
    )
    history = drive(scheduler, quadratic)
    assert all(1 <= t.fidelity <= max_fidelity for t, _ in history)
    # Exactly one trial runs at the top fidelity of the final rung.
    top = [t for t, _ in history if t.rung == len(
        rung_fidelities(1, max_fidelity, eta)) - 1]
    assert len(top) >= 1


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_property_bohb_deterministic(seed):
    space = small_space()

    def run():
        scheduler = BOHBScheduler(space, max_fidelity=4, seed=seed)
        return [
            (t.trial_id, dict(t.configuration), s)
            for t, s in drive(scheduler, quadratic)
        ]

    assert run() == run()
