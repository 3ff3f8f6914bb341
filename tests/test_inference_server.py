"""Tests for the Inference Tuning Server (§3.4)."""

import pytest

from repro.core import InferenceTuningServer, architecture_key_of
from repro.hardware import Emulator
from repro.objectives import InferenceObjective
from repro.storage import TrialDatabase
from repro.workloads import get_workload

FLOPS = 25_000
PARAMS = 12_000


def make_server(**kwargs):
    defaults = dict(
        device="armv7",
        emulator=Emulator(),
        database=TrialDatabase(),
        seed=3,
    )
    defaults.update(kwargs)
    return InferenceTuningServer(**defaults)


def space(device="armv7"):
    return get_workload("IC").inference_space(device)


class TestSearchAndStore:
    def test_unstored_search_answers_as_the_stored_row_will(self):
        """A search held back from the cache (a merge batch's, stored in
        its transaction) answers a later look-up bit for bit as its
        stored row does."""
        import pickle

        server = make_server()
        fresh, records = server.search(FLOPS, PARAMS, space())
        assert server.cached("arch") is None
        held = server.cached("arch", {"arch": fresh})
        server.store("arch", fresh, records)
        stored = server.cached("arch")
        assert held.cache_hit and not fresh.cache_hit
        assert pickle.dumps(held) == pickle.dumps(stored)
        assert server.cached("arch", {"arch": fresh}) is not None
        assert make_server(use_cache=False).cached(
            "arch", {"arch": fresh}
        ) is None

    def test_search_touches_no_database(self):
        server = make_server()
        statements = []
        server.database._connection.set_trace_callback(statements.append)
        server.search(FLOPS, PARAMS, space())
        server.database._connection.set_trace_callback(None)
        assert statements == []
        assert server.database.inference_cache_size() == 0


class TestTuning:
    def test_returns_best_by_objective(self):
        server = make_server(objective=InferenceObjective("energy"))
        recommendation, records = server.tune("arch", FLOPS, PARAMS, space())
        assert records
        best_score = min(record.score for record in records)
        energy = recommendation.measurement.energy_per_sample_j
        assert energy == pytest.approx(best_score)

    def test_throughput_objective_changes_choice(self):
        energy_server = make_server(objective=InferenceObjective("energy"))
        throughput_server = make_server(
            objective=InferenceObjective("throughput")
        )
        by_energy, _ = energy_server.tune("arch", FLOPS, PARAMS, space())
        by_throughput, _ = throughput_server.tune(
            "arch", FLOPS, PARAMS, space()
        )
        assert (
            by_throughput.measurement.throughput_sps
            >= by_energy.measurement.throughput_sps
        )

    def test_recommendation_within_space(self):
        server = make_server()
        recommendation, _ = server.tune("arch", FLOPS, PARAMS, space())
        configuration = recommendation.configuration
        assert 1 <= configuration["inference_batch_size"] <= 100
        assert 1 <= configuration["cores"] <= 4

    def test_tuning_cost_accounted(self):
        server = make_server()
        recommendation, records = server.tune("arch", FLOPS, PARAMS, space())
        assert recommendation.tuning_runtime_s > 0
        assert recommendation.tuning_energy_j > 0
        assert recommendation.tuning_runtime_s == pytest.approx(
            sum(record.sim_cost_s for record in records)
        )

    def test_random_algorithm(self):
        server = make_server(algorithm="random", num_trials=10)
        recommendation, records = server.tune("arch", FLOPS, PARAMS, space())
        assert len(records) <= 10
        assert recommendation.configuration


class TestCache:
    def test_second_call_hits_cache(self):
        """§3.4: architectures are never re-tuned."""
        server = make_server()
        first, records = server.tune("arch", FLOPS, PARAMS, space())
        assert not first.cache_hit and records
        second, records2 = server.tune("arch", FLOPS, PARAMS, space())
        assert second.cache_hit
        assert records2 == []
        assert second.tuning_runtime_s == 0.0
        assert second.configuration == first.configuration

    def test_cache_shared_through_database(self):
        database = TrialDatabase()
        server_a = make_server(database=database)
        server_a.tune("arch", FLOPS, PARAMS, space())
        server_b = make_server(database=database)
        assert server_b.cached("arch") is not None

    def test_cache_keyed_by_objective(self):
        database = TrialDatabase()
        energy = make_server(
            database=database, objective=InferenceObjective("energy")
        )
        energy.tune("arch", FLOPS, PARAMS, space())
        runtime = make_server(
            database=database, objective=InferenceObjective("runtime")
        )
        assert runtime.cached("arch") is None

    def test_cached_measurement_roundtrip(self):
        server = make_server()
        first, _ = server.tune("arch", FLOPS, PARAMS, space())
        cached = server.cached("arch")
        assert cached.measurement.throughput_sps == pytest.approx(
            first.measurement.throughput_sps
        )
        assert cached.measurement.energy_per_sample_j == pytest.approx(
            first.measurement.energy_per_sample_j
        )


class TestArchitectureKey:
    def test_key_depends_on_structure_only(self):
        a = architecture_key_of("yolo", 36_360, 6156)
        b = architecture_key_of("yolo", 36_360, 6156)
        assert a == b

    def test_key_distinguishes_families_and_sizes(self):
        base = architecture_key_of("resnet", 25_000, 12_000)
        assert architecture_key_of("m5", 25_000, 12_000) != base
        assert architecture_key_of("resnet", 50_000, 12_000) != base
        assert architecture_key_of("resnet", 25_000, 24_000) != base
