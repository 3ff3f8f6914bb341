"""Integration tests for the Model Tuning Server and the EdgeTune facade."""

import dataclasses

import pytest

from repro import EdgeTune
from repro.budgets import DatasetBudget, MultiBudget
from repro.core import InferenceTuningServer, ModelTuningServer, model_server
from repro.hardware import Emulator
from repro.objectives import AccuracyObjective, RatioObjective
from repro.storage import TrialDatabase
from repro.workloads import get_workload

SAMPLES = 240  # small but learnable


def make_server(**kwargs):
    defaults = dict(
        workload=get_workload("IC"),
        algorithm="bohb",
        budget=MultiBudget(min_epochs=1, max_epochs=4, min_fraction=0.25),
        objective=AccuracyObjective(),
        database=TrialDatabase(),
        seed=11,
        samples=SAMPLES,
        include_system_parameters=True,
    )
    defaults.update(kwargs)
    return ModelTuningServer(**defaults)


class TestModelServer:
    def test_full_run_produces_result(self):
        result = make_server().run()
        assert result.num_trials > 0
        assert 0.0 <= result.best_accuracy <= 1.0
        assert result.tuning_runtime_s > 0
        assert result.tuning_energy_j > 0
        assert result.best_model is not None

    def test_best_configuration_is_from_trials(self):
        result = make_server().run()
        assert any(
            record.configuration == result.best_configuration
            for record in result.trials
        )

    def test_deterministic(self):
        a = make_server().run()
        b = make_server().run()
        assert a.best_configuration == b.best_configuration
        assert a.tuning_runtime_s == pytest.approx(b.tuning_runtime_s)
        assert [r.accuracy for r in a.trials] == [
            r.accuracy for r in b.trials
        ]

    def test_trials_recorded_in_database(self):
        database = TrialDatabase()
        result = make_server(database=database,
                             system_name="unit-test").run()
        assert database.trial_count("unit-test:IC") == result.num_trials

    def test_max_trials_respected(self):
        result = make_server(max_trials=5).run()
        assert result.num_trials == 5

    def test_target_accuracy_stops_early(self):
        full = make_server().run()
        stopped = make_server(target_accuracy=0.3).run()
        assert stopped.num_trials <= full.num_trials

    def test_fixed_system_parameters(self):
        result = make_server(
            include_system_parameters=False, fixed_gpus=2
        ).run()
        assert "gpus" not in result.best_configuration
        assert all(record.training.gpus == 2 for record in result.trials)

    def test_makespan_below_serial_sum(self):
        """GPU-pool parallelism: the tuning runtime (makespan) must be
        well below the serial sum of trial durations."""
        result = make_server(include_system_parameters=False,
                             fixed_gpus=1).run()
        serial = sum(record.training.runtime_s for record in result.trials)
        assert result.tuning_runtime_s < serial

    def test_energy_is_sum_not_makespan(self):
        """Parallelism hides latency but never joules."""
        result = make_server(include_system_parameters=False,
                             fixed_gpus=1).run()
        total = sum(record.training.energy_j for record in result.trials)
        assert result.tuning_energy_j == pytest.approx(total)

    def test_budget_reflected_in_trials(self):
        budget = DatasetBudget(min_fraction=0.5)
        result = make_server(budget=budget).run()
        assert all(record.epochs == 1 for record in result.trials)
        assert {record.data_fraction for record in result.trials} <= {
            0.5, 1.0
        }


class TestEdgeTuneFacade:
    def run_edgetune(self, **kwargs):
        defaults = dict(workload="IC", seed=11, samples=SAMPLES,
                        max_trials=12)
        defaults.update(kwargs)
        return EdgeTune(**defaults).tune()

    def test_returns_inference_recommendation(self):
        result = self.run_edgetune()
        assert result.inference is not None
        configuration = result.inference.configuration
        assert "inference_batch_size" in configuration
        assert "cores" in configuration
        assert "frequency_ghz" in configuration
        assert result.inference.device == "armv7"

    def test_inference_measurements_attached_to_trials(self):
        result = self.run_edgetune()
        assert all(record.inference is not None for record in result.trials)

    def test_architecture_cache_reused_across_trials(self):
        """Only as many inference tunes as distinct architectures; the
        rest are cache hits with zero added runtime."""
        database = TrialDatabase()
        result = self.run_edgetune(database=database, max_trials=20)
        distinct_architectures = len(
            {
                tuple(
                    sorted(
                        (k, v)
                        for k, v in record.configuration.items()
                        if k == "num_layers"
                    )
                )
                for record in result.trials
            }
        )
        assert database.inference_cache_size() == distinct_architectures
        # At most 3 for ResNet {18, 34, 50}.
        assert distinct_architectures <= 3

    def test_budget_string_accepted(self):
        result = self.run_edgetune(budget="epochs", max_trials=6)
        assert all(record.data_fraction == 1.0 for record in result.trials)

    def test_energy_metric(self):
        result = self.run_edgetune(tuning_metric="energy",
                                   inference_metric="energy")
        assert result.inference.objective == "inference-energy"

    def test_different_device(self):
        result = self.run_edgetune(device="i7nuc")
        assert result.inference.device == "i7nuc"

    def test_stall_accounting_nonnegative(self):
        result = self.run_edgetune()
        assert result.stall_s >= 0.0
        assert all(record.stall_s >= 0.0 for record in result.trials)


class TestProcessMemos:
    def test_sizing_memo_is_bounded(self):
        """OD's continuous ``dropout`` makes every trial a new sizing key:
        500 of them leave the process-wide memo at its cap, and each size
        still equals a freshly built probe's (the memo drops no key
        component the size depends on)."""
        model_server.architecture_size.cache_clear()
        train_set, _ = get_workload("OD").load(seed=3, samples=40)
        shape, classes = train_set.sample_shape, train_set.num_classes
        family = get_workload("OD").family
        for index in range(500):
            model_server.architecture_size(
                family.name, shape, classes, (("dropout", index / 1000),)
            )
        info = model_server.architecture_size.cache_info()
        assert info.currsize == info.maxsize == model_server.SIZING_CACHE_MAX
        assert info.misses == 500
        for dropout in (0.0, 0.137, 0.499):
            probe = family.instantiate(
                shape, classes, {"dropout": dropout}, seed=11
            )
            size = model_server.architecture_size(
                family.name, shape, classes, (("dropout", dropout),)
            )
            assert size == (int(probe.flops(shape)[0]),
                            probe.parameter_count())

    def test_prepare_shares_registry_datasets(self):
        """Two servers of one registry workload and seed share the
        process's datasets, and each lookup counts in the memo's meters;
        a custom workload object builds its own."""
        first = make_server(seed=5).prepare()
        before = model_server.dataset_cache_stats()
        second = make_server(seed=5).prepare()
        assert model_server.dataset_cache_stats()["hits"] == before["hits"] + 1
        assert first.train_set is second.train_set
        assert first.eval_set is second.eval_set
        custom = dataclasses.replace(get_workload("IC"))
        own = make_server(seed=5, workload=custom).prepare()
        assert own.train_set is not first.train_set
        assert (own.train_set.features == first.train_set.features).all()
