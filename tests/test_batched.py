"""Batched-trial execution: the ``TrialBatch`` unit and the stacked trainer.

The one invariant everything here defends: a trial trained inside a
K-wide stack is **bit-identical** to the same trial trained alone —
weights, per-epoch losses, accuracy, FLOP accounting, divergence flags.
Grouping, fallback and telemetry tests cover the machinery around it.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core import model_server
from repro.core.model_server import ModelTuningServer, TrialTask
from repro.core.trial_batch import (
    batch_signature,
    evaluate_trial_batch,
    evaluate_task_groups,
    group_tasks,
    resolve_trial_batch,
)
from repro.datasets import make_cifar10
from repro.nn import kernels, train_model
from repro.nn.batched import stack_modules, stackable_model, train_model_batch
from repro.nn.models import get_model_family
from repro.nn.serialize import state_dict
from repro.rng import make_rng
from repro.storage import TrialDatabase
from repro.workloads import get_workload

SAMPLES = 160


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def model_bytes(model):
    return pickle.dumps(
        {name: value for name, value in sorted(state_dict(model).items())}
    )


def make_task(trial_id=0, seed=11, epochs=1, data_fraction=0.5,
              config_seed=3, workload_id="IC", **overrides):
    workload = get_workload(workload_id)
    space = workload.training_space(include_system=True)
    values = space.sample(make_rng(config_seed)).to_dict()
    fields = dict(
        trial_id=trial_id,
        values={k: int(v) for k, v in values.items()},
        fidelity=1,
        bracket=0,
        rung=0,
        epochs=epochs,
        data_fraction=data_fraction,
        workload_id=workload_id,
        seed=seed,
        samples=SAMPLES,
    )
    fields.update(overrides)
    return TrialTask(**fields)


def train_pair(family_name, num_lanes, dataset_builder, epochs=2,
               batch_size=16, data_fraction=1.0, hyper=None, seeds=None):
    """(serial results+models, batched results+models) for K clones."""
    dataset = dataset_builder()
    train, test = dataset.split(0.2, rng=0)
    family = get_model_family(family_name)
    seeds = seeds or [100 + k for k in range(num_lanes)]
    hyper = hyper or [None] * num_lanes

    serial_models, serial_results = [], []
    for k in range(num_lanes):
        model = family.instantiate(dataset.sample_shape,
                                   dataset.num_classes,
                                   hyper[k], seed=50 + k)
        result = train_model(
            model, family.make_loss(dataset.num_classes), train, test,
            epochs=epochs, batch_size=batch_size, lr=0.05,
            data_fraction=data_fraction, seed=seeds[k],
        )
        serial_models.append(model)
        serial_results.append(result)

    batch_models = [
        family.instantiate(dataset.sample_shape, dataset.num_classes,
                           hyper[k], seed=50 + k)
        for k in range(num_lanes)
    ]
    batch_results = train_model_batch(
        batch_models, family.make_loss(dataset.num_classes), train, test,
        epochs=epochs, batch_size=batch_size, lr=0.05,
        data_fraction=data_fraction, seeds=seeds,
    )
    return serial_models, serial_results, batch_models, batch_results


def assert_results_identical(serial, batched):
    assert serial.accuracy == batched.accuracy
    assert serial.losses == batched.losses
    assert serial.epochs_run == batched.epochs_run
    assert serial.samples_seen == batched.samples_seen
    assert serial.diverged == batched.diverged
    assert serial.forward_flops_per_sample == batched.forward_flops_per_sample
    assert serial.train_total_flops == batched.train_total_flops
    assert serial.parameter_count == batched.parameter_count


class TestStackedTrainerBitIdentity:
    def test_resnet_lanes_match_serial(self):
        sm, sr, bm, br = train_pair(
            "resnet", 3, lambda: make_cifar10(samples=SAMPLES, seed=1),
            hyper=[{"num_layers": 8}, {"num_layers": 8}, {"num_layers": 8}],
        )
        for k in range(3):
            assert_results_identical(sr[k], br[k])
            assert model_bytes(sm[k]) == model_bytes(bm[k])

    def test_m5_conv1d_lanes_match_serial(self):
        from repro.datasets import make_speech_commands

        sm, sr, bm, br = train_pair(
            "m5", 2, lambda: make_speech_commands(samples=96, seed=2),
            epochs=1, batch_size=8,
            hyper=[{"embedding_dim": 16}, {"embedding_dim": 16}],
        )
        for k in range(2):
            assert_results_identical(sr[k], br[k])
            assert model_bytes(sm[k]) == model_bytes(bm[k])

    def test_yolo_conv2d_with_per_lane_dropout(self):
        from repro.datasets import make_coco

        hyper = [{"dropout": 0.1}, {"dropout": 0.3}, {"dropout": 0.0}]
        sm, sr, bm, br = train_pair(
            "yolo", 3, lambda: make_coco(samples=48, seed=3),
            epochs=1, batch_size=8, hyper=hyper,
        )
        for k in range(3):
            assert_results_identical(sr[k], br[k])
            assert model_bytes(sm[k]) == model_bytes(bm[k])

    @settings(max_examples=6, deadline=None)
    @given(
        lanes=st.integers(min_value=1, max_value=4),
        fraction=st.sampled_from([0.25, 0.5, 1.0]),
        batch_size=st.sampled_from([8, 16, 32]),
    )
    def test_property_stacked_equals_serial(self, lanes, fraction,
                                            batch_size):
        sm, sr, bm, br = train_pair(
            "resnet", lanes,
            lambda: make_cifar10(samples=96, seed=4),
            epochs=1, batch_size=batch_size, data_fraction=fraction,
            hyper=[{"num_layers": 8}] * lanes,
        )
        for k in range(lanes):
            assert_results_identical(sr[k], br[k])
            assert model_bytes(sm[k]) == model_bytes(bm[k])

    def test_trainer_nan_fault_isolates_to_its_lane(self):
        """An injected first-batch NaN hits the same lanes stacked as it
        does serially, and healthy lanes stay bit-identical."""
        faults.configure("seed=9;trainer.nan=0.4", propagate=False)
        sm, sr, bm, br = train_pair(
            "resnet", 4, lambda: make_cifar10(samples=96, seed=5),
            epochs=1, hyper=[{"num_layers": 8}] * 4,
        )
        assert any(r.diverged for r in sr)
        assert any(not r.diverged for r in sr)
        for k in range(4):
            assert_results_identical(sr[k], br[k])
            assert model_bytes(sm[k]) == model_bytes(bm[k])


class TestStackability:
    def test_stackable_families_flagged(self):
        assert get_model_family("resnet").stackable
        assert get_model_family("m5").stackable
        assert get_model_family("yolo").stackable
        assert not get_model_family("textrnn").stackable

    def test_stackable_model_rejects_recurrent(self):
        dataset = make_cifar10(samples=32, seed=1)
        model = get_model_family("resnet").instantiate(
            dataset.sample_shape, dataset.num_classes, seed=1
        )
        assert stackable_model(model)

    def test_stack_modules_rejects_shape_mismatch(self):
        from repro.nn.batched import UnstackableModelError

        dataset = make_cifar10(samples=32, seed=1)
        family = get_model_family("resnet")
        a = family.instantiate(dataset.sample_shape, dataset.num_classes,
                               {"num_layers": 8}, seed=1)
        b = family.instantiate(dataset.sample_shape, dataset.num_classes,
                               {"num_layers": 12}, seed=1)
        with pytest.raises(UnstackableModelError):
            stack_modules([a, b])


class TestBatchSignature:
    def test_same_shape_tasks_share_a_signature(self):
        a = make_task(trial_id=0, config_seed=3)
        b = make_task(trial_id=1, config_seed=3)
        assert batch_signature(a) is not None
        assert batch_signature(a) == batch_signature(b)

    def test_scalar_hyperparameters_ride_along(self):
        """Tasks differing only in non-shape values still group."""
        a = make_task(trial_id=0, config_seed=3)
        values = dict(a.values)
        b = make_task(trial_id=1, config_seed=3, values=values)
        assert batch_signature(a) == batch_signature(b)

    def test_shape_hyperparameter_splits_groups(self):
        a = make_task(trial_id=0, config_seed=3)
        values = dict(a.values)
        values["num_layers"] = (
            8 if int(values.get("num_layers", 18)) != 8 else 12
        )
        b = make_task(trial_id=1, values=values)
        assert batch_signature(a) != batch_signature(b)

    def test_warm_resume_lineage_is_serial_only(self):
        assert batch_signature(make_task(reuse=True)) is None
        assert batch_signature(make_task(parent_key="k")) is None
        assert batch_signature(make_task(start_epoch=1)) is None

    def test_reference_backend_is_serial_only(self):
        task = make_task()
        previous = kernels.get_backend()
        kernels.set_backend("reference")
        try:
            assert batch_signature(task) is None
        finally:
            kernels.set_backend(previous)

    def test_non_stackable_family_is_serial_only(self):
        workload = get_workload("NLP")
        if not workload.family.stackable:
            task = make_task(workload_id="NLP", config_seed=5)
            assert batch_signature(task) is None

    def test_group_tasks_partitions_every_index_once(self):
        tasks = [make_task(trial_id=i, config_seed=3) for i in range(5)]
        tasks.append(make_task(trial_id=5, reuse=True))
        groups = group_tasks(tasks, limit=2)
        flat = sorted(i for group in groups for i in group)
        assert flat == list(range(6))
        assert all(len(group) <= 2 for group in groups)
        assert [5] in groups  # the unstackable straggler runs solo

    def test_resolve_trial_batch(self, monkeypatch):
        assert resolve_trial_batch(4) == 4
        assert resolve_trial_batch(1) == 1
        assert resolve_trial_batch(0) == 1
        monkeypatch.setenv("REPRO_TRIAL_BATCH", "3")
        assert resolve_trial_batch(None) == 3
        monkeypatch.setenv("REPRO_TRIAL_BATCH", "junk")
        assert resolve_trial_batch(None, default=1) == 1


class TestEvaluateTrialBatch:
    def test_members_match_serial_evaluate_trial(self):
        from repro.core.model_server import evaluate_trial

        tasks = [make_task(trial_id=i, config_seed=3) for i in range(3)]
        outputs = evaluate_trial_batch(tasks)
        for task, (evaluation, model) in zip(tasks, outputs):
            ref_eval, ref_model = evaluate_trial(task)
            assert pickle.dumps(evaluation) == pickle.dumps(ref_eval)
            assert model_bytes(model) == model_bytes(ref_model)

    def test_artifact_keys_stay_per_trial(self):
        """A stacked run stores each member under the exact key the
        serial path uses, so later serial runs hit the cache."""
        from repro.artifacts import ArtifactStore, trial_key
        from repro.core.model_server import evaluate_trial

        store = ArtifactStore(TrialDatabase())
        tasks = [make_task(trial_id=i, config_seed=3) for i in range(2)]
        evaluate_trial_batch(tasks, artifacts=store)
        assert store.stats()["entries"] == 2
        for task in tasks:
            assert store.load_trial(trial_key(task)) is not None
        hits_before = store.session_hits
        evaluation, _ = evaluate_trial(tasks[0], artifacts=store)
        assert store.session_hits == hits_before + 1

    def test_memoized_members_are_served_not_retrained(self):
        from repro.artifacts import ArtifactStore
        from repro.core.model_server import evaluate_trial

        store = ArtifactStore(TrialDatabase())
        tasks = [make_task(trial_id=i, config_seed=3) for i in range(3)]
        evaluate_trial(tasks[0], artifacts=store)
        outputs = evaluate_trial_batch(tasks, artifacts=store)
        assert len(outputs) == 3
        ref_eval, _ = evaluate_trial(tasks[0], artifacts=store)
        assert pickle.dumps(outputs[0][0]) == pickle.dumps(ref_eval)

    def test_half_cached_pair_probes_each_member_once(self):
        """One of two group-mates memoized: the other trains serially
        off the probe the group already made — one hit, one miss, not a
        second miss (and a second SELECT) for the same key."""
        from repro.artifacts import ArtifactStore
        from repro.core.model_server import evaluate_trial

        store = ArtifactStore(TrialDatabase())
        tasks = [make_task(trial_id=i, config_seed=3) for i in range(2)]
        evaluate_trial(tasks[0], artifacts=store)
        assert (store.session_hits, store.session_misses) == (0, 1)
        outputs = evaluate_trial_batch(tasks, artifacts=store)
        assert (store.session_hits, store.session_misses) == (1, 2)
        assert store.stats()["entries"] == 2
        ref_eval, ref_model = evaluate_trial(tasks[1])
        assert pickle.dumps(outputs[1][0]) == pickle.dumps(ref_eval)
        assert model_bytes(outputs[1][1]) == model_bytes(ref_model)

    def test_unstackable_fallback_probes_each_member_once(self, monkeypatch):
        from repro.artifacts import ArtifactStore
        from repro.core import trial_batch
        from repro.core.model_server import evaluate_trial
        from repro.nn.batched import UnstackableModelError

        def refuse(*args, **kwargs):
            raise UnstackableModelError("forced")

        monkeypatch.setattr(trial_batch, "train_model_batch", refuse)
        store = ArtifactStore(TrialDatabase())
        tasks = [make_task(trial_id=i, config_seed=3) for i in range(3)]
        outputs = evaluate_trial_batch(tasks, artifacts=store)
        assert (store.session_hits, store.session_misses) == (0, 3)
        assert store.stats()["entries"] == 3
        for task, (evaluation, model) in zip(tasks, outputs):
            ref_eval, ref_model = evaluate_trial(task)
            assert pickle.dumps(evaluation) == pickle.dumps(ref_eval)
            assert model_bytes(model) == model_bytes(ref_model)

    def test_task_groups_driver_preserves_order(self):
        tasks = [make_task(trial_id=i, config_seed=3) for i in range(3)]
        workload = get_workload("IC")
        train_set, eval_set = workload.load(seed=tasks[0].seed,
                                            samples=tasks[0].samples)
        outputs = evaluate_task_groups(tasks, train_set, eval_set, 2)
        assert [o[0].trial_id for o in outputs] == [0, 1, 2]


class TestDatasetCacheMeters:
    def test_hit_miss_eviction_counters(self):
        model_server._DATASET_CACHE.clear()
        before = model_server.dataset_cache_stats()
        task = make_task(seed=91, samples=64)
        model_server.load_task_datasets(task)
        model_server.load_task_datasets(task)
        after = model_server.dataset_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["size"] >= 1

    def test_cache_cap_env_override(self, monkeypatch):
        model_server._DATASET_CACHE.clear()
        monkeypatch.setenv("REPRO_DATASET_CACHE_MAX", "2")
        before = model_server.dataset_cache_stats()["evictions"]
        for seed in range(4):
            model_server.load_task_datasets(
                make_task(seed=200 + seed, samples=64)
            )
        assert len(model_server._DATASET_CACHE) == 2
        assert model_server.dataset_cache_stats()["evictions"] == before + 2


class TestQueueGroupLeasing:
    def make_queue(self):
        from repro.service.queue import JobQueue

        database = TrialDatabase()
        return JobQueue(database)

    def test_peek_queued_does_not_claim(self):
        queue = self.make_queue()
        for trial_id in range(3):
            queue.enqueue("s", trial_id, "{}")
        peeked = queue.peek_queued(session_id="s")
        assert [job.trial_id for job in peeked] == [0, 1, 2]
        assert all(job.attempts == 0 for job in peeked)
        # Still leasable afterwards: nothing was claimed.
        assert queue.lease("w") is not None

    def test_lease_by_id_claims_exactly_one(self):
        queue = self.make_queue()
        for trial_id in range(2):
            queue.enqueue("s", trial_id, "{}")
        target = queue.peek_queued(session_id="s")[1]
        job = queue.lease_by_id(target.id, "w")
        assert job is not None and job.trial_id == 1
        assert queue.lease_by_id(target.id, "w") is None  # already leased
        remaining = queue.lease("w2")
        assert remaining.trial_id == 0

    def test_lease_by_id_fresh_only_skips_retries(self):
        import time

        queue = self.make_queue()
        queue.enqueue("s", 0, "{}")
        job = queue.lease("w")
        queue.fail(job.id, "w", "boom")  # requeued with attempts=1
        later = time.time() + 3600.0  # past the retry backoff
        retry = queue.peek_queued(session_id="s", now=later)[0]
        assert retry.attempts == 1
        assert queue.lease_by_id(
            retry.id, "w", fresh_only=True, now=later
        ) is None
        assert queue.lease_by_id(retry.id, "w", now=later) is not None


class TestWorkerGrouping:
    def run_session(self, trial_batch, max_trials=8):
        from repro.service import SessionSpec, SessionCoordinator
        from repro.service.sessions import SessionStore

        database = TrialDatabase()
        spec = SessionSpec(
            workload="IC", seed=7, samples=SAMPLES,
            max_trials=max_trials, trial_batch=trial_batch,
        )
        session_id = SessionStore(database).create(spec)
        coordinator = SessionCoordinator(
            database, session_id, workers=0, poll_interval_s=0.01
        )
        result = coordinator.run()
        record = SessionStore(database).get(session_id)
        return result, record, coordinator

    def test_service_batched_equals_serial(self):
        from repro.fleet.registry import MachineRegistry

        serial_result, serial_record, serial_coordinator = (
            self.run_session(1)
        )
        batched_result, batched_record, coordinator = self.run_session(8)
        assert (serial_result.best_accuracy
                == batched_result.best_accuracy)
        assert (serial_result.best_configuration
                == batched_result.best_configuration)
        assert (serial_result.tuning_runtime_s
                == batched_result.tuning_runtime_s)
        assert (serial_record.result["best_accuracy"]
                == batched_record.result["best_accuracy"])
        for a, b in zip(serial_result.trials, batched_result.trials):
            assert a.trial_id == b.trial_id
            assert a.accuracy == b.accuracy
            assert a.score == b.score
        # A trial's stored bytes are a function of its content, not of
        # how it ran: same key, same checksum, stacked or alone.
        assert MachineRegistry(coordinator.database).stats()["batch.groups"]
        serial_sums = self.artifact_checksums(serial_coordinator)
        assert len(serial_sums) == len(serial_result.trials)
        assert self.artifact_checksums(coordinator) == serial_sums

    @staticmethod
    def artifact_checksums(coordinator):
        return dict(coordinator.database.execute(
            "SELECT key, checksum FROM artifacts"
        ).fetchall())

    def test_worker_occupancy_meters(self):
        from repro.fleet.registry import MachineRegistry

        _, record, coordinator = self.run_session(8)
        # Fleet counters persist in the database the coordinator used.
        registry = MachineRegistry(coordinator.database)
        stats = registry.stats()
        grouped = stats.get("batch.groups", 0)
        fallback = stats.get("batch.serial_fallback", 0)
        assert grouped + fallback > 0
        if grouped:
            assert stats.get("batch.members", 0) >= 2
            assert stats.get("batch.max_k", 0) >= 2


class TestInProcessRun:
    def test_run_batched_equals_serial_run(self):
        def run(trial_batch):
            workload = get_workload("IC")
            server = ModelTuningServer(
                workload=workload, algorithm="sha", seed=5,
                samples=SAMPLES, max_trials=8, trial_batch=trial_batch,
            )
            return server.run()

        serial = run(1)
        batched = run(8)
        assert serial.best_accuracy == batched.best_accuracy
        assert serial.best_configuration == batched.best_configuration
        assert serial.tuning_runtime_s == batched.tuning_runtime_s
        assert serial.tuning_energy_j == batched.tuning_energy_j
        for a, b in zip(serial.trials, batched.trials):
            assert a.trial_id == b.trial_id
            assert a.accuracy == b.accuracy
            assert a.score == b.score

    def test_adaptive_searcher_keeps_serial_path(self):
        """Plain TPE must observe each report before the next suggest,
        so the batched wave driver refuses it (wave_safe gate)."""
        from repro.search import build_scheduler
        from repro.workloads import get_workload

        workload = get_workload("IC")
        space = workload.training_space(include_system=True)
        tpe = build_scheduler("tpe", space, num_trials=4, seed=1)
        assert not tpe.wave_safe
        sha = build_scheduler("sha", space, seed=1)
        assert sha.wave_safe
