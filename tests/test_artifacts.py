"""Trial artifact cache: exact memoization + cross-rung warm-resume.

Covers the cache's two contracts:

* **bit-identity** — a cache hit returns the stored
  :class:`TrialEvaluation` and model byte-for-byte equal to a fresh
  evaluation, for any worker count, with or without fault injection;
* **determinism** — warm-resumed sessions are bit-identical across runs
  at a fixed seed, and with ``--reuse-checkpoints`` off a session is
  bit-identical whether or not a store is attached.
"""

import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EdgeTune, faults
from repro.artifacts import (
    ArtifactStore,
    artifact_checksum,
    backend_fingerprint,
    pack_velocity,
    trial_key,
    unpack_velocity,
)
from repro.budgets import MultiBudget
from repro.core import ModelTuningServer
import repro.core.model_server as model_server
from repro.core.model_server import (
    InProcess, TrialTask, drive, evaluate_trial,
)
from repro.errors import ConfigurationError
from repro.nn.optimizers import SGD, Adam
from repro.nn.serialize import state_dict
from repro.rng import make_rng
from repro.search.successive_halving import SuccessiveHalvingScheduler
from repro.search.random_search import RandomSearcher
from repro.storage import TrialDatabase
from repro.workloads import get_workload
from tests.test_session_cost import counting

SAMPLES = 160


def make_task(trial_id=0, seed=11, epochs=1, data_fraction=0.5,
              config_seed=3, **overrides):
    workload = get_workload("IC")
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
        workload_id="IC",
        seed=seed,
        samples=SAMPLES,
    )
    fields.update(overrides)
    return TrialTask(**fields)


def model_bytes(model):
    """Canonical byte serialization of a model's weights."""
    return pickle.dumps(
        {name: value for name, value in sorted(state_dict(model).items())}
    )


def tune_result(reuse, db=None, seed=7, max_trials=8):
    database = TrialDatabase(db) if db else None
    tuner = EdgeTune(workload="IC", seed=seed, samples=200,
                     max_trials=max_trials, reuse_checkpoints=reuse,
                     database=database)
    try:
        return tuner.tune()
    finally:
        if database is not None:
            database.close()


def result_signature(result):
    return (
        result.best_accuracy,
        result.best_score,
        result.best_configuration,
        [(r.trial_id, r.accuracy, r.score, r.epochs, r.data_fraction)
         for r in result.trials],
        result.tuning_runtime_s,
        result.tuning_energy_j,
    )


class TestTrialKey:
    def test_stable_for_equal_tasks(self):
        fp = backend_fingerprint()
        assert trial_key(make_task(), fp) == trial_key(make_task(), fp)

    @pytest.mark.parametrize("change", [
        dict(trial_id=1),
        dict(seed=12),
        dict(epochs=2),
        dict(data_fraction=0.25),
        dict(samples=SAMPLES + 1),
        dict(config_seed=4),
        dict(reuse=True),
        dict(reuse=True, parent_key="abc", start_epoch=1),
    ])
    def test_sensitive_to_trial_content(self, change):
        fp = backend_fingerprint()
        assert trial_key(make_task(), fp) != trial_key(
            make_task(**change), fp
        )

    def test_ignores_scheduler_position(self):
        """bracket/rung/fidelity locate a trial, they don't change bits."""
        fp = backend_fingerprint()
        assert trial_key(make_task(), fp) == trial_key(
            make_task(fidelity=4, bracket=2, rung=3), fp
        )

    def test_fault_plan_changes_fingerprint(self):
        clean = backend_fingerprint()
        faults.configure("seed=13;trainer.nan=0.5")
        try:
            assert backend_fingerprint() != clean
        finally:
            faults.configure(None)

    def test_sites_around_a_trial_leave_the_fingerprint_alone(self):
        """A fleet host started under ``worker.fail`` trains the same
        bits as its hub: its artifacts must keep their keys."""
        clean = backend_fingerprint()
        faults.configure(
            "seed=13;worker.fail=0.5;worker.crash=0.1;fleet.partition=0.2",
            propagate=False,
        )
        try:
            assert backend_fingerprint() == clean
            faults.configure(
                "seed=13;worker.fail=0.5;trainer.nan=0.5", propagate=False
            )
            only_nan = backend_fingerprint()
            faults.configure("seed=13;trainer.nan=0.5", propagate=False)
            assert backend_fingerprint() == only_nan != clean
        finally:
            faults.configure(None)

    def test_key_of_a_fixed_task_is_pinned(self, monkeypatch):
        """Every stored artifact is addressed by this digest: an edit to
        ``trial_key`` or ``backend_fingerprint`` that moves it orphans
        every store.  numpy's version is part of the fingerprint, so it
        is fixed here to keep the pin the same on every machine."""
        faults.reset()
        monkeypatch.setattr(np, "__version__", "2.4.6")
        task = TrialTask(
            trial_id=5, values={"batch_size": 32, "cores": 2, "lr": 0.05},
            fidelity=2, bracket=1, rung=1, epochs=2, data_fraction=0.5,
            workload_id="IC", seed=11, samples=160,
        )
        assert trial_key(task) == "6cc80fbbbe5a22046eb8b278b66defb758c954c1"


class TestResumeStatePacking:
    def test_round_trip(self):
        rng = make_rng(5)
        velocity = [rng.normal(size=(4, 3)), rng.normal(size=(7,))]
        blob = pack_velocity(velocity)
        restored = unpack_velocity(blob)
        assert len(restored) == 2
        for got, want in zip(restored, velocity):
            np.testing.assert_array_equal(got, want)

    def test_empty_velocity(self):
        assert unpack_velocity(pack_velocity([])) == []


class TestSGDState:
    def _sgd(self):
        from repro.nn.module import ParamTensor

        params = [ParamTensor("w", np.zeros((3, 2))),
                  ParamTensor("b", np.zeros(2))]
        return SGD(params, lr=0.1, momentum=0.9)

    def test_round_trip(self):
        a, b = self._sgd(), self._sgd()
        a._velocity[0][...] = 1.5
        a._velocity[1][...] = -2.0
        b.load_state_dict(a.state_dict())
        for got, want in zip(b._velocity, a._velocity):
            np.testing.assert_array_equal(got, want)

    def test_state_dict_is_a_copy(self):
        sgd = self._sgd()
        snapshot = sgd.state_dict()
        sgd._velocity[0][...] = 9.0
        assert snapshot["velocity"][0].max() == 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            self._sgd().load_state_dict({"velocity": [np.zeros((3, 2))]})

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            self._sgd().load_state_dict(
                {"velocity": [np.zeros((2, 3)), np.zeros(2)]}
            )


class TestArtifactStore:
    def test_put_get_round_trip_memory(self):
        store = ArtifactStore(TrialDatabase())
        store.put("k1", b"payload", workload="IC", trial_id=0)
        assert store.get("k1") == b"payload"
        assert store.get("missing") is None
        assert store.session_hits == 1
        assert store.session_misses == 1

    def test_put_is_idempotent(self):
        store = ArtifactStore(TrialDatabase())
        store.put("k1", b"payload")
        store.put("k1", b"other")  # first writer wins
        assert store.get("k1") == b"payload"
        assert store.stats()["entries"] == 1

    def test_file_backed_sidecar(self, tmp_path):
        db = TrialDatabase(str(tmp_path / "t.sqlite"))
        store = ArtifactStore(db)
        store.put("k1", b"payload")
        assert os.path.isfile(
            os.path.join(store.blob_dir, "k1.bin")
        )
        assert store.get("k1") == b"payload"
        db.close()

    def test_missing_sidecar_is_a_miss_and_drops_row(self, tmp_path):
        db = TrialDatabase(str(tmp_path / "t.sqlite"))
        store = ArtifactStore(db)
        store.put("k1", b"payload")
        os.unlink(os.path.join(store.blob_dir, "k1.bin"))
        assert store.get("k1") is None
        assert store.stats()["entries"] == 0
        db.close()

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "t.sqlite")
        db = TrialDatabase(path)
        ArtifactStore(db).put("k1", b"payload")
        db.close()
        reopened = TrialDatabase(path)
        assert ArtifactStore(reopened).get("k1") == b"payload"
        reopened.close()

    def test_stats_accounting(self):
        store = ArtifactStore(TrialDatabase())
        store.put("k1", b"aaaa")
        store.put("k2", b"bb")
        store.get("k1")
        store.get("k1")
        stats = store.stats()
        assert stats == {"entries": 2, "bytes": 6, "hits": 2, "misses": 2,
                         "quarantined": 0}

    def test_gc_age(self):
        store = ArtifactStore(TrialDatabase())
        store.put("old", b"x" * 10)
        store.put("new", b"y")
        store.database.execute(
            "UPDATE artifacts SET created_at = created_at - 1000 "
            "WHERE key = 'old'"
        )
        pruned = store.gc(max_age_s=500)
        assert pruned["artifacts_deleted"] == 1
        assert pruned["bytes_freed"] == 10
        assert store.get("old") is None
        assert store.get("new") == b"y"

    def test_gc_recent_hit_keeps_entry(self):
        store = ArtifactStore(TrialDatabase())
        store.put("hot", b"x")
        store.database.execute(
            "UPDATE artifacts SET created_at = created_at - 1000"
        )
        store.get("hot")  # refreshes last_hit_at
        assert store.gc(max_age_s=500)["artifacts_deleted"] == 0

    def test_gc_size_cap_evicts_lru(self):
        store = ArtifactStore(TrialDatabase())
        store.put("a", b"x" * 60)
        store.put("b", b"y" * 60)
        store.database.execute(
            "UPDATE artifacts SET created_at = created_at - 10 "
            "WHERE key = 'a'"
        )
        store.get("b")
        pruned = store.gc(max_bytes=100)
        assert pruned["artifacts_deleted"] == 1
        assert store.get("a") is None
        assert store.get("b") is not None

    def test_gc_removes_orphans(self, tmp_path):
        db = TrialDatabase(str(tmp_path / "t.sqlite"))
        store = ArtifactStore(db)
        store.put("k1", b"payload")
        os.makedirs(store.blob_dir, exist_ok=True)
        for name in ("dead.bin", "k1.tmp-stale"):
            with open(os.path.join(store.blob_dir, name), "wb") as fh:
                fh.write(b"junk")
        pruned = store.gc()
        assert pruned["orphans_removed"] == 2
        assert store.get("k1") == b"payload"
        db.close()


class TestExactMemoization:
    def _fresh_and_cached(self, store, **task_kwargs):
        task = make_task(**task_kwargs)
        fresh_eval, fresh_model = evaluate_trial(task, artifacts=store)
        cached_eval, cached_model = evaluate_trial(task, artifacts=store)
        return fresh_eval, fresh_model, cached_eval, cached_model

    def test_hit_is_bit_identical(self):
        store = ArtifactStore(TrialDatabase())
        fe, fm, ce, cm = self._fresh_and_cached(store)
        assert pickle.dumps(ce) == pickle.dumps(fe)
        assert model_bytes(cm) == model_bytes(fm)
        assert store.session_hits == 1
        assert store.session_misses == 1

    def test_hit_matches_uncached_run(self):
        """The stored evaluation equals what no cache at all produces."""
        store = ArtifactStore(TrialDatabase())
        task = make_task()
        evaluate_trial(task, artifacts=store)
        cached_eval, cached_model = evaluate_trial(task, artifacts=store)
        bare_eval, bare_model = evaluate_trial(task, artifacts=None)
        assert pickle.dumps(cached_eval) == pickle.dumps(bare_eval)
        assert model_bytes(cached_model) == model_bytes(bare_model)

    @settings(max_examples=4, deadline=None)
    @given(config_seed=st.integers(min_value=0, max_value=40),
           trial_id=st.integers(min_value=0, max_value=6),
           epochs=st.integers(min_value=1, max_value=2))
    def test_hit_bit_identical_property(self, config_seed, trial_id,
                                        epochs):
        store = ArtifactStore(TrialDatabase())
        fe, fm, ce, cm = self._fresh_and_cached(
            store, config_seed=config_seed, trial_id=trial_id,
            epochs=epochs,
        )
        assert pickle.dumps(ce) == pickle.dumps(fe)
        assert model_bytes(cm) == model_bytes(fm)

    def test_hit_bit_identical_under_faults(self):
        """A trainer.nan fault is part of the stored result — and the
        fault plan is part of the key, so clean/faulty never mix."""
        clean_store = ArtifactStore(TrialDatabase())
        task = make_task()
        clean_eval, _ = evaluate_trial(task, artifacts=clean_store)
        faults.configure("seed=13;trainer.nan=1.0")
        try:
            store = ArtifactStore(TrialDatabase())
            fresh_eval, _ = evaluate_trial(task, artifacts=store)
            cached_eval, _ = evaluate_trial(task, artifacts=store)
            assert fresh_eval.diverged
            assert pickle.dumps(cached_eval) == pickle.dumps(fresh_eval)
            faulty_key = trial_key(task)
        finally:
            faults.configure(None)
        assert trial_key(task) != faulty_key
        assert not clean_eval.diverged

    def test_file_store_shared_across_instances(self, tmp_path):
        """Two store instances over one file (= two worker processes)
        share entries; the second gets a hit for the first's miss."""
        path = str(tmp_path / "t.sqlite")
        db_a, db_b = TrialDatabase(path), TrialDatabase(path)
        task = make_task()
        eval_a, model_a = evaluate_trial(
            task, artifacts=ArtifactStore(db_a)
        )
        store_b = ArtifactStore(db_b)
        eval_b, model_b = evaluate_trial(task, artifacts=store_b)
        assert store_b.session_hits == 1
        assert pickle.dumps(eval_b) == pickle.dumps(eval_a)
        assert model_bytes(model_b) == model_bytes(model_a)
        db_a.close()
        db_b.close()


class TestWarmResume:
    def test_sha_promotion_carries_lineage(self):
        workload = get_workload("IC")
        space = workload.training_space(include_system=True)
        scheduler = SuccessiveHalvingScheduler(
            space, RandomSearcher(space, seed=5), num_configs=4,
            eta=2, min_fidelity=1, max_fidelity=4, seed=5,
        )
        first_rung = []
        while True:
            trial = scheduler.next_trial()
            if trial is None:
                break
            assert trial.parent_id is None
            first_rung.append(trial)
        from repro.search.base import TrialReport

        for rank, trial in enumerate(first_rung):
            scheduler.report(TrialReport(trial=trial, score=float(rank)))
        promoted = scheduler.next_trial()
        assert promoted.parent_id == first_rung[0].trial_id
        assert promoted.parent_fidelity == first_rung[0].fidelity
        assert promoted.configuration == first_rung[0].configuration

    def test_warm_child_trains_incrementally(self):
        """A resumed child is charged only the incremental epochs."""
        store = ArtifactStore(TrialDatabase())
        parent = make_task(trial_id=0, epochs=1, data_fraction=0.25,
                           reuse=True)
        evaluate_trial(parent, artifacts=store)
        parent_key = trial_key(parent)
        child_cold = make_task(trial_id=0, epochs=2, data_fraction=0.5,
                               reuse=True)
        child_warm = make_task(trial_id=0, epochs=2, data_fraction=0.5,
                               reuse=True, parent_key=parent_key,
                               start_epoch=1)
        cold_eval, _ = evaluate_trial(child_cold, artifacts=store)
        warm_eval, _ = evaluate_trial(child_warm, artifacts=store)
        assert 0 < warm_eval.samples_seen < cold_eval.samples_seen
        assert warm_eval.train_total_flops < cold_eval.train_total_flops

    def test_missing_parent_falls_back_to_cold(self):
        """A gc'd parent degrades to a cold run keyed without lineage —
        bit-identical to the cold child."""
        store = ArtifactStore(TrialDatabase())
        child_cold = make_task(trial_id=0, epochs=2, data_fraction=0.5,
                               reuse=True)
        cold_eval, cold_model = evaluate_trial(
            child_cold, artifacts=store
        )
        orphan = make_task(trial_id=0, epochs=2, data_fraction=0.5,
                           reuse=True, parent_key="deadbeef" * 5,
                           start_epoch=1)
        fallback_eval, fallback_model = evaluate_trial(
            orphan, artifacts=store
        )
        assert pickle.dumps(fallback_eval) == pickle.dumps(cold_eval)
        assert model_bytes(fallback_model) == model_bytes(cold_model)

    def test_warm_session_deterministic(self):
        a = tune_result(reuse=True)
        b = tune_result(reuse=True)
        assert result_signature(a) == result_signature(b)

    def test_warm_session_cheaper_than_cold(self):
        cold = tune_result(reuse=False, max_trials=None)
        warm = tune_result(reuse=True, max_trials=None)
        assert warm.tuning_runtime_s < cold.tuning_runtime_s
        assert warm.tuning_energy_j < cold.tuning_energy_j

    def test_warm_and_memo_sessions_do_less_work(self, tmp_path,
                                                 monkeypatch):
        """One IC BOHB bracket (31 trials) cold, warm (a fresh store under
        ``reuse_checkpoints``) and memo (the same store again), counted in
        optimizer steps and trainings rather than timed: at this size the
        warm run is no faster in wall time than the cold one, yet does
        about half its training (262 vs 138 steps; the analytic budget
        ratio is 1.92x)."""
        counts = {"steps": 0, "trainings": 0}
        counting(monkeypatch, SGD, "step", counts, "steps")
        counting(monkeypatch, Adam, "step", counts, "steps")
        counting(monkeypatch, model_server, "train_model", counts,
                 "trainings")

        def session(database=None):
            counts.update(steps=0, trainings=0)
            result = ModelTuningServer(
                workload=get_workload("IC"), algorithm="bohb",
                database=database, seed=7, samples=240,
                max_trials=31,  # exactly the first (widest) BOHB bracket
                reuse_checkpoints=database is not None,
            ).run()
            assert len(result.trials) == 31
            return dict(counts)

        cold = session()
        path = str(tmp_path / "artifacts.sqlite")
        with TrialDatabase(path) as database:
            warm = session(database)
        with TrialDatabase(path) as database:
            memo = session(database)
        assert cold["trainings"] == warm["trainings"] == 31
        assert warm["steps"] * 1.5 <= cold["steps"], (warm, cold)
        assert memo == {"steps": 0, "trainings": 0}

    def test_flag_off_matches_storeless_run(self, tmp_path):
        """Attaching a store without --reuse-checkpoints must not change
        a single bit of the session result."""
        bare = tune_result(reuse=False)
        stored = tune_result(reuse=False,
                             db=str(tmp_path / "t.sqlite"))
        assert result_signature(stored) == result_signature(bare)

    def test_warm_resume_state_chains_through_session(self):
        """Under reuse, every trial stores resume state so the next rung
        can chain from it, and promoted tasks carry their parent key."""
        database = TrialDatabase()
        server = ModelTuningServer(
            workload=get_workload("IC"),
            algorithm="sha",
            budget=MultiBudget(min_epochs=1, max_epochs=4,
                               min_fraction=0.25),
            database=database,
            seed=11,
            samples=SAMPLES,
            reuse_checkpoints=True,
        )
        state = server.prepare()
        tasks = []
        make_task = server.make_task

        def recording(trial, state=None):
            tasks.append(make_task(trial, state))
            return tasks[-1]

        server.make_task = recording
        drive(server, state, InProcess(server))
        warm_tasks = [task for task in tasks if task.parent_key is not None]
        assert warm_tasks, "no promotion carried a parent key"
        assert all(t.start_epoch > 0 for t in warm_tasks)
        assert len(state.artifact_keys) == len(state.records)

    def test_gc_converges_after_forced_cold_fallback(self, tmp_path):
        """S3: a gc'd/damaged parent forces the child onto the re-keyed
        cold path; afterwards the store must reach a fixed point — a
        second ``gc`` pass deletes nothing and ``scrub`` finds the store
        clean (no perpetual orphan left behind by the fallback)."""
        database = TrialDatabase(str(tmp_path / "artifacts.sqlite"))
        store = ArtifactStore(database)
        parent = make_task(trial_id=0, epochs=1, data_fraction=0.25,
                           reuse=True)
        evaluate_trial(parent, artifacts=store)
        parent_key = trial_key(parent)
        # The parent's sidecar vanishes out from under the row (disk
        # cleanup, partial restore, ...).
        blob_path = store._blob_path(parent_key)
        assert os.path.exists(blob_path)
        os.remove(blob_path)
        # The child's warm lookup misses, drops the dangling row, and
        # falls back to the cold (lineage-free) evaluation, which is
        # bit-identical to a child that never had a parent.
        child = make_task(trial_id=0, epochs=2, data_fraction=0.5,
                          reuse=True, parent_key=parent_key, start_epoch=1)
        cold = make_task(trial_id=0, epochs=2, data_fraction=0.5,
                         reuse=True)
        fallback_eval, _ = evaluate_trial(child, artifacts=store)
        cold_eval, _ = evaluate_trial(cold, artifacts=store)
        assert pickle.dumps(fallback_eval) == pickle.dumps(cold_eval)
        # gc converges: whatever the first pass collects, the second
        # pass must find nothing left to do.
        store.gc()
        second = store.gc()
        assert second["artifacts_deleted"] == 0
        assert second["orphans_removed"] == 0
        assert second["bytes_freed"] == 0
        report = store.scrub(repair=True)
        assert report["quarantined"] == 0
        assert report["missing"] == 0
        assert report["orphans_removed"] == 0
        # And the surviving entries still verify end to end.
        assert report["verified"] == report["scanned"] > 0
        database.close()


class TestNestedSubsets:
    def test_prefix_nesting_with_order_seed(self):
        from repro.datasets.registry import build_dataset

        dataset = build_dataset("cifar10", samples=200, seed=9)
        assert dataset.order_seed is not None
        small = dataset.subset(0.25)
        large = dataset.subset(0.5)
        np.testing.assert_array_equal(
            small.features, large.features[: len(small)]
        )
        np.testing.assert_array_equal(
            small.targets, large.targets[: len(small)]
        )

    def test_workload_split_carries_order_seed(self):
        train, evalset = get_workload("IC").load(seed=11, samples=SAMPLES)
        assert train.order_seed is not None
        assert evalset.order_seed is not None
        assert train.order_seed != evalset.order_seed

    def test_explicit_rng_bypasses_canonical_order(self):
        from repro.datasets.registry import build_dataset

        dataset = build_dataset("cifar10", samples=200, seed=9)
        a = dataset.subset(0.25, rng=123)
        b = dataset.subset(0.25, rng=123)
        np.testing.assert_array_equal(a.features, b.features)


class TestDatasetMemo:
    def test_load_task_datasets_memoized(self):
        from repro.core import model_server

        model_server._DATASET_CACHE.clear()
        task = make_task()
        first = model_server.load_task_datasets(task)
        second = model_server.load_task_datasets(task)
        assert first[0] is second[0] and first[1] is second[1]

    def test_memo_capped(self):
        from repro.core import model_server

        model_server._DATASET_CACHE.clear()
        for seed in range(model_server._DATASET_CACHE_MAX + 2):
            model_server.load_task_datasets(
                make_task(seed=seed, samples=64)
            )
        assert (len(model_server._DATASET_CACHE)
                == model_server._DATASET_CACHE_MAX)


class TestDatasetCacheMeters:
    def test_hit_miss_eviction_counters(self):
        from repro.core import model_server

        model_server._DATASET_CACHE.clear()
        before = model_server.dataset_cache_stats()
        task = make_task(seed=91, samples=64)
        model_server.load_task_datasets(task)
        model_server.load_task_datasets(task)
        after = model_server.dataset_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["size"] >= 1

    def test_concurrent_publishes_send_every_load_once(self, tmp_path):
        """A worker's main loop and its job heartbeat thread both publish
        the counters: no delta may be lost or sent twice."""
        import sys
        import threading

        from repro.core import model_server
        from repro.service.worker import TrialWorker

        path = str(tmp_path / "w.sqlite")
        worker = TrialWorker(path, worker_id="w")
        loads = 300

        def load_and_publish():
            for _ in range(loads):
                model_server._DATASET_CACHE_COUNTERS["hits"] += 1
                worker._publish_dataset_cache_stats()

        def publish():
            for _ in range(loads):
                worker._publish_dataset_cache_stats()

        threads = [threading.Thread(target=load_and_publish)] + [
            threading.Thread(target=publish) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        worker.close()
        with TrialDatabase(path) as database:
            stats = database.stats()
        assert stats["dataset_cache.hits"] == loads


class TestCrashSurvival:
    def test_artifacts_survive_sigkill(self, tmp_path):
        """Artifacts published before a kill -9 are all replayable after:
        the second pass over the same tasks is 100% cache hits and
        bit-identical to a fresh evaluation."""
        db_path = str(tmp_path / "t.sqlite")
        script = f"""
import os, signal, sys
sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")!r})
from test_artifacts import make_task
from repro.artifacts import ArtifactStore
from repro.core.model_server import evaluate_trial
from repro.storage import TrialDatabase

store = ArtifactStore(TrialDatabase({db_path!r}))
for trial_id in range(3):
    evaluate_trial(make_task(trial_id=trial_id), artifacts=store)
os.kill(os.getpid(), signal.SIGKILL)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))), "src"),
                os.path.dirname(os.path.abspath(__file__)),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        database = TrialDatabase(db_path)
        store = ArtifactStore(database)
        assert store.stats()["entries"] == 3
        for trial_id in range(3):
            task = make_task(trial_id=trial_id)
            cached_eval, cached_model = evaluate_trial(
                task, artifacts=store
            )
            fresh_eval, fresh_model = evaluate_trial(task, artifacts=None)
            assert pickle.dumps(cached_eval) == pickle.dumps(fresh_eval)
            assert model_bytes(cached_model) == model_bytes(fresh_model)
        assert store.session_hits == 3
        assert store.session_misses == 0
        database.close()


class TestIntegrity:
    """End-to-end artifact integrity: every blob is checksummed on
    ``put`` and verified on every read; a mismatch quarantines the blob
    and degrades to a deterministic cold re-run — never a wrong result.
    ``scrub`` sweeps the whole store the same way."""

    def _store(self, tmp_path):
        database = TrialDatabase(str(tmp_path / "t.sqlite"))
        return database, ArtifactStore(database)

    def test_put_stores_checksum(self, tmp_path):
        _, store = self._store(tmp_path)
        store.put("k1", b"payload-bytes")
        row = store.database.execute(
            "SELECT checksum FROM artifacts WHERE key = 'k1'"
        ).fetchone()
        assert row[0] == artifact_checksum(b"payload-bytes")
        assert store.get("k1") == b"payload-bytes"

    def test_corrupt_sidecar_is_quarantined_on_get(self, tmp_path):
        _, store = self._store(tmp_path)
        store.put("k1", b"good-bytes")
        path = os.path.join(store.blob_dir, "k1.bin")
        with open(path, "wb") as handle:
            handle.write(b"bad-bytes!")
        assert store.get("k1") is None  # a miss, never wrong bytes
        assert store.database.execute(
            "SELECT 1 FROM artifacts WHERE key = 'k1'"
        ).fetchone() is None
        # The evidence moves to quarantine/ instead of being destroyed.
        assert not os.path.exists(path)
        assert os.path.exists(
            os.path.join(store.blob_dir, "quarantine", "k1.bin")
        )
        assert store.stats()["quarantined"] == 1

    def test_corrupt_inline_blob_is_quarantined_on_get(self):
        store = ArtifactStore(TrialDatabase())
        store.put("k1", b"good-bytes")
        store.database.execute(
            "UPDATE artifacts SET blob = ? WHERE key = 'k1'",
            (b"evil-bytes",),
        )
        assert store.get("k1") is None
        assert store.stats()["quarantined"] == 1

    def test_corrupt_blob_fault_site(self):
        """``artifact.corrupt_blob`` flips bytes between the store and
        the reader; checksum verification must catch the flip."""
        store = ArtifactStore(TrialDatabase())
        store.put("k1", b"payload")
        store.put("k2", b"payload-2")
        faults.configure(
            "seed=1;artifact.corrupt_blob=1.0@k1", propagate=False
        )
        try:
            assert store.get("k1") is None
            assert store.get("k2") == b"payload-2"  # other keys untouched
        finally:
            faults.configure(None)
        assert store.stats()["quarantined"] == 1

    def test_scrub_repairs_the_store(self, tmp_path):
        _, store = self._store(tmp_path)
        for key in ("good", "gone", "hurt", "old"):
            store.put(key, key.encode() * 3)
        # "old": a pre-checksum row (migration backfill case).
        store.database.execute(
            "UPDATE artifacts SET checksum = NULL WHERE key = 'old'"
        )
        # "hurt": the bytes on disk are not the bytes that were written.
        with open(os.path.join(store.blob_dir, "hurt.bin"), "wb") as handle:
            handle.write(b"flipped")
        # "gone": sidecar deleted underneath the row.
        os.remove(os.path.join(store.blob_dir, "gone.bin"))
        # A sidecar with no row at all.
        with open(os.path.join(store.blob_dir, "orphan.bin"), "wb") as handle:
            handle.write(b"stray")
        assert store.scrub() == {
            "scanned": 4, "verified": 2, "quarantined": 1,
            "missing": 1, "repaired": 1, "orphans_removed": 1,
        }
        # The backfilled checksum is the real digest...
        row = store.database.execute(
            "SELECT checksum FROM artifacts WHERE key = 'old'"
        ).fetchone()
        assert row[0] == artifact_checksum(b"oldoldold")
        # ...and a second sweep is clean (quarantine/ is not an orphan).
        assert store.scrub() == {
            "scanned": 2, "verified": 2, "quarantined": 0,
            "missing": 0, "repaired": 0, "orphans_removed": 0,
        }

    def test_scrub_dry_run_reports_without_touching(self, tmp_path):
        _, store = self._store(tmp_path)
        store.put("hurt", b"payload")
        with open(os.path.join(store.blob_dir, "hurt.bin"), "wb") as handle:
            handle.write(b"flipped")
        report = store.scrub(repair=False)
        assert report["quarantined"] == 1 and report["orphans_removed"] == 0
        # Dry run: the row survives and nothing moved to quarantine/.
        assert store.database.execute(
            "SELECT 1 FROM artifacts WHERE key = 'hurt'"
        ).fetchone() is not None
        assert not os.path.isdir(os.path.join(store.blob_dir, "quarantine"))
        assert store.stats()["quarantined"] == 0

    def test_corrupted_blob_session_stays_bit_identical(self, tmp_path):
        """The headline guarantee: a flipped bit in the cache degrades to
        a cold re-run of the affected trial, and the tuning outcome stays
        bit-identical to the clean run.  (Runtime/energy meters honestly
        reflect the extra cold compute — see
        ``test_warm_session_cheaper_than_cold`` — so they are excluded.)"""
        db_path = str(tmp_path / "t.sqlite")
        # Outcome = everything but the runtime/energy meters.
        clean = result_signature(tune_result(True, db=db_path))[:4]
        database = TrialDatabase(db_path)
        store = ArtifactStore(database)
        key = database.execute(
            "SELECT key FROM artifacts ORDER BY key LIMIT 1"
        ).fetchone()[0]
        with open(os.path.join(store.blob_dir, key + ".bin"), "r+b") as blob:
            first = blob.read(1)
            blob.seek(0)
            blob.write(bytes([first[0] ^ 0xFF]))
        database.close()
        assert result_signature(tune_result(True, db=db_path))[:4] == clean
        database = TrialDatabase(db_path)
        assert ArtifactStore(database).stats()["quarantined"] >= 1
        database.close()
