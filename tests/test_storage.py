"""Tests for the persistent trial database and inference cache."""

import os
import sqlite3
import threading
import time

import pytest

from repro import clock
from repro.errors import StorageError
from repro.storage import StoredInferenceResult, TrialDatabase
from repro.storage.database import (
    BUSY_TIMEOUT_MS, LOCK_WAIT_FIRST_S, LOCK_WAIT_STEP_S,
)
from tests.clocks import frozen_clock, recording_clock  # noqa: F401


def stored(key="arch-a", device="armv7", objective="inference-energy"):
    return StoredInferenceResult(
        architecture_key=key,
        device=device,
        objective=objective,
        configuration={"inference_batch_size": 8, "cores": 2,
                       "frequency_ghz": 1.2},
        batch_latency_s=0.5,
        throughput_sps=16.0,
        energy_per_sample_j=0.2,
        power_w=3.2,
        tuning_runtime_s=42.0,
        tuning_energy_j=1470.0,
    )


class TestTrials:
    def test_record_and_fetch(self):
        db = TrialDatabase()
        db.record_trial("exp", 0, {"x": 1}, 1, 2, 0.5, 0.8, 1.2, 100.0, 500.0)
        rows = db.trials_for("exp")
        assert len(rows) == 1
        assert rows[0]["configuration"] == {"x": 1}
        assert rows[0]["accuracy"] == 0.8

    def test_experiments_isolated(self):
        db = TrialDatabase()
        db.record_trial("a", 0, {}, 1, 1, 1.0, 0.5, 1.0, 1.0, 1.0)
        db.record_trial("b", 0, {}, 1, 1, 1.0, 0.5, 1.0, 1.0, 1.0)
        assert db.trial_count("a") == 1
        assert db.trial_count() == 2
        assert len(db.trials_for("a")) == 1

    def test_order_preserved(self):
        db = TrialDatabase()
        for trial_id in (5, 1, 9):
            db.record_trial("e", trial_id, {}, 1, 1, 1.0, 0.1, 1.0, 1.0, 1.0)
        assert [r["trial_id"] for r in db.trials_for("e")] == [5, 1, 9]


class TestInferenceCache:
    def test_roundtrip(self):
        db = TrialDatabase()
        db.store_inference(stored())
        result = db.lookup_inference("arch-a", "armv7", "inference-energy")
        assert result is not None
        assert result.configuration["inference_batch_size"] == 8
        assert result.throughput_sps == 16.0

    def test_miss_returns_none(self):
        db = TrialDatabase()
        assert db.lookup_inference("nope", "armv7", "x") is None

    def test_key_includes_device_and_objective(self):
        db = TrialDatabase()
        db.store_inference(stored(device="armv7"))
        assert db.lookup_inference("arch-a", "i7nuc",
                                   "inference-energy") is None
        assert db.lookup_inference("arch-a", "armv7",
                                   "inference-runtime") is None

    def test_replace_overwrites(self):
        db = TrialDatabase()
        db.store_inference(stored())
        updated = stored()
        updated.throughput_sps = 99.0
        db.store_inference(updated)
        result = db.lookup_inference("arch-a", "armv7", "inference-energy")
        assert result.throughput_sps == 99.0
        assert db.inference_cache_size() == 1

    def test_cache_size(self):
        db = TrialDatabase()
        db.store_inference(stored(key="a"))
        db.store_inference(stored(key="b"))
        assert db.inference_cache_size() == 2


class TestPersistence:
    def test_file_backed_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "trials.sqlite")
        with TrialDatabase(path) as db:
            db.store_inference(stored())
            db.record_trial("e", 0, {}, 1, 1, 1.0, 0.9, 1.0, 1.0, 1.0)
        with TrialDatabase(path) as db:
            assert db.inference_cache_size() == 1
            assert db.trial_count("e") == 1

    def test_threaded_writes(self):
        """The model and inference servers write concurrently."""
        db = TrialDatabase()

        def writer(name):
            for i in range(25):
                db.record_trial(name, i, {}, 1, 1, 1.0, 0.5, 1.0, 1.0, 1.0)

        threads = [
            threading.Thread(target=writer, args=(f"t{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert db.trial_count() == 100


    def test_interrupt_just_after_begin_leaves_no_open_transaction(
        self, tmp_path, monkeypatch
    ):
        """A pool worker's SIGTERM can land right after ``BEGIN`` returns
        (its lease waiting out a sibling's write lock).  The connection
        must not stay inside that transaction: the worker's last counter
        write, on the way out, would be rolled back with it."""
        path = os.path.join(tmp_path, "trials.sqlite")
        db = TrialDatabase(path)
        begin = db._begin

        def interrupted(immediate):
            begin(immediate)
            raise KeyboardInterrupt

        monkeypatch.setattr(db, "_begin", interrupted)
        with pytest.raises(KeyboardInterrupt):
            with db.transaction():
                pass
        assert not db._connection.in_transaction
        db.bump_stats({"dataset_cache.hits": 2})
        db.close()
        with TrialDatabase(path) as reader:
            assert reader.stats() == {"dataset_cache.hits": 2.0}

    def test_a_failed_commit_leaves_no_open_transaction(self, tmp_path):
        """A ``COMMIT`` can fail too ("SQL statements in progress": a
        write statement on the connection not read to its end).  The
        transaction is rolled back, and the next write autocommits."""
        db = TrialDatabase(os.path.join(tmp_path, "trials.sqlite"))
        db.bump_stats({"k": 1})
        with pytest.raises(sqlite3.OperationalError, match="in progress"):
            with db.transaction() as connection:
                unread = connection.execute(
                    "UPDATE fleet_stats SET value = 5 RETURNING key"
                )
        del unread
        assert not db._connection.in_transaction
        db.bump_stats({"k": 1})
        assert db.stats() == {"k": 2.0}


def hold_write_lock(path, seconds, held, waits, released):
    """Hold ``path``'s write lock on a connection of this thread until
    ``seconds`` after the waiter's first sleep (``waits`` grows);
    ``released`` gets the monotonic reading just before the ``COMMIT``
    that lets go."""
    raw = sqlite3.connect(path, isolation_level=None)
    raw.execute("BEGIN IMMEDIATE")
    held.set()
    deadline = time.monotonic() + 10.0
    while not waits and time.monotonic() < deadline:
        time.sleep(1e-4)
    time.sleep(seconds)
    released.append(time.monotonic())
    raw.execute("COMMIT")
    raw.close()


class TestLockWait:
    """sqlite's busy handler is off; ``TrialDatabase`` waits a lock out
    in sub-millisecond steps within one ``BUSY_TIMEOUT_MS`` budget."""

    def test_waiter_sleeps_sub_ms_steps_and_takes_the_lock_on_release(
        self, tmp_path, recording_clock
    ):
        path = os.path.join(tmp_path, "trials.sqlite")
        db = TrialDatabase(path)
        held, released = threading.Event(), []
        holder = threading.Thread(
            target=hold_write_lock,
            args=(path, 0.003, held, recording_clock.sleeps, released),
        )
        holder.start()
        held.wait()
        with db.transaction():
            db.execute("INSERT INTO fleet_stats (key, value) VALUES (?, 1)",
                       ("waited",))
        holder.join()
        sleeps = recording_clock.sleeps
        assert sleeps, "the waiter never met the lock"
        steps = [seconds for _, seconds, _ in sleeps]
        assert steps[0] == LOCK_WAIT_FIRST_S
        assert max(steps) <= LOCK_WAIT_STEP_S < 1e-3
        # Judged on what the storage layer controls, not on how long the
        # host took to start a sleep: the failed attempt before the last
        # sleep (the monotonic reading ``_run`` took on it) plus the step
        # that sleep asked for ends within a millisecond of the release,
        # and no attempt after the release failed.
        (release,) = released
        _, seconds, attempt = sleeps[-1]
        assert attempt + seconds - release < 1e-3
        assert sum(1 for began, _, _ in sleeps if began >= release) <= 1
        assert db.stats() == {"waited": 1.0}

    def test_a_lock_outliving_the_budget_fails_once(
        self, tmp_path, frozen_clock, monkeypatch
    ):
        """One bounded wait: the statement (or ``BEGIN``) fails with
        ``StorageError`` once ``BUSY_TIMEOUT_MS`` of steps are spent, not
        retried by the disk-error envelope on top.  Under a frozen clock
        the steps asked for end the wait: no spin."""
        budget_s = BUSY_TIMEOUT_MS / 1000.0
        most = len(frozen_clock.sleeps) + 2 * budget_s / LOCK_WAIT_STEP_S

        def sleep(seconds):
            frozen_clock.sleep(seconds)
            assert len(frozen_clock.sleeps) < most, "the lock wait spins"

        monkeypatch.setattr(clock, "sleep", sleep)
        path = os.path.join(tmp_path, "trials.sqlite")
        db = TrialDatabase(path)
        raw = sqlite3.connect(path, isolation_level=None)
        raw.execute("BEGIN IMMEDIATE")
        waits = []
        try:
            with pytest.raises(StorageError, match="stayed locked"):
                db.execute("INSERT INTO fleet_stats (key, value) "
                           "VALUES ('k', 1)")
            waits.append(list(frozen_clock.sleeps))
            del frozen_clock.sleeps[:]
            with pytest.raises(StorageError, match="stayed locked"):
                with db.transaction():
                    pass
            waits.append(list(frozen_clock.sleeps))
        finally:
            raw.execute("ROLLBACK")
            raw.close()
        for sleeps in waits:
            assert budget_s <= sum(sleeps) < budget_s + LOCK_WAIT_STEP_S
            assert max(sleeps) == LOCK_WAIT_STEP_S
        assert not db._connection.in_transaction
        db.bump_stats({"k": 1})
        assert db.stats() == {"k": 1.0}


class TestEventCounters:
    def test_one_statement_per_bump_with_zero_amounts_dropped(
        self, monkeypatch
    ):
        db = TrialDatabase()
        statements = []
        execute = db.execute
        monkeypatch.setattr(
            db, "execute",
            lambda sql, args=(): statements.append(sql) or execute(sql, args),
        )
        db.bump_stats({"traffic.replays": 1, "traffic.requests_shed": 0,
                       "traffic.requests_replayed": 40})
        db.bump_stats({"traffic.replays": 1})
        db.bump_stats({"leases.drained": 0})
        assert len(statements) == 2
        assert db.stats() == {
            "traffic.replays": 2.0, "traffic.requests_replayed": 40.0,
        }

    def test_prefix_is_literal(self):
        """``_`` and ``%`` in a prefix are characters, not wildcards."""
        db = TrialDatabase()
        db.bump_stats({"dataset_cache.hits": 1, "datasetXcache.hits": 5,
                       "dataset_cache": 7})
        assert db.stats("dataset_cache.") == {"dataset_cache.hits": 1.0}
        assert db.stats("") == db.stats()
        assert len(db.stats()) == 3


class TestStructureKeyedCache:
    """§3.4: inference results are keyed by what the device executes.

    Two configurations that differ only in training hyperparameters
    (batch size, gpus) share one cache row; changing the architecture
    (num_layers) must miss.
    """

    @staticmethod
    def make_server():
        from repro.budgets import MultiBudget
        from repro.core import ModelTuningServer
        from repro.objectives import AccuracyObjective
        from repro.workloads import get_workload

        return ModelTuningServer(
            workload=get_workload("IC"),
            algorithm="bohb",
            budget=MultiBudget(min_epochs=1, max_epochs=4, min_fraction=0.25),
            objective=AccuracyObjective(),
            database=TrialDatabase(),
            seed=11,
            samples=160,
            include_system_parameters=True,
        )

    def test_training_only_changes_share_a_key(self):
        server = self.make_server()
        state = server.prepare()
        space = state.space
        base = space.configuration(num_layers=18, train_batch_size=32,
                                   gpus=1)
        retrained = space.configuration(num_layers=18, train_batch_size=256,
                                        gpus=8)
        key_a, flops_a, params_a = server._architecture_key(
            base, state.train_set
        )
        key_b, flops_b, params_b = server._architecture_key(
            retrained, state.train_set
        )
        assert key_a == key_b
        assert (flops_a, params_a) == (flops_b, params_b)

    def test_structure_change_misses(self):
        server = self.make_server()
        state = server.prepare()
        space = state.space
        shallow = space.configuration(num_layers=18, train_batch_size=32,
                                      gpus=1)
        deep = space.configuration(num_layers=50, train_batch_size=32,
                                   gpus=1)
        key_a, _, _ = server._architecture_key(shallow, state.train_set)
        key_b, _, _ = server._architecture_key(deep, state.train_set)
        assert key_a != key_b

        db = server.database
        db.store_inference(stored(key=key_a))
        assert db.lookup_inference(key_a, "armv7",
                                   "inference-energy") is not None
        assert db.lookup_inference(key_b, "armv7",
                                   "inference-energy") is None

    def test_lookup_hits_across_training_hyperparameters(self):
        server = self.make_server()
        state = server.prepare()
        space = state.space
        db = server.database
        key_stored, _, _ = server._architecture_key(
            space.configuration(num_layers=34, train_batch_size=64, gpus=2),
            state.train_set,
        )
        db.store_inference(stored(key=key_stored))
        key_again, _, _ = server._architecture_key(
            space.configuration(num_layers=34, train_batch_size=512, gpus=4),
            state.train_set,
        )
        hit = db.lookup_inference(key_again, "armv7", "inference-energy")
        assert hit is not None
        assert hit.configuration["inference_batch_size"] == 8
