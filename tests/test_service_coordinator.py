"""Tests for the session coordinator: determinism, resume, failure paths.

The determinism contract under test: because the coordinator integrates
results strictly in wave order, a service run's outcome is independent of
worker count and completion timing — and identical to the classic serial
``ModelTuningServer.run`` for the synchronous halving schedulers.
"""

import os
import pickle

import pytest

import repro.artifacts as artifacts_module
import repro.core.model_server as model_server_module
import repro.service.coordinator as coordinator_module
import repro.service.worker as worker_module
from repro import EdgeTune
from repro.core import InferenceTuningServer
from repro.core.model_server import ModelTuningServer
from repro.errors import ServiceError
from repro.service import (
    JobQueue,
    SessionCoordinator,
    SessionSpec,
    SessionStore,
)
from repro.service.queue import DONE
from repro.service.sessions import S_DONE, S_FAILED
from repro.storage import TrialDatabase


def make_session(db, **overrides):
    base = dict(workload="IC", device="armv7", seed=7, samples=240)
    base.update(overrides)
    spec = SessionSpec(**base)
    return SessionStore(db).create(spec), spec


def fingerprint(result):
    """Everything that must match between two equivalent runs."""
    return (
        [(t.trial_id, t.score, t.accuracy, t.stall_s) for t in result.trials],
        result.best_configuration,
        result.best_accuracy,
        result.best_score,
        result.tuning_runtime_s,
        result.tuning_energy_j,
        result.stall_s,
    )


class TestInlineService:
    def test_matches_classic_serial_run(self):
        serial = EdgeTune(workload="IC", device="armv7", seed=7,
                          samples=240).tune()
        db = TrialDatabase()
        session_id, _ = make_session(db)
        service = SessionCoordinator(db, session_id, workers=0).run()
        assert fingerprint(service) == fingerprint(serial)

    def test_session_row_records_summary_and_meters(self):
        db = TrialDatabase()
        session_id, _ = make_session(db, max_trials=8)
        result = SessionCoordinator(db, session_id, workers=0).run()
        record = SessionStore(db).get(session_id)
        assert record.state == S_DONE
        assert record.result["num_trials"] == len(result.trials)
        assert record.result["best_accuracy"] == result.best_accuracy
        assert record.result["meters"]["trials.integrated"] == len(
            result.trials
        )
        stats = {s["worker"]: s for s in record.result["worker_stats"]}
        assert stats["inline"]["jobs_done"] == len(result.trials)
        assert not record.resumable  # done

    def test_completed_session_cannot_rerun(self):
        db = TrialDatabase()
        session_id, _ = make_session(db, max_trials=4)
        SessionCoordinator(db, session_id, workers=0).run()
        with pytest.raises(ServiceError):
            SessionCoordinator(db, session_id, workers=0).run()


class TestWriteTransactions:
    def test_no_search_task_or_key_inside_a_write_transaction(
        self, tmp_path, monkeypatch
    ):
        """A write transaction holds only its writes: in a cold inline
        session on a file database, no inference search, ``make_task``
        or ``trial_key`` runs while the coordinator's connection (which
        the inline worker shares) is inside one."""
        calls = []
        database = TrialDatabase(str(tmp_path / "svc.sqlite"))

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append((name, database._connection.in_transaction))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(InferenceTuningServer, "search")
        spy(ModelTuningServer, "make_task")
        for module in (artifacts_module, model_server_module,
                       coordinator_module, worker_module):
            spy(module, "trial_key")
        with database:
            session_id, _ = make_session(
                database, workload="NLP", samples=400
            )
            SessionCoordinator(database, session_id, workers=0).run()
        assert {name for name, _ in calls} == {
            "search", "make_task", "trial_key"
        }
        assert [name for name, inside in calls if inside] == []


class TestWorkerCountDeterminism:
    def test_one_vs_four_workers_identical(self, tmp_path):
        """Satellite (d): N-worker process pools produce bit-identical
        trial scores and the same winner as a single worker."""
        fingerprints = []
        for workers in (1, 4):
            path = os.path.join(tmp_path, f"svc-{workers}.sqlite")
            with TrialDatabase(path) as db:
                session_id, _ = make_session(db)
                result = SessionCoordinator(
                    db, session_id, workers=workers
                ).run()
                fingerprints.append(fingerprint(result))
                assert SessionStore(db).get(session_id).state == S_DONE
        assert fingerprints[0] == fingerprints[1]


class TestCrashResume:
    def test_resume_after_coordinator_crash_skips_finished_trials(
        self, monkeypatch
    ):
        """Crash after 10 integrated trials; resume must (a) never
        re-execute the training of already-done jobs and (b) finish with
        the exact result of an uninterrupted run."""
        reference_db = TrialDatabase()
        ref_id, _ = make_session(reference_db)
        reference = SessionCoordinator(reference_db, ref_id).run()

        db = TrialDatabase()
        session_id, _ = make_session(db)
        original = ModelTuningServer.integrate
        calls = {"n": 0}

        def crashing(self, state, trial, evaluation, model=None):
            record = original(self, state, trial, evaluation, model=model)
            calls["n"] += 1
            if calls["n"] >= 10:
                raise RuntimeError("simulated coordinator crash")
            return record

        monkeypatch.setattr(ModelTuningServer, "integrate", crashing)
        with pytest.raises(RuntimeError):
            SessionCoordinator(db, session_id, workers=0).run()
        monkeypatch.setattr(ModelTuningServer, "integrate", original)

        store = SessionStore(db)
        crashed = store.get(session_id)
        assert crashed.state == S_FAILED
        assert crashed.resumable
        # Integration and merge note commit atomically: the 10th trial's
        # rows (its inference-cache entry above all) rolled back with the
        # crash, so the resumed run re-merges it against a cold cache and
        # its stall accounting cannot diverge from the reference.
        assert db.trial_count() == 9
        queue = JobQueue(db)
        done_before = {
            job.trial_id: (job.attempts, job.finished_at)
            for job in queue.jobs_for(session_id, DONE)
        }
        assert len(done_before) >= 10

        coordinator = SessionCoordinator(db, session_id, workers=0)
        resumed = coordinator.run()
        assert fingerprint(resumed) == fingerprint(reference)
        assert store.get(session_id).state == S_DONE
        # The 9 noted merges were replayed, not re-run.
        assert coordinator.meters.snapshot()["trials.resumed"] == 9
        done_after = {
            job.trial_id: (job.attempts, job.finished_at)
            for job in queue.jobs_for(session_id, DONE)
        }
        for trial_id, before in done_before.items():
            assert done_after[trial_id] == before  # untouched by resume

    def test_poison_trials_are_quarantined_and_session_completes(
        self, monkeypatch
    ):
        """A trial that fails every attempt no longer aborts the session:
        the job lands in the dead-letter quarantine and the coordinator
        integrates a worst-case failure record in its place."""
        db = TrialDatabase()
        session_id, _ = make_session(db, max_trials=4)

        def broken(task, *args, **kwargs):
            raise ValueError(f"cannot evaluate trial {task.trial_id}")

        monkeypatch.setattr(worker_module, "train_trial", broken)
        result = SessionCoordinator(
            db, session_id, workers=0, poll_interval_s=0.01
        ).run()
        record = SessionStore(db).get(session_id)
        assert record.state == S_DONE
        assert record.result["failed_trials"] == len(result.trials) > 0
        assert all(t.failure is not None for t in result.trials)

        queue = JobQueue(db)
        failed_jobs = queue.jobs_for(session_id, "failed")
        assert failed_jobs
        assert failed_jobs[0].attempts == failed_jobs[0].max_attempts
        assert "cannot evaluate trial" in failed_jobs[0].error
        letters = queue.dead_letters(session_id)
        assert len(letters) == len(failed_jobs)
        assert record.result["dead_letter"] == len(letters)
        history = letters[0].error_history
        assert [entry["attempt"] for entry in history] == [1, 2, 3]
        assert all("cannot evaluate trial" in entry["error"]
                   for entry in history)


class TestAsyncScheduling:
    """The ASHA merge path: barrier-free integration, replay-mode
    determinism, crash resume, decision-log surfacing."""

    def asha_session(self, db, **overrides):
        base = dict(samples=160, max_trials=12, scheduler="asha")
        base.update(overrides)
        return make_session(db, **base)

    def test_asha_session_completes_and_surfaces_decision_log(self):
        db = TrialDatabase()
        session_id, _ = self.asha_session(db)
        result = SessionCoordinator(db, session_id, workers=0).run()
        record = SessionStore(db).get(session_id)
        assert record.state == S_DONE
        assert result.num_trials == 12
        log = record.result["decision_log"]
        assert log, "async sessions must surface their decision log"
        for index, trial_id, rung, decision, child in log:
            assert decision in ("promote", "pause", "complete")
            assert (child is not None) == (decision == "promote")
        # Promotions ran at higher fidelities (no rung barriers, but the
        # ladder is still climbed).
        assert any(t.fidelity > 1 for t in result.trials)

    def test_pinned_order_identical_across_worker_counts(self, tmp_path):
        """Replay mode: with the completion order pinned, 1-worker and
        4-worker ASHA runs are bit-identical, decision log included."""
        outcomes = []
        for workers in (1, 4):
            path = os.path.join(tmp_path, f"asha-{workers}.sqlite")
            with TrialDatabase(path) as db:
                session_id, _ = self.asha_session(db)
                result = SessionCoordinator(
                    db, session_id, workers=workers, pin_order=True
                ).run()
                record = SessionStore(db).get(session_id)
                assert record.state == S_DONE
                outcomes.append(
                    (fingerprint(result), record.result["decision_log"])
                )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]

    def test_pin_order_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PIN_COMPLETION_ORDER", "1")
        db = TrialDatabase()
        session_id, _ = self.asha_session(db)
        coordinator = SessionCoordinator(db, session_id, workers=0)
        assert coordinator.pin_order is True
        monkeypatch.setenv("REPRO_PIN_COMPLETION_ORDER", "0")
        assert SessionCoordinator(db, session_id).pin_order is False

    def test_sync_sessions_have_no_decision_log(self):
        db = TrialDatabase()
        session_id, _ = make_session(db, samples=160, max_trials=6)
        SessionCoordinator(db, session_id, workers=0).run()
        record = SessionStore(db).get(session_id)
        assert record.result["decision_log"] is None

    def test_asha_crash_resume_matches_uninterrupted_run(self, monkeypatch):
        """Replay discipline on the async path: crash mid-run, resume,
        and the pinned decision log + result match an uninterrupted run."""
        reference_db = TrialDatabase()
        ref_id, _ = self.asha_session(reference_db)
        reference = SessionCoordinator(
            reference_db, ref_id, workers=0, pin_order=True
        ).run()
        ref_log = SessionStore(reference_db).get(ref_id).result[
            "decision_log"
        ]

        db = TrialDatabase()
        session_id, _ = self.asha_session(db)
        original = ModelTuningServer.integrate
        calls = {"n": 0}

        def crashing(self, state, trial, evaluation, model=None):
            record = original(self, state, trial, evaluation, model=model)
            calls["n"] += 1
            if calls["n"] >= 6:
                raise RuntimeError("simulated coordinator crash")
            return record

        monkeypatch.setattr(ModelTuningServer, "integrate", crashing)
        with pytest.raises(RuntimeError):
            SessionCoordinator(
                db, session_id, workers=0, pin_order=True
            ).run()
        monkeypatch.setattr(ModelTuningServer, "integrate", original)

        store = SessionStore(db)
        assert store.get(session_id).state == S_FAILED
        assert store.get(session_id).resumable
        resumed = SessionCoordinator(
            db, session_id, workers=0, pin_order=True
        ).run()
        record = store.get(session_id)
        assert record.state == S_DONE
        assert fingerprint(resumed) == fingerprint(reference)
        assert record.result["decision_log"] == ref_log

    def test_num_configs_widens_the_bottom_rung(self):
        """The bracket-width knob reaches the scheduler: a wider bracket
        enters more fresh configurations at the bottom rung."""
        db = TrialDatabase()
        session_id, _ = self.asha_session(
            db, max_trials=None, num_configs=6
        )
        result = SessionCoordinator(db, session_id, workers=0).run()
        fresh = [t for t in result.trials if t.fidelity == 1]
        assert len(fresh) == 6

    def test_num_configs_requires_a_halving_scheduler(self):
        with pytest.raises(ServiceError):
            SessionSpec(num_configs=8)
        with pytest.raises(ServiceError):
            SessionSpec(scheduler="bohb", num_configs=8)
        with pytest.raises(ServiceError):
            SessionSpec(scheduler="asha", num_configs=0)
        spec = SessionSpec(scheduler="sha", num_configs=8)
        assert SessionSpec.from_dict(spec.to_dict()).num_configs == 8

    def test_asha_poison_trial_substituted(self, monkeypatch):
        """Dead-lettered jobs are substituted on the async path too."""
        db = TrialDatabase()
        session_id, _ = self.asha_session(db, max_trials=4)

        def broken(task, *args, **kwargs):
            raise ValueError(f"cannot evaluate trial {task.trial_id}")

        monkeypatch.setattr(worker_module, "train_trial", broken)
        result = SessionCoordinator(
            db, session_id, workers=0, poll_interval_s=0.01,
            pin_order=True,
        ).run()
        record = SessionStore(db).get(session_id)
        assert record.state == S_DONE
        assert all(t.failure is not None for t in result.trials)
        assert JobQueue(db).dead_letters(session_id)
