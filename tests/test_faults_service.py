"""Chaos suite: full multi-worker sessions under each fault injector.

The determinism contract under fire: retryable injected faults (crash,
fail, hang, transient I/O) must leave the session result bit-identical to
a fault-free run at the same seed, because retries re-execute seed-driven
work and the coordinator integrates in wave order regardless of timing.
Poison faults (fire on every attempt) must quarantine their jobs and
still let the session complete.
"""

import pytest

from repro import faults
from repro.service import (
    JobQueue,
    SessionCoordinator,
    SessionSpec,
    SessionStore,
)
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase
from repro.objectives import WORST_SCORE

from tests.test_service_coordinator import fingerprint, make_session


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def run_session(db, workers=0, trial_timeout_s=None, **spec_overrides):
    session_id, _ = make_session(db, **spec_overrides)
    coordinator = SessionCoordinator(
        db, session_id, workers=workers, poll_interval_s=0.01,
        lease_ttl_s=1.0 if workers else 10.0,
        trial_timeout_s=trial_timeout_s,
    )
    result = coordinator.run()
    return session_id, result, coordinator


def reference_fingerprint(**spec_overrides):
    """The fault-free result every retryable-fault run must reproduce."""
    faults.reset()
    db = TrialDatabase()
    _, result, _ = run_session(db, **spec_overrides)
    return fingerprint(result)


SPEC = dict(max_trials=4, samples=160)


class TestRetryableFaultsAreInvisible:
    def test_worker_fail_injection_matches_fault_free_run(self):
        reference = reference_fingerprint(**SPEC)
        faults.configure("seed=11;worker.fail=0.5", propagate=False)
        db = TrialDatabase()
        session_id, result, _ = run_session(db, **SPEC)
        assert fingerprint(result) == reference
        assert SessionStore(db).get(session_id).state == S_DONE
        # The injector really fired: some jobs needed a second attempt.
        queue = JobQueue(db)
        retried = [job for job in queue.jobs_for(session_id, "done")
                   if job.attempts > 1]
        assert retried
        assert queue.dead_letter_count(session_id) == 0

    def test_storage_io_injection_matches_fault_free_run(self):
        reference = reference_fingerprint(**SPEC)
        faults.configure("seed=11;storage.io=0.05", propagate=False)
        db = TrialDatabase()
        session_id, result, _ = run_session(db, **SPEC)
        assert fingerprint(result) == reference
        assert faults.get_plan().fired["storage.io"] > 0

    def test_worker_hang_contained_by_trial_deadline(self):
        reference = reference_fingerprint(**SPEC)
        faults.configure("seed=11;worker.hang=0.6:1:5", propagate=False)
        db = TrialDatabase()
        session_id, result, _ = run_session(
            db, trial_timeout_s=0.3, **SPEC
        )
        assert fingerprint(result) == reference
        queue = JobQueue(db)
        hung = [job for job in queue.jobs_for(session_id, "done")
                if job.attempts > 1]
        assert hung  # at least one trial overran and was retried
        assert "deadline" in (queue.last_error(session_id) or "")


class TestWorkerCrashChaos:
    def test_two_worker_session_survives_crash_injection(self, tmp_path):
        reference = reference_fingerprint(**SPEC)
        db_path = str(tmp_path / "chaos.sqlite")
        faults.configure("seed=11;worker.crash=0.5")  # exported to env
        try:
            with TrialDatabase(db_path) as db:
                session_id, result, coordinator = run_session(
                    db, workers=2, **SPEC
                )
                assert fingerprint(result) == reference
                assert SessionStore(db).get(session_id).state == S_DONE
                queue = JobQueue(db)
                assert queue.dead_letter_count(session_id) == 0
                # Crashes really happened: leases were reclaimed and/or
                # dead workers respawned.
                meters = coordinator.meters.snapshot()
                assert (
                    meters.get("leases.reclaimed", 0) > 0
                    or meters.get("workers.respawned", 0) > 0
                )
        finally:
            faults.reset()


class TestNanDivergenceChaos:
    def test_nan_session_completes_with_degraded_records(self):
        faults.configure("seed=3;trainer.nan=0.9", propagate=False)
        db = TrialDatabase()
        session_id, result, _ = run_session(db, **SPEC)
        assert SessionStore(db).get(session_id).state == S_DONE
        diverged = [t for t in result.trials if t.failure is not None]
        assert diverged
        for record in diverged:
            assert "diverged" in record.failure
            assert record.accuracy == 0.0
            assert record.score == WORST_SCORE
            assert record.inference is None  # no tuning of a dead model

    def test_healthy_trial_beats_degraded_incumbent(self):
        faults.configure("seed=3;trainer.nan=0.9", propagate=False)
        db = TrialDatabase()
        _, result, _ = run_session(db, **SPEC)
        healthy = [t for t in result.trials if t.failure is None]
        if healthy:  # seed-dependent; when any trial survives, it wins
            assert result.best_score < WORST_SCORE
            assert result.best_accuracy == max(
                t.accuracy for t in healthy
            )


class TestPoisonQuarantine:
    POISON = "seed=11;worker.fail=0.4:99"

    def test_poison_configs_quarantine_and_session_completes(self):
        faults.configure(self.POISON, propagate=False)
        db = TrialDatabase()
        session_id, result, coordinator = run_session(db, **SPEC)
        record = SessionStore(db).get(session_id)
        assert record.state == S_DONE
        queue = JobQueue(db)
        letters = queue.dead_letters(session_id)
        assert letters  # at 0.4 over every attempt, some trials poison
        assert record.result["dead_letter"] == len(letters)
        assert record.result["failed_trials"] >= len(letters)
        assert coordinator.meters.snapshot()[
            "failures.substituted"
        ] == len(letters)
        poisoned_ids = {letter.trial_id for letter in letters}
        for trial in result.trials:
            if trial.trial_id in poisoned_ids:
                assert trial.failure is not None
                assert trial.score == WORST_SCORE

    def test_poison_outcome_is_worker_count_independent(self, tmp_path):
        faults.configure(self.POISON)  # exported to env for the pool
        try:
            inline_db = TrialDatabase()
            _, inline_result, _ = run_session(inline_db, **SPEC)

            db_path = str(tmp_path / "poison.sqlite")
            with TrialDatabase(db_path) as pool_db:
                session_id, pool_result, _ = run_session(
                    pool_db, workers=2, **SPEC
                )
                assert fingerprint(pool_result) == fingerprint(inline_result)
                assert (
                    JobQueue(pool_db).dead_letter_count(session_id)
                    == JobQueue(inline_db).dead_letter_count(None)
                )
        finally:
            faults.reset()
