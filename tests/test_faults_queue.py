"""Retry exhaustion and the dead-letter quarantine (jobs table v5)."""

from repro.service import DeadLetter, JobQueue
from repro.service.queue import FAILED, QUEUED, backoff_delay
from repro.storage import TrialDatabase
from tests.clocks import frozen_clock  # noqa: F401 (fixture)


def drive_to_exhaustion(queue, clock, session="s1", trial=1,
                        max_attempts=3, start=1000.0):
    """Lease+fail a job through every attempt on a frozen ``clock``;
    returns the fail times."""
    clock.at(start)
    queue.enqueue(session, trial, "{}", max_attempts=max_attempts)
    now = start
    fail_times = []
    for attempt in range(1, max_attempts + 1):
        now += backoff_delay(attempt - 1) + 1.0
        clock.at(now)
        job = queue.lease("w1", ttl_s=30.0)
        assert job is not None and job.attempts == attempt
        now += 0.5
        clock.at(now)
        assert queue.fail(job.id, "w1", f"boom {attempt}")
        fail_times.append(now)
    return fail_times


class TestRetryExhaustion:
    def test_exhausted_job_fails_and_quarantines_exactly_once(
        self, frozen_clock
    ):
        db = TrialDatabase()
        queue = JobQueue(db)
        drive_to_exhaustion(queue, frozen_clock)
        job = queue.get("s1", 1)
        assert job.state == FAILED
        assert job.attempts == job.max_attempts == 3
        letters = queue.dead_letters("s1")
        assert len(letters) == 1
        letter = letters[0]
        assert isinstance(letter, DeadLetter)
        assert letter.trial_id == 1 and letter.attempts == 3
        assert letter.error == "boom 3"
        assert queue.dead_letter_count() == 1
        assert queue.dead_letter_count("other") == 0

    def test_error_history_is_complete_and_monotonic(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        fail_times = drive_to_exhaustion(queue, frozen_clock)
        history = queue.get("s1", 1).history()
        assert [entry["attempt"] for entry in history] == [1, 2, 3]
        assert [entry["error"] for entry in history] == [
            "boom 1", "boom 2", "boom 3"
        ]
        stamps = [entry["at"] for entry in history]
        assert stamps == sorted(stamps) == fail_times
        # The quarantine row carries the same history.
        assert queue.dead_letters("s1")[0].error_history == history

    def test_backoff_timestamps_monotonically_increase(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        frozen_clock.at(100.0)
        queue.enqueue("s1", 1, "{}", max_attempts=5)
        retry_ats = []
        now = 100.0
        for attempt in range(1, 5):
            now += backoff_delay(attempt - 1) + 0.01
            frozen_clock.at(now)
            job = queue.lease("w1", ttl_s=30.0)
            assert job is not None
            queue.fail(job.id, "w1", "x")
            retry_ats.append(queue.get("s1", 1).next_retry_at)
        assert retry_ats == sorted(retry_ats)
        assert all(b > a for a, b in zip(retry_ats, retry_ats[1:]))

    def test_fail_after_lease_expiry_is_noop(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        frozen_clock.at(100.0)
        queue.enqueue("s1", 1, "{}")
        job = queue.lease("w1", ttl_s=5.0)
        # The zombie reports after its lease lapsed: rejected, and the
        # job row is untouched (reclaim owns it now).
        frozen_clock.at(106.0)
        assert not queue.fail(job.id, "w1", "late verdict")
        after = queue.get("s1", 1)
        assert after.state == "leased"
        assert after.error is None
        assert after.history() == []

    def test_reclaim_exhaustion_also_quarantines(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        frozen_clock.at(100.0)
        queue.enqueue("s1", 1, "{}", max_attempts=1)
        job = queue.lease("w1", ttl_s=5.0)
        assert job.attempts == 1
        frozen_clock.at(200.0)
        assert queue.reclaim_expired() == 1
        assert queue.get("s1", 1).state == FAILED
        letters = queue.dead_letters("s1")
        assert len(letters) == 1
        assert "lease expired" in letters[0].error
        assert len(letters[0].error_history) == 1


class TestDeadLetterManagement:
    def test_retry_dead_releases_with_clean_slate(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        drive_to_exhaustion(queue, frozen_clock)
        assert queue.retry_dead("s1") == 1
        assert queue.dead_letter_count("s1") == 0
        job = queue.get("s1", 1)
        assert job.state == QUEUED
        assert job.attempts == 0
        assert job.error is None
        assert job.history() == []
        # The released job is leasable again immediately.
        frozen_clock.at(9999.0)
        assert queue.lease("w2", ttl_s=30.0) is not None

    def test_retry_dead_single_trial(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        drive_to_exhaustion(queue, frozen_clock, trial=1)
        drive_to_exhaustion(queue, frozen_clock, trial=2)
        assert queue.retry_dead("s1", trial_id=2) == 1
        assert {l.trial_id for l in queue.dead_letters("s1")} == {1}

    def test_purge_dead_keeps_failed_jobs(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        drive_to_exhaustion(queue, frozen_clock)
        assert queue.purge_dead("s1") == 1
        assert queue.dead_letter_count() == 0
        assert queue.get("s1", 1).state == FAILED  # audit trail stays

    def test_last_error_reports_most_recent(self, frozen_clock):
        db = TrialDatabase()
        queue = JobQueue(db)
        assert queue.last_error("s1") is None
        drive_to_exhaustion(queue, frozen_clock)
        assert queue.last_error("s1") == "boom 3"
        # A later failure of another job is newer, and a successful
        # retry, which clears ``jobs.error``, keeps it in the history.
        queue.enqueue("s1", 2, "{}")
        frozen_clock.advance(1.0)
        job = queue.lease("w1", ttl_s=30.0)
        assert queue.fail(job.id, "w1", "late boom")
        frozen_clock.advance(backoff_delay(1) + 1.0)
        job = queue.lease("w1", ttl_s=30.0)
        assert job.trial_id == 2 and queue.complete(job.id, "w1", b"ok")
        assert queue.get("s1", 2).error is None
        assert queue.last_error("s1") == "late boom"
