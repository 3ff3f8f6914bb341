"""Satellite (c): kill -9 a live service mid-trial, then resume.

Drives the real CLI in a subprocess (own process group), SIGKILLs the
whole group while trials are in flight, and verifies that resuming:

* never re-executes jobs that finished before the kill (their attempt
  counts and finish timestamps are byte-identical afterwards), and
* produces the exact :class:`TuningRunResult` of an uninterrupted run.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.service import SessionCoordinator, SessionSpec, SessionStore
from repro.service.queue import DONE
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase

SPEC = dict(workload="IC", device="armv7", seed=7, samples=240)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def service_env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.service"] + list(args),
        env=service_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def count_done(db_path, session_id):
    """Poll job progress over a throwaway read-only connection (the
    service owns the main ones)."""
    connection = sqlite3.connect(db_path, timeout=5.0)
    try:
        row = connection.execute(
            "SELECT COUNT(*) FROM jobs WHERE session_id = ? AND state = ?",
            (session_id, DONE),
        ).fetchone()
        return row[0]
    except sqlite3.OperationalError:
        return 0  # tables not created yet
    finally:
        connection.close()


@pytest.mark.slow
def test_kill9_then_resume_matches_uninterrupted_run(tmp_path):
    # Reference: the same session spec run to completion, undisturbed.
    with TrialDatabase() as reference_db:
        ref_id = SessionStore(reference_db).create(SessionSpec(**SPEC))
        reference = SessionCoordinator(reference_db, ref_id).run()

    db_path = os.path.join(tmp_path, "service.sqlite")
    submit = run_cli(
        "submit", SPEC["workload"], "--db", db_path,
        "--device", SPEC["device"],
        "--seed", str(SPEC["seed"]), "--samples", str(SPEC["samples"]),
    )
    assert submit.returncode == 0, submit.stderr
    session_id = submit.stdout.strip()

    # Start the service (coordinator + 2 workers) in its own process
    # group so SIGKILL takes down every process at once — no cleanup.
    service = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "workers",
         "--db", db_path, "-n", "2", "--drain", "--lease-ttl", "1.0"],
        env=service_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.time() + 90
        while time.time() < deadline:
            if count_done(db_path, session_id) >= 4:
                break
            if service.poll() is not None:
                break
            time.sleep(0.01)
        killed_midway = service.poll() is None
        if killed_midway:
            os.killpg(service.pid, signal.SIGKILL)
        service.wait(timeout=30)
    finally:
        if service.poll() is None:
            os.killpg(service.pid, signal.SIGKILL)
            service.wait(timeout=30)

    if not killed_midway:  # pragma: no cover - requires an absurdly fast box
        pytest.skip("service drained the whole session before the kill")

    with TrialDatabase(db_path) as db:
        store = SessionStore(db)
        record = store.get(session_id)
        assert record.state != S_DONE
        assert record.resumable or count_done(db_path, session_id) >= 0

        from repro.service import JobQueue

        queue = JobQueue(db)
        done_before = {
            job.trial_id: (job.attempts, job.finished_at, job.lease_owner)
            for job in queue.jobs_for(session_id, DONE)
        }
        assert done_before, "killed before any job finished"

        # Resume inline: leases of the killed workers (ttl 1s) expire and
        # their in-flight jobs are reclaimed and retried transparently.
        resumed = SessionCoordinator(db, session_id, workers=0).run()

        assert store.get(session_id).state == S_DONE
        done_after = {
            job.trial_id: (job.attempts, job.finished_at, job.lease_owner)
            for job in queue.jobs_for(session_id, DONE)
        }
        for trial_id, before in done_before.items():
            assert done_after[trial_id] == before, (
                f"finished trial {trial_id} was re-executed on resume"
            )

    assert [
        (t.trial_id, t.score, t.accuracy) for t in resumed.trials
    ] == [(t.trial_id, t.score, t.accuracy) for t in reference.trials]
    assert resumed.best_configuration == reference.best_configuration
    assert resumed.tuning_runtime_s == reference.tuning_runtime_s
    assert resumed.tuning_energy_j == reference.tuning_energy_j
