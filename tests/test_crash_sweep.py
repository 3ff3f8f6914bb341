"""Crash-point sweep: a session killed after its N-th SQL statement
resumes to the result of an uninterrupted run, for a seeded sample of N.

This is the exhaustive form of the one hand-picked ``kill -9`` in
``test_service_crash.py``.  The session's :class:`TrialDatabase` connection
is wrapped in a proxy that counts ``execute`` calls and raises
:class:`Crash` — a ``BaseException``, which nothing in the service catches,
as nothing catches ``kill -9`` — at statement N and at every statement
after it: the process is gone.  ``transaction()``'s rollback cannot run
either; closing the abandoned connection loses the open transaction the
way a dead process does.  The file is then reopened and the session run
again by a fresh inline coordinator.

Each swept session starts from a copy of one template file whose
experiment already has history (a finished BOHB and a finished ASHA
session of the same spec) and whose artifact store holds every other
trial of them, so a sweep crosses memo-settled issues, leases,
training, artifact writes, inference tuning and merges.  For every crash
point the resumed session must

* equal the uninterrupted run (the goldens fingerprint, virtual timeline
  included; and the stored result summary);
* leave every job that was ``done`` before the crash untouched
  (``attempts``, ``finished_at``);
* leave exactly one ``trials`` row per integrated trial, in merge order.
"""

import os
import random
import shutil
import time

import pytest

from repro.service import JobQueue, SessionCoordinator, SessionSpec, SessionStore
from repro.service.queue import BACKOFF_CAP_S, DONE
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase
from tests.test_session_goldens import fingerprint

SPEC = dict(workload="NLP", device="armv7", seed=7, samples=60, max_trials=12)

#: name -> (spec overrides, pin_order).
SESSIONS = {
    "bohb": ({}, False),
    "asha-pinned": ({"scheduler": "asha"}, True),
    "asha": ({"scheduler": "asha"}, False),
    "warm-start": ({"warm_start": True}, False),
}

#: Crash points sampled per session.
CRASH_POINTS = 20


class Crash(BaseException):
    """The process died: not an ``Exception``, so nothing catches it."""


class DyingConnection:
    """A sqlite3 connection that dies at its ``die_at``-th ``execute``.

    Counts every ``execute`` (``BEGIN``/``COMMIT`` included); ``die_at``
    ``None`` only counts.
    """

    def __init__(self, connection, die_at=None):
        self._connection = connection
        self.die_at = die_at
        self.statements = 0

    def execute(self, *args):
        self.statements += 1
        if self.die_at is not None and self.statements >= self.die_at:
            raise Crash(self.statements)
        return self._connection.execute(*args)

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def __enter__(self):
        self._connection.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._connection.__exit__(*exc_info)


#: Summary fields that are not part of the result: timing meters.
UNCOMPARED = ("meters", "worker_stats", "artifact_cache")


def summary(record):
    """The session row's result summary, minus :data:`UNCOMPARED`."""
    return {
        key: value for key, value in record.result.items()
        if key not in UNCOMPARED
    }


def run(database, session_id, pin_order):
    return SessionCoordinator(
        database, session_id, workers=0, pin_order=pin_order,
        poll_interval_s=0.01,
    ).run()


def copy_template(template, path):
    shutil.copyfile(template, path)
    shutil.copytree(template + ".artifacts", path + ".artifacts")


def merged_rows(database, after_id):
    return database.execute(
        "SELECT trial_id, score FROM trials WHERE id > ? ORDER BY id",
        (after_id,),
    ).fetchall()


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """``(path, max trials.id)`` of the template database."""
    path = str(tmp_path_factory.mktemp("sweep") / "template.sqlite")
    with TrialDatabase(path) as database:
        for scheduler in (None, "asha"):
            session_id = SessionStore(database).create(
                SessionSpec(**SPEC, scheduler=scheduler)
            )
            run(database, session_id, False)
        # Half the history's artifacts and its whole inference cache go:
        # the swept sessions train, store and tune as well as memoize.
        database.execute("DELETE FROM inference_results")
        database.execute("DELETE FROM artifacts WHERE trial_id % 2 = 0")
        (last,) = database.execute("SELECT MAX(id) FROM trials").fetchone()
    return path, last


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_every_sampled_crash_point_resumes_to_the_uninterrupted_run(
    name, template, tmp_path
):
    template_path, history_id = template
    overrides, pin_order = SESSIONS[name]
    spec = SessionSpec(**dict(SPEC, **overrides))

    path = str(tmp_path / "reference.sqlite")
    copy_template(template_path, path)
    with TrialDatabase(path) as database:
        session_id = SessionStore(database).create(spec)
        counter = DyingConnection(database._connection)
        database._connection = counter
        reference = run(database, session_id, pin_order)
        database._connection = counter._connection
        expected = summary(SessionStore(database).get(session_id))
        expected_rows = merged_rows(database, history_id)
    assert len(expected_rows) == len(reference.trials) == SPEC["max_trials"]

    rng = random.Random(f"crash-sweep:{name}")
    points = sorted(rng.sample(range(1, counter.statements + 1), CRASH_POINTS))
    for die_at in points:
        path = str(tmp_path / f"crash-{die_at}.sqlite")
        copy_template(template_path, path)
        database = TrialDatabase(path)
        session_id = SessionStore(database).create(spec)
        raw = database._connection
        database._connection = DyingConnection(raw, die_at)
        with pytest.raises(Crash):
            run(database, session_id, pin_order)
        raw.close()

        with TrialDatabase(path) as database:
            queue = JobQueue(database)
            done_before = {
                job.trial_id: (job.attempts, job.finished_at)
                for job in queue.jobs_for(session_id, DONE)
            }
            # The dead process's leases: released as the janitor would
            # once their TTL and the retry backoff had both run out.
            queue.reclaim_owner("inline", now=time.time() - BACKOFF_CAP_S)
            store = SessionStore(database)
            if store.get(session_id).state != S_DONE:
                resumed = run(database, session_id, pin_order)
                assert fingerprint(resumed) == fingerprint(reference), die_at
            record = store.get(session_id)
            assert record.state == S_DONE, die_at
            assert summary(record) == expected, die_at
            done_after = {
                job.trial_id: (job.attempts, job.finished_at)
                for job in queue.jobs_for(session_id, DONE)
            }
            for trial_id, before in done_before.items():
                assert done_after[trial_id] == before, (die_at, trial_id)
            assert merged_rows(database, history_id) == expected_rows, die_at
        for leftover in (path, path + "-wal", path + "-shm"):
            if os.path.exists(leftover):
                os.remove(leftover)
        shutil.rmtree(path + ".artifacts")
