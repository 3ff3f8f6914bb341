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
training, artifact writes, inference tuning and merges.  The
``bohb-memoized`` session starts from a template whose store holds every
trial of its spec: nothing is queued, each wave merges in one
transaction, and sampled kills land inside multi-trial merge commits.
For every crash point the resumed session must

* equal the uninterrupted run (the goldens fingerprint, virtual timeline
  included; and the stored result summary);
* leave every job that was ``done`` before the crash untouched
  (``attempts``, ``finished_at``);
* leave exactly one ``trials`` row per integrated trial, in merge order.
"""

import os
import random
import shutil

import pytest

from repro.service import JobQueue, SessionCoordinator, SessionSpec, SessionStore
from repro.service.queue import BACKOFF_CAP_S, DONE
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase
from tests.clocks import offset_clock  # noqa: F401 (fixture)
from tests.test_session_goldens import fingerprint

SPEC = dict(workload="NLP", device="armv7", seed=7, samples=60, max_trials=12)

#: name -> (spec overrides, pin_order, template fixture).
SESSIONS = {
    "bohb": ({}, False, "template"),
    "bohb-memoized": ({}, False, "memo_template"),
    "asha-pinned": ({"scheduler": "asha"}, True, "template"),
    "asha": ({"scheduler": "asha"}, False, "template"),
    "warm-start": ({"warm_start": True}, False, "template"),
}

#: Crash points sampled per session.
CRASH_POINTS = 20


class Crash(BaseException):
    """The process died: not an ``Exception``, so nothing catches it."""


class DyingConnection:
    """A sqlite3 connection that dies at its ``die_at``-th ``execute``.

    Counts every ``execute`` (``BEGIN``/``COMMIT`` included) and keeps
    the first three words of each executed statement in :attr:`verbs`;
    ``die_at`` ``None`` never dies.
    """

    def __init__(self, connection, die_at=None):
        self._connection = connection
        self.die_at = die_at
        self.statements = 0
        self.verbs = []

    def execute(self, sql, *args):
        self.statements += 1
        if self.die_at is not None and self.statements >= self.die_at:
            raise Crash(self.statements)
        self.verbs.append(" ".join(sql.split()[:3]))
        return self._connection.execute(sql, *args)

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


@pytest.fixture(scope="module")
def memo_template(template, tmp_path_factory):
    """The template after one more BOHB session of the spec: its store
    holds every trial a BOHB session of the spec draws."""
    path = str(tmp_path_factory.mktemp("sweep-memo") / "template.sqlite")
    copy_template(template[0], path)
    with TrialDatabase(path) as database:
        session_id = SessionStore(database).create(SessionSpec(**SPEC))
        run(database, session_id, False)
        (last,) = database.execute("SELECT MAX(id) FROM trials").fetchone()
    return path, last


def run_reference(template_path, spec, pin_order, path):
    """Run ``spec`` uninterrupted on a copy of the template: its result,
    stored summary, history rows and statement counter."""
    copy_template(template_path, path)
    with TrialDatabase(path) as database:
        session_id = SessionStore(database).create(spec)
        counter = DyingConnection(database._connection)
        database._connection = counter
        reference = run(database, session_id, pin_order)
        database._connection = counter._connection
        expected = summary(SessionStore(database).get(session_id))
    return reference, expected, counter


def crash_at(template_path, spec, pin_order, path, die_at):
    """Run ``spec`` on a copy of the template until its ``die_at``-th
    statement kills it; the session id."""
    copy_template(template_path, path)
    database = TrialDatabase(path)
    session_id = SessionStore(database).create(spec)
    raw = database._connection
    database._connection = DyingConnection(raw, die_at)
    with pytest.raises(Crash):
        run(database, session_id, pin_order)
    raw.close()
    return session_id


def resume(database, session_id, pin_order, clock):
    """Release the dead process's leases — as the janitor would once
    their TTL had run out — move ``clock`` past the retry backoff, and
    run the session to completion again; the result."""
    JobQueue(database).reclaim_owner("inline")
    clock.advance(BACKOFF_CAP_S)
    return run(database, session_id, pin_order)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_every_sampled_crash_point_resumes_to_the_uninterrupted_run(
    name, request, tmp_path, offset_clock
):
    overrides, pin_order, fixture = SESSIONS[name]
    template_path, history_id = request.getfixturevalue(fixture)
    spec = SessionSpec(**dict(SPEC, **overrides))

    path = str(tmp_path / "reference.sqlite")
    reference, expected, counter = run_reference(
        template_path, spec, pin_order, path
    )
    with TrialDatabase(path) as database:
        expected_rows = merged_rows(database, history_id)
    assert len(expected_rows) == len(reference.trials) == SPEC["max_trials"]

    rng = random.Random(f"crash-sweep:{name}")
    points = sorted(rng.sample(range(1, counter.statements + 1), CRASH_POINTS))
    for die_at in points:
        path = str(tmp_path / f"crash-{die_at}.sqlite")
        session_id = crash_at(template_path, spec, pin_order, path, die_at)

        with TrialDatabase(path) as database:
            queue = JobQueue(database)
            done_before = {
                job.trial_id: (job.attempts, job.finished_at)
                for job in queue.jobs_for(session_id, DONE)
            }
            store = SessionStore(database)
            if store.get(session_id).state != S_DONE:
                resumed = resume(
                    database, session_id, pin_order, offset_clock
                )
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


def test_kill_between_two_merges_of_one_batch_loses_the_whole_batch(
    memo_template, tmp_path, offset_clock
):
    """A fully memoized BOHB session merges its first wave in one
    commit.  Killed right after that commit's first merge note, before
    the second merge's first statement, it keeps no ``trials`` row and
    no note of the batch, and resumes to the uninterrupted run."""
    template_path, history_id = memo_template
    spec = SessionSpec(**SPEC)
    reference, expected, counter = run_reference(
        template_path, spec, False, str(tmp_path / "reference.sqlite")
    )
    verbs = counter.verbs
    first_note = verbs.index("INSERT INTO merge_notes")
    commit = verbs.index("COMMIT", first_note)
    batch = verbs[first_note:commit]
    assert batch.count("INSERT INTO merge_notes") >= 2, batch

    path = str(tmp_path / "crash.sqlite")
    # ``verbs`` is 0-based, ``die_at`` counts from 1: the second merge's
    # first statement, the one after the first note, never runs.
    session_id = crash_at(template_path, spec, False, path, first_note + 2)
    with TrialDatabase(path) as database:
        assert merged_rows(database, history_id) == []
        assert database.execute(
            "SELECT COUNT(*) FROM merge_notes WHERE session_id = ?",
            (session_id,),
        ).fetchone() == (0,)
        resumed = resume(database, session_id, False, offset_clock)
        assert fingerprint(resumed) == fingerprint(reference)
        assert summary(SessionStore(database).get(session_id)) == expected
        assert len(merged_rows(database, history_id)) == SPEC["max_trials"]
