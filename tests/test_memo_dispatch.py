"""Memo before dispatch: a trial whose artifact the coordinator's own
store holds is settled at issue time and never crosses the queue.

Everything here runs the real :class:`SessionCoordinator` (and, for the
fleet cases, the real :class:`FleetServer`) on a file database.  The
contract under test: a settled job row holds its result by reference
(``jobs.result`` is NULL; the artifact store keeps the one copy) and
the evaluation merged for it is the cold run's, field for field and
``model_blob`` byte for byte; a trial the store cannot answer — evicted,
corrupt, at issue or on resume — is dispatched cold; and no
verification is traded for the shortcut.
"""

import dataclasses
import os
import pickle
import shutil
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.artifacts import ArtifactStore, trial_key
from repro.core.model_server import ModelTuningServer, TrialTask
from repro.fleet.host import RemoteHost
from repro.fleet.server import FleetServer
from repro.service import (
    JobQueue, SessionCoordinator, SessionSpec, SessionStore,
)
from repro.service.queue import DONE, MEMO_OWNER, QUEUED
from repro.service.sessions import S_DONE
from repro.storage import TrialDatabase

#: Spec R of the session benchmark, capped: recurrent, serial-only, ~20 ms
#: a trial — two whole rungs and the start of a third.
SPEC = dict(workload="NLP", device="armv7", seed=7, samples=400,
            max_trials=24)
TRIAL_IDS = range(SPEC["max_trials"])


def submit(database, **overrides):
    return SessionStore(database).create(SessionSpec(**dict(SPEC, **overrides)))


def run_inline(database, session_id, **options):
    return SessionCoordinator(
        database, session_id, workers=0, **options
    ).run()


def warm_fingerprint(result):
    """What a resubmitted session must repeat exactly (it finds the
    inference cache warm, so the stall timeline legitimately differs)."""
    return (
        [(t.trial_id, t.score, t.accuracy) for t in result.trials],
        result.best_configuration,
        result.best_accuracy,
        result.best_score,
    )


def job_rows(database, session_id):
    return {
        job.trial_id: job for job in JobQueue(database).jobs_for(session_id)
    }


def job_keys(database, session_id):
    """``trial_id -> artifact key`` of a session's jobs."""
    return {
        trial_id: trial_key(TrialTask.from_json(job.payload))
        for trial_id, job in job_rows(database, session_id).items()
    }


def run_recording(database, session_id, **options):
    """Run the session inline: its result, and the evaluation each merge
    integrated, by trial id."""
    merged = {}
    real = ModelTuningServer.integrate

    def integrate(server, state, trial, evaluation, *args, **kwargs):
        merged[trial.trial_id] = evaluation
        return real(server, state, trial, evaluation, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModelTuningServer, "integrate", integrate)
        result = run_inline(database, session_id, **options)
    return result, merged


def fields(evaluation):
    return {
        field.name: getattr(evaluation, field.name)
        for field in dataclasses.fields(evaluation)
    }


def assert_by_reference(database, session_id, merged, cold_results):
    """Memo rows hold no result, rows a worker completed hold the cold
    run's blob, and every merged evaluation is the one the cold run's
    worker sent: field for field, ``model_blob`` bytes included."""
    rows = job_rows(database, session_id)
    assert rows.keys() == merged.keys() == cold_results.keys()
    for trial_id, job in rows.items():
        cold = cold_results[trial_id]
        if job.lease_owner == MEMO_OWNER:
            assert job.result is None, trial_id
        else:
            assert job.result == cold, trial_id
        assert fields(merged[trial_id]) == fields(pickle.loads(cold)), (
            trial_id
        )


@pytest.fixture()
def cold(tmp_path):
    """A file database holding one finished cold session."""
    database = TrialDatabase(str(tmp_path / "svc.sqlite"))
    session_id = submit(database)
    result = run_inline(database, session_id)
    yield database, session_id, result
    database.close()


@pytest.fixture(scope="module")
def cold_template(tmp_path_factory):
    """The same, closed, for tests that run on private copies of it."""
    directory = tmp_path_factory.mktemp("cold")
    path = str(directory / "svc.sqlite")
    with TrialDatabase(path) as database:
        session_id = submit(database)
        result = run_inline(database, session_id)
        keys = job_keys(database, session_id)
        rows = {
            trial_id: (job.result, keys[trial_id])
            for trial_id, job in job_rows(database, session_id).items()
        }
    return path, warm_fingerprint(result), rows


def copy_of(template_path, directory):
    path = os.path.join(directory, "svc.sqlite")
    shutil.copy(template_path, path)
    shutil.copytree(template_path + ".artifacts", path + ".artifacts")
    return path


class TestSettledAtIssue:
    def test_resubmitted_session_is_settled_without_a_lease(self, cold):
        database, first, result = cold
        hits_before = ArtifactStore(database).stats()["hits"]
        second = submit(database)
        again = run_inline(database, second)
        assert warm_fingerprint(again) == warm_fingerprint(result)
        rows = job_rows(database, second)
        assert len(rows) == len(result.trials)
        for job in rows.values():
            assert (job.state, job.lease_owner, job.attempts) == (
                DONE, MEMO_OWNER, 1
            )
            assert job.created_at == job.started_at == job.finished_at
            assert job.lease_expires_at is None and job.error is None
        # One verified, counted read per settled trial — the same
        # accounting a worker's hit gets — and no miss recorded.
        stats = ArtifactStore(database).stats()
        assert stats["hits"] == hits_before + len(rows)
        assert stats["quarantined"] == 0
        # The operator sees it: one ``memo`` row in the worker stats.
        summary = SessionStore(database).get(second).result
        assert summary["worker_stats"] == [
            {"worker": MEMO_OWNER, "jobs_done": len(rows), "busy_s": 0.0}
        ]

    def test_memo_rows_hold_no_result_and_merge_the_cold_one(self, cold):
        """``integrate`` must see the very ``model_blob`` the cold run's
        worker sent; the memo row itself keeps no copy of it."""
        database, first, _ = cold
        second = submit(database)
        _, merged = run_recording(database, second)
        before, after = job_rows(database, first), job_rows(database, second)
        assert before.keys() == after.keys()
        for trial_id, job in before.items():
            assert job.lease_owner == "inline" and job.result is not None
            assert after[trial_id].lease_owner == MEMO_OWNER
            assert after[trial_id].payload == job.payload
        assert_by_reference(
            database, second, merged,
            {t: job.result for t, job in before.items()},
        )

    def test_probe_does_not_count_a_miss(self, tmp_path):
        """``count_miss=False``: the coordinator's miss only means
        "dispatch it"; the worker that runs the trial counts it, once."""
        with TrialDatabase(str(tmp_path / "svc.sqlite")) as database:
            store = ArtifactStore(database)
            assert store.load_result("absent", count_miss=False) is None
            assert store.load_result("absent") is None
            assert (store.session_hits, store.session_misses) == (0, 1)

    def test_asha_decision_log_repeats(self, tmp_path):
        """Pinned-order ASHA: the resubmitted session's promotion log is
        the cold one's, entry for entry."""
        logs = []
        with TrialDatabase(str(tmp_path / "svc.sqlite")) as database:
            for _ in range(2):
                session_id = submit(
                    database, scheduler="asha", num_configs=6,
                    max_trials=None,
                )
                run_inline(database, session_id, pin_order=True)
                logs.append(
                    SessionStore(database).get(session_id).result[
                        "decision_log"
                    ]
                )
            owners = {
                job.lease_owner
                for job in JobQueue(database).jobs_for(session_id)
            }
        assert logs[0] and logs[0] == logs[1]
        assert owners == {MEMO_OWNER}


    def test_memo_hits_merge_without_reading_their_rows(
        self, cold, monkeypatch
    ):
        """The coordinator merges a trial it settled from the blob it
        still holds: no ``settled`` probe, no ``results_for``."""
        database, _, result = cold

        def unread(*args, **kwargs):
            raise AssertionError("a memo hit was read back from its row")

        monkeypatch.setattr(JobQueue, "settled", unread)
        monkeypatch.setattr(JobQueue, "results_for", unread)
        again = run_inline(database, submit(database))
        assert warm_fingerprint(again) == warm_fingerprint(result)


class TestMergeCommits:
    """Which merges share a commit, on a fully memoized resubmit: every
    trial of a wave is settled at issue, the case a batch is for."""

    @staticmethod
    def events(database, session_id, monkeypatch, **options):
        """``BEGIN`` / ``COMMIT`` / ``note`` (a merge note written) and
        ``next_trials`` calls, in the order the session made them."""
        events = []

        def trace(sql):
            words = sql.split()
            if words[0] in ("BEGIN", "COMMIT"):
                events.append(words[0])
            elif words[:3] == ["INSERT", "INTO", "merge_notes"]:
                events.append("note")

        real = ModelTuningServer.next_trials

        def next_trials(server, *args, **kwargs):
            events.append("next_trials")
            return real(server, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(ModelTuningServer, "next_trials", next_trials)
            database._connection.set_trace_callback(trace)
            try:
                result = run_inline(database, session_id, **options)
            finally:
                database._connection.set_trace_callback(None)
        owners = {job.lease_owner for job in
                  job_rows(database, session_id).values()}
        assert owners == {MEMO_OWNER}
        return events, len(result.trials)

    @staticmethod
    def notes_per_commit(events):
        counts, notes = [], 0
        for event in events:
            if event == "note":
                notes += 1
            elif event == "COMMIT":
                if notes:
                    counts.append(notes)
                notes = 0
        return counts

    def test_barrier_merges_a_settled_wave_in_one_commit(
        self, cold, monkeypatch
    ):
        database, _, _ = cold
        events, trials = self.events(database, submit(database), monkeypatch)
        counts = self.notes_per_commit(events)
        assert sum(counts) == trials
        assert max(counts) > 1 and len(counts) < trials

    @pytest.mark.parametrize("pin_order", [False, True])
    def test_async_merges_one_trial_per_commit(
        self, tmp_path, monkeypatch, pin_order
    ):
        """ASHA must see each result before it is asked for more: a
        promotion the merge unlocks reaches the queue before the next
        merge, so batching its merges would change the schedule."""
        asha = dict(scheduler="asha", num_configs=6, max_trials=None)
        with TrialDatabase(str(tmp_path / "svc.sqlite")) as database:
            run_inline(database, submit(database, **asha), pin_order=pin_order)
            events, trials = self.events(
                database, submit(database, **asha), monkeypatch,
                pin_order=pin_order,
            )
        assert self.notes_per_commit(events) == [1] * trials
        merges = [i for i, event in enumerate(events) if event == "note"]
        for before, after in zip(merges, merges[1:]):
            assert "next_trials" in events[before:after], (before, after)


class TestPartialStore:
    @settings(max_examples=8, deadline=None)
    @given(st.sets(st.sampled_from(TRIAL_IDS)))
    @example(set())
    @example(set(TRIAL_IDS))
    def test_evicted_subset_is_dispatched_the_rest_settled(
        self, cold_template, evicted
    ):
        template, reference, rows = cold_template
        with tempfile.TemporaryDirectory() as directory:
            path = copy_of(template, directory)
            with TrialDatabase(path) as database:
                gone = [rows[t][1] for t in sorted(evicted)]
                database.execute(
                    "DELETE FROM artifacts WHERE key IN (%s)"
                    % ",".join("?" for _ in gone),
                    tuple(gone),
                )
                session_id = submit(database)
                result, merged = run_recording(database, session_id)
                assert warm_fingerprint(result) == reference
                for trial_id, job in job_rows(database, session_id).items():
                    wanted = "inline" if trial_id in evicted else MEMO_OWNER
                    assert job.lease_owner == wanted
                assert_by_reference(
                    database, session_id, merged,
                    {t: row[0] for t, row in rows.items()},
                )
                # The dispatched trials re-stored what was evicted.
                assert ArtifactStore(database).stats()["entries"] == len(rows)


class TestCorruption:
    def test_fault_site_quarantines_and_dispatches_cold(self, tmp_path):
        """``artifact.corrupt_blob`` fires in the coordinator's probe:
        the blob is quarantined there, the trial trains again on the
        worker and the store ends up repaired."""
        # Both sessions run under the plan: it is part of every key.
        faults.configure(
            "seed=5;artifact.corrupt_blob=0.3", propagate=False
        )
        try:
            with TrialDatabase(str(tmp_path / "svc.sqlite")) as database:
                first = submit(database)
                reference = run_inline(database, first)
                second = submit(database)
                result, merged = run_recording(database, second)
                store = ArtifactStore(database)
                owners = [
                    job.lease_owner
                    for job in job_rows(database, second).values()
                ]
                cold_again = owners.count("inline")
                assert 0 < cold_again < len(owners)
                assert owners.count(MEMO_OWNER) == len(owners) - cold_again
                assert store.stats()["quarantined"] == cold_again
                assert store.stats()["entries"] == len(owners)
                assert warm_fingerprint(result) == warm_fingerprint(reference)
                assert_by_reference(database, second, merged, {
                    t: job.result
                    for t, job in job_rows(database, first).items()
                })
        finally:
            faults.configure(None)

    def test_flipped_byte_on_disk_degrades_to_a_cold_run(self, cold):
        database, first, reference = cold
        keys = job_keys(database, first)
        store = ArtifactStore(database)
        hurt = {3, 11}
        for trial_id in hurt:
            flip_a_byte(os.path.join(store.blob_dir, keys[trial_id] + ".bin"))
        second = submit(database)
        result, merged = run_recording(database, second)
        assert warm_fingerprint(result) == warm_fingerprint(reference)
        rows, first_rows = job_rows(database, second), job_rows(database, first)
        assert {
            t for t, job in rows.items() if job.lease_owner == "inline"
        } == hurt
        assert_by_reference(database, second, merged, {
            t: job.result for t, job in first_rows.items()
        })
        assert store.stats()["quarantined"] == len(hurt)
        for trial_id in hurt:
            assert os.path.exists(os.path.join(
                store.blob_dir, "quarantine", keys[trial_id] + ".bin"
            ))
        # Repaired: a clean scrub, every key back and verified.
        report = store.scrub()
        assert report["verified"] == report["scanned"] == len(rows)
        assert report["quarantined"] == report["missing"] == 0


class Killed(BaseException):
    """Not an ``Exception``: nothing in the coordinator may catch it, as
    nothing catches ``kill -9``."""


def die(*args, **kwargs):
    raise Killed()


def flip_a_byte(path):
    with open(path, "rb") as handle:
        payload = bytearray(handle.read())
    payload[len(payload) // 2] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(payload)


class TestCrashDrills:
    def test_storage_io_in_the_issue_transaction_rolls_back_both(
        self, cold, monkeypatch
    ):
        """The wave's settled rows and its queued rows commit together
        or not at all — and so do the hit counts of the probes."""
        database, first, _ = cold
        keys = job_keys(database, first)
        # Evict trial 5: the first wave becomes settle x5, enqueue, ...
        database.execute(
            "DELETE FROM artifacts WHERE key = ?", (keys[5],)
        )
        hits_before = ArtifactStore(database).stats()["hits"]
        second = submit(database)
        coordinator = SessionCoordinator(database, second, workers=0)
        real_enqueue = JobQueue.enqueue

        def failing_disk(queue, *args, **kwargs):
            # The disk dies under the wave's first enqueue: every retry
            # of the statement hits the ``storage.io`` site.
            faults.configure("seed=1;storage.io=1.0", propagate=False)
            try:
                return real_enqueue(queue, *args, **kwargs)
            finally:
                faults.configure(None)

        monkeypatch.setattr(JobQueue, "enqueue", failing_disk)
        with pytest.raises(Exception, match="disk I/O error"):
            coordinator.run()
        monkeypatch.undo()
        assert job_rows(database, second) == {}
        assert ArtifactStore(database).stats()["hits"] == hits_before

        result = SessionCoordinator(database, second, workers=0).run()
        rows = job_rows(database, second)
        assert rows[5].lease_owner == "inline"
        assert {
            job.lease_owner for t, job in rows.items() if t != 5
        } == {MEMO_OWNER}
        assert len(result.trials) == len(rows)

    def test_killed_between_issue_and_first_merge_resumes_identically(
        self, cold, monkeypatch
    ):
        database, first, reference = cold
        second = submit(database)
        monkeypatch.setattr(ModelTuningServer, "integrate", die)
        with pytest.raises(Killed):
            run_inline(database, second)
        monkeypatch.undo()
        store = SessionStore(database)
        assert store.get(second).state == "running"
        assert store.get(second).resumable
        settled = {
            t: (job.lease_owner, job.finished_at)
            for t, job in job_rows(database, second).items()
        }
        assert settled  # the issue committed before the kill
        assert {owner for owner, _ in settled.values()} == {MEMO_OWNER}
        assert database.trial_count() == len(reference.trials)  # first only

        resumed, merged = run_recording(database, second)
        assert warm_fingerprint(resumed) == warm_fingerprint(reference)
        assert store.get(second).state == S_DONE
        rows = job_rows(database, second)
        # The first wave's rows are the ones settled before the kill.
        for trial_id, (owner, finished_at) in settled.items():
            assert (rows[trial_id].lease_owner, rows[trial_id].finished_at) == (
                owner, finished_at
            )
        assert_by_reference(database, second, merged, {
            t: job.result for t, job in job_rows(database, first).items()
        })

    def test_resume_runs_cold_what_the_store_lost_since_the_kill(
        self, cold, monkeypatch
    ):
        """Killed between issue and first merge, the settled wave's rows
        hold results by reference only.  Two of those artifacts are then
        deleted and a third one's sidecar file is damaged: the resume
        sends exactly those three back to the queue and runs them cold,
        and ends where the uninterrupted run does."""
        database, first, reference = cold
        second = submit(database)
        monkeypatch.setattr(ModelTuningServer, "integrate", die)
        with pytest.raises(Killed):
            run_inline(database, second)
        monkeypatch.undo()
        settled = {
            t: (job.lease_owner, job.finished_at)
            for t, job in job_rows(database, second).items()
        }
        assert len(settled) >= 3
        assert {owner for owner, _ in settled.values()} == {MEMO_OWNER}
        keys = job_keys(database, second)
        deleted, flipped = sorted(settled)[:2], sorted(settled)[-1]
        database.execute(
            "DELETE FROM artifacts WHERE key IN (?, ?)",
            tuple(keys[t] for t in deleted),
        )
        store = ArtifactStore(database)
        flip_a_byte(os.path.join(store.blob_dir, keys[flipped] + ".bin"))

        resumed, merged = run_recording(database, second)
        assert warm_fingerprint(resumed) == warm_fingerprint(reference)
        assert SessionStore(database).get(second).state == S_DONE
        rows = job_rows(database, second)
        lost = {*deleted, flipped}
        assert {
            t for t, job in rows.items() if job.lease_owner == "inline"
        } == lost
        for trial_id in lost:
            assert rows[trial_id].attempts == 1
        for trial_id, (owner, finished_at) in settled.items():
            if trial_id not in lost:
                assert (
                    rows[trial_id].lease_owner, rows[trial_id].finished_at
                ) == (owner, finished_at)
        assert store.stats()["quarantined"] == 1
        assert store.stats()["entries"] == len(rows)
        assert_by_reference(database, second, merged, {
            t: job.result for t, job in job_rows(database, first).items()
        })

    def test_merged_memo_row_whose_artifact_is_gone_replays_its_note(
        self, cold, monkeypatch
    ):
        """Killed after the first wave merged, a merged memo row whose
        artifact has since gone is run cold again, then replayed from
        its merge note: no second history row, the same result."""
        database, first, reference = cold
        second = submit(database)
        real = ModelTuningServer.integrate
        waves = []

        def die_on_the_second_wave(server, state, trial, *args, **kwargs):
            if (trial.bracket, trial.rung) not in waves:
                waves.append((trial.bracket, trial.rung))
            if len(waves) > 1:
                raise Killed()
            return real(server, state, trial, *args, **kwargs)

        monkeypatch.setattr(
            ModelTuningServer, "integrate", die_on_the_second_wave
        )
        with pytest.raises(Killed):
            run_inline(database, second)
        monkeypatch.undo()
        noted = [
            trial_id for (trial_id,) in database.execute(
                "SELECT trial_id FROM merge_notes WHERE session_id = ? "
                "ORDER BY merge_seq", (second,),
            ).fetchall()
        ]
        assert len(noted) >= 2
        history = database.trial_count()
        keys = job_keys(database, second)
        gone = noted[:2]
        database.execute(
            "DELETE FROM artifacts WHERE key IN (?, ?)",
            tuple(keys[t] for t in gone),
        )

        resumed, merged = run_recording(database, second)
        assert warm_fingerprint(resumed) == warm_fingerprint(reference)
        rows = job_rows(database, second)
        assert {
            t for t, job in rows.items() if job.lease_owner == "inline"
        } == set(gone)
        assert database.trial_count() == (
            history + len(resumed.trials) - len(noted)
        )
        assert_by_reference(database, second, merged, {
            t: job.result for t, job in job_rows(database, first).items()
        })


# -- the fleet ---------------------------------------------------------------------
@pytest.fixture()
def hub(tmp_path):
    """A serving hub on a file database, no host registered."""
    database = TrialDatabase(str(tmp_path / "hub.sqlite"))
    server = FleetServer(database, port=0)
    thread = threading.Thread(
        target=server.serve_until_drained, daemon=True
    )
    thread.start()
    yield server
    server.initiate_drain()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    database.close()


class TestFleet:
    def test_resubmitted_session_finishes_with_no_host_alive(self, hub):
        database = hub.database
        first = run_inline(database, submit(database))
        # The only machine on record is the first session's inline worker.
        machines = {m.id: m.jobs_done for m in hub.registry.list()}
        assert set(machines) == {"inline"}
        second = submit(database)
        (result,) = hub.run_sessions(drain=True)
        assert warm_fingerprint(result) == warm_fingerprint(first)
        assert SessionStore(database).get(second).state == S_DONE
        assert {m.id: m.jobs_done for m in hub.registry.list()} == machines
        # No job was leased (a lease bumps attempts; a memo settle is
        # one attempt by the memo owner) and none was completed by a host
        # (``jobs_done`` is unchanged above).
        assert database.execute(
            "SELECT COALESCE(SUM(attempts), 0) FROM jobs "
            "WHERE session_id = ? AND lease_owner IS NOT ?",
            (second, MEMO_OWNER),
        ).fetchone() == (0,)
        assert JobQueue(database).depths(second)[QUEUED] == 0

    def test_host_counts_one_hit_per_memoized_trial(self, hub, cold):
        """A host that holds artifacts the hub lacks (its uploads were
        lost) completes those jobs from its own store: one counted read
        per trial, the stored bytes passed on unchanged."""
        source, first, _ = cold
        rows = job_rows(source, first)
        keys = job_keys(source, first)
        host = RemoteHost("machine-1", "127.0.0.1", hub.port)
        try:
            origin = ArtifactStore(source)
            for trial_id, key in keys.items():
                host.artifacts.put(key, origin.get(key))
            host.hub.register()
            for trial_id, job in rows.items():
                hub.queue.enqueue("s-host", trial_id, job.payload)
            hits_before = host.artifacts.stats()["hits"]
            while True:
                job = host.source.lease(0.0, threading.Event())
                if job is None:
                    break
                host.run_job(job)
            assert host.jobs_done == len(rows)
            assert host.artifacts.stats()["hits"] == hits_before + len(rows)
            assert host.hub.federation_hits == host.hub.federation_uploads == 0
        finally:
            host.close()
        done = job_rows(hub.database, "s-host")
        assert all(
            done[t].state == DONE and done[t].result == rows[t].result
            for t in rows
        )

    def test_prefetch_fetches_a_key_only_the_hub_holds(self, hub, cold):
        """The host-side federation fetch, directly: what is left for it
        is an artifact the hub gained after it issued the job."""
        source, first, _ = cold
        job = job_rows(source, first)[1]
        task = TrialTask.from_json(job.payload)
        key = trial_key(task)
        payload = ArtifactStore(source).get(key)
        hub.artifacts.put(key, payload, trial_id=task.trial_id)
        host = RemoteHost("machine-1", "127.0.0.1", hub.port)
        try:
            host.hub.register()
            assert host.artifacts.load_result(key) is None
            assert host._prefetch(task, key) is True
            assert host.hub.federation_hits == 1
            assert host.artifacts.get(key) == payload
            assert host.artifacts.load_result(key) == job.result
            assert hub.database.stats()["federation.hits"] == 1
            # A key nobody holds: a miss, counted on the hub.
            assert host._prefetch(task, "0" * 40) is False
            assert hub.database.stats()["federation.misses"] == 1
        finally:
            host.close()
