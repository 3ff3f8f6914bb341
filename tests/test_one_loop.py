"""One tuning loop: the in-process run and the service run are the same
:func:`repro.core.model_server.drive`, differing only in where the
evaluations come from.

Every scheduler therefore gives one result three ways: in process
(``EdgeTune.tune``), as an inline service session, and on a 2-worker
pool (asha with its completion order pinned, as its determinism
contract requires).  And :meth:`ModelTuningServer.integrate` writes
nothing: the caller writes the rows it returns.
"""

import pytest

from repro import EdgeTune
from repro.core.model_server import evaluate_trial
from repro.search import SCHEDULER_NAMES
from repro.service import SessionCoordinator, SessionSpec, SessionStore
from repro.storage import TrialDatabase

SPEC = dict(workload="IC", device="armv7", seed=7, samples=80, max_trials=16)


def fingerprint(result):
    return (
        [(t.trial_id, t.score, t.accuracy, t.stall_s) for t in result.trials],
        sorted(result.best_configuration.items()),
        result.best_accuracy,
        result.best_score,
        result.tuning_runtime_s,
        result.tuning_energy_j,
    )


def in_process(name):
    with TrialDatabase() as database:
        return EdgeTune(algorithm=name, database=database, **SPEC).tune()


def session(name, path, workers):
    with TrialDatabase(path) as database:
        session_id = SessionStore(database).create(
            SessionSpec(scheduler=name, **SPEC)
        )
        return SessionCoordinator(
            database, session_id, workers=workers, pin_order=name == "asha"
        ).run()


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_every_scheduler_gives_one_result_three_ways(name, tmp_path):
    bare = fingerprint(in_process(name))
    inline = fingerprint(session(name, ":memory:", 0))
    pooled = fingerprint(session(name, str(tmp_path / "s.sqlite"), 2))
    assert inline == bare
    assert pooled == bare


class ReadOnlyDatabase(TrialDatabase):
    """A trial database that, once ``refusing``, raises on ``execute`` and
    on any statement other than a ``SELECT``."""

    refusing = False

    def execute(self, sql, args=()):
        if self.refusing:
            raise AssertionError(f"execute({sql!r}) while refusing")
        return super().execute(sql, args)

    def _run(self, sql, args=()):
        if self.refusing and not sql.lstrip().upper().startswith("SELECT"):
            raise AssertionError(f"{sql!r} while refusing")
        return super()._run(sql, args)


def test_integrate_writes_nothing_and_write_writes_its_rows():
    with ReadOnlyDatabase() as database:
        server = EdgeTune(database=database, **SPEC).model_server
        state = server.prepare()
        wave = server.next_wave(state)
        evaluated = [
            (trial, *evaluate_trial(
                server.make_task(trial, state), state.train_set,
                state.eval_set, workload=server.workload,
            ))
            for trial in wave
        ]
        database.refusing = True
        merges = [
            server.integrate(state, trial, evaluation, model=model)
            for trial, evaluation, model in evaluated
        ]
        database.refusing = False
        assert database.trial_count() == 0
        assert database.inference_cache_size() == 0
        searched = [m.architecture_key for m in merges if m.architecture_key]
        assert searched and len(set(searched)) == len(searched)
        assert set(state.unstored) == set(searched)
        # A later trial of an architecture searched earlier in the wave
        # hits the search that is not written yet.
        assert any(m.note.inference.cache_hit for m in merges)
        for merge in merges:
            server.write(state, merge)
        assert state.unstored == {}
        assert database.trial_count() == len(merges)
        assert database.inference_cache_size() == len(searched)
