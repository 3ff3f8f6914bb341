"""Deterministic cost pins for a cold and a memoized session (the first
pin of this kind is ``test_nn_step_cost.py``).

A session's wall time is noise on a shared machine; what it *does* is
not.  This runs one spec-R session (77 BOHB trials) cold on a file
database through the inline coordinator, then twice more — every trial
now memoized — and counts, for each run:

* ``statements`` — every SQL statement sqlite executes on the session's
  connection (``sqlite3`` trace callback), ``BEGIN``/``COMMIT`` aside;
* ``commits`` — explicit ``COMMIT``s plus the write statements that ran
  outside a transaction (autocommit: each is its own commit);
* ``checkpoints`` — ``SessionStore.save_checkpoint`` calls;
* ``leases`` — ``JobQueue.lease`` calls;
* ``trainings`` — ``train_model`` calls;
* ``steps`` — ``SGD.step`` + ``Adam.step`` calls.

The two memoized runs must count identically (the path has no timing in
it: nothing is queued, so the coordinator never waits), and at *equal or
lower* than the pins.  A change that sends a memoized trial back through
the queue, re-reads its artifact, or commits per trial instead of per
wave fails here in about a second, on any machine.  The cold run has
its own pins: one more statement, commit or optimizer step per trial
shows there.
"""

import repro.core.model_server as model_server
from repro.nn.optimizers import SGD, Adam
from repro.service import (
    JobQueue, SessionCoordinator, SessionSpec, SessionStore,
)
from repro.storage import TrialDatabase

SPEC = dict(workload="NLP", device="armv7", seed=7, samples=400)

#: Measured after PR 23 (memo before dispatch).  The parent commit read,
#: with this same counter: statements 1,029, commits 419, checkpoints 92,
#: leases 77, trainings 0 — every memoized trial was enqueued, leased,
#: probed (``SELECT`` + ``UPDATE hits``), completed and counted on its
#: machine row, each in a commit of its own.  (The cold run went
#: 1,045 -> 1,199 statements at 419 commits: one indexed miss per
#: trial in the coordinator's probe and one in the worker's.)  Lower a
#: pin when the session gets cheaper; never raise one to make a change
#: pass.
PINS = {
    "statements": 644,
    "commits": 111,
    "checkpoints": 92,
    "leases": 0,
    "trainings": 0,
    "steps": 0,
}

#: The cold run, measured with the same counters: every trial leased
#: (77) and trained, 3,416 optimizer steps in all.  Same rule as above.
COLD_PINS = {
    "statements": 1201,
    "commits": 421,
    "checkpoints": 92,
    "steps": 3416,
}


class SqlCounter:
    """Trace callback counting statements and commits (see above)."""

    WRITES = ("INSERT", "UPDATE", "DELETE", "REPLACE")

    def __init__(self):
        self.statements = 0
        self.commits = 0
        self._in_transaction = False

    def __call__(self, sql):
        verb = sql.lstrip().split(None, 1)[0].upper()
        if verb == "BEGIN":
            self._in_transaction = True
        elif verb in ("COMMIT", "ROLLBACK"):
            self._in_transaction = False
            self.commits += verb == "COMMIT"
        else:
            self.statements += 1
            if not self._in_transaction and verb in self.WRITES:
                self.commits += 1


def counting(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def run_counted(database, monkeypatch):
    counts = {"checkpoints": 0, "leases": 0, "trainings": 0, "steps": 0}
    sql = SqlCounter()
    with monkeypatch.context() as patch:
        counting(patch, SessionStore, "save_checkpoint", counts, "checkpoints")
        counting(patch, JobQueue, "lease", counts, "leases")
        counting(patch, model_server, "train_model", counts, "trainings")
        counting(patch, SGD, "step", counts, "steps")
        counting(patch, Adam, "step", counts, "steps")
        session_id = SessionStore(database).create(SessionSpec(**SPEC))
        database._connection.set_trace_callback(sql)
        try:
            result = SessionCoordinator(
                database, session_id, workers=0
            ).run()
        finally:
            database._connection.set_trace_callback(None)
    counts.update(statements=sql.statements, commits=sql.commits)
    return counts, len(result.trials)


def test_memoized_session_costs_what_is_pinned(tmp_path, monkeypatch):
    with TrialDatabase(str(tmp_path / "svc.sqlite")) as database:
        cold, trials = run_counted(database, monkeypatch)
        assert cold["trainings"] == cold["leases"] == trials == 77
        first, _ = run_counted(database, monkeypatch)
        second, _ = run_counted(database, monkeypatch)
    for name, pin in COLD_PINS.items():
        assert cold[name] <= pin, ("cold", name, cold[name], pin)
    assert first == second
    for name, pin in PINS.items():
        assert first[name] <= pin, (name, first[name], pin)
