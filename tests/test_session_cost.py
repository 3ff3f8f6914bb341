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
* ``checkpoints`` / ``checkpoint_bytes`` — ``SessionStore.save_checkpoint``
  calls and the bytes they were handed (a never-called stub now: a
  session's durable state is its job log, so a run-state snapshot coming
  back fails here);
* ``stored_bytes`` — payload bytes ``ArtifactStore.put`` publishes (every
  ``store_trial`` of a cold trial);
* ``leases`` — ``JobQueue.lease`` calls;
* ``trainings`` — ``train_model`` calls;
* ``steps`` — ``SGD.step`` + ``Adam.step`` calls;
* ``loads`` — ``Workload.load`` calls (synthetic datasets built);
* ``instantiations`` — ``ModelFamily.instantiate`` calls (models built,
  sizing probes included);
* ``db_bytes`` (memoized only) — how much the database file grew over
  the first memoized run: ``page_count × page_size`` after a
  ``PRAGMA wal_checkpoint(TRUNCATE)``, before and after.  It is what a
  long-lived hub's file gains per resubmitted session.

The two memoized runs must count identically (the path has no timing in
it: nothing is queued, so the coordinator never waits), and at *equal or
lower* than the pins.  All three share one process, as sessions on a
long-lived hub do: a memoized run rebuilds no dataset and no probe
model, because the process-wide memos already hold them.  A change that
sends a memoized trial back through the queue, re-reads its artifact
or its job row, or commits per trial instead of per wave fails here in
about a second, on any machine.  The cold run has its own pins: one
more statement, commit or optimizer step per trial shows there.
"""

import repro.core.model_server as model_server
from repro.artifacts import ArtifactStore
from repro.nn.models import ModelFamily
from repro.nn.optimizers import SGD, Adam
from repro.service import (
    JobQueue, SessionCoordinator, SessionSpec, SessionStore,
)
from repro.storage import TrialDatabase
from repro.workloads import Workload

SPEC = dict(workload="NLP", device="armv7", seed=7, samples=400)

#: Measured with the job log as a session's durable state.  History of
#: the memoized run: before memo-before-dispatch it read statements
#: 1,029 and commits 419 — every memoized trial was enqueued, leased,
#: probed, completed and counted on its machine row, each in a commit of
#: its own — and 77 leases; memo-before-dispatch brought it to 644 / 111.
#: Then a pickled run-state snapshot (~36 KB; 3.28 MB a session) was
#: written 92 times: after every merge, inside its transaction, and
#: after every wave's issue, autocommitted.  Stamping each merged job
#: row with a merge note instead gave 629 statements (-92 snapshot
#: writes, -1 snapshot read, +77 note writes, +1 read of the job log) and
#: 96 commits: one transaction per merge.  Those 77 merge commits took
#: 15.7 ms of a ~94 ms session, because each note was an UPDATE of the
#: job row holding the 13.5 KB result blob, which sqlite rewrote whole.
#: Now a note is a row of its own, a wave's settled trials merge in one
#: commit, and a memo hit merges from the blob the coordinator settled
#: it with: 474 statements (-77 ``settled`` probes, -77 ``results_for``
#: reads) and 34 commits (-62: one merge commit per wave, not per
#: trial).  A memo row then still carried a 13.5 KB copy of its result
#: that nothing read during the session: the file grew 1,171,456 bytes
#: a memoized session.  Now the row holds the result by reference (the
#: artifact store keeps the one copy) and grows the file by 98,304
#: bytes; statements and commits are unchanged.  The finished session
#: then no longer wrote its row to the deleted advisor's knowledge base:
#: 473 statements and 33 commits (-1 autocommitted ``INSERT OR REPLACE``;
#: that row was replaced in place, so the file grows the same).  Lower a
#: pin when the session gets cheaper; never raise one to make a change
#: pass.
PINS = {
    "statements": 473,
    "commits": 33,
    "db_bytes": 98304,
    "checkpoints": 0,
    "checkpoint_bytes": 0,
    "leases": 0,
    "trainings": 0,
    "steps": 0,
    "loads": 0,
    "instantiations": 0,
}

#: The cold run, measured with the same counters: every trial leased
#: (77) and trained, 3,416 optimizer steps in all, 1,043,168 payload
#: bytes published to the artifact store (was 1,201 statements / 421
#: commits with the snapshots).  One dataset build: the coordinator's
#: ``prepare`` and the inline worker's trials share the process memo
#: (two builds before they did).  Same rule as above: a barrier wave's
#: merges may share a commit, but not at the price of one more probe per
#: merge (+62 statements) on this path.  Then 1,185 / 406: the worker
#: probed each cold trial's key twice (once itself, once in
#: ``evaluate_trial``), and committed a completion and its machine's
#: ``jobs_done`` separately; one probe (-77 statements) and one commit
#: for both (-77 commits) give 1,108 / 329, and no knowledge-base row
#: on finish (-1 / -1) gives 1,107 / 328.  Then a cold trial's artifact
#: row joined its job's completion commit instead of autocommitting
#: (-77 commits), and a merge looked each architecture up in the
#: inference cache once, not again inside the search (-8 statements,
#: one per fresh search): 1,099 / 251.
COLD_PINS = {
    "statements": 1099,
    "commits": 251,
    "checkpoints": 0,
    "checkpoint_bytes": 0,
    "stored_bytes": 1043168,
    "steps": 3416,
    "loads": 1,
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


def counting(monkeypatch, owner, name, counts, key, size_of=None):
    """Count calls of ``owner.name`` into ``counts[key]`` — or, given
    ``size_of``, add ``size_of(*args)`` instead."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1 if size_of is None else size_of(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def run_counted(database, monkeypatch):
    counts = {
        "checkpoints": 0, "checkpoint_bytes": 0, "stored_bytes": 0,
        "leases": 0, "trainings": 0, "steps": 0, "loads": 0,
        "instantiations": 0,
    }
    sql = SqlCounter()
    with monkeypatch.context() as patch:
        counting(patch, SessionStore, "save_checkpoint", counts, "checkpoints")
        counting(patch, SessionStore, "save_checkpoint", counts,
                 "checkpoint_bytes", lambda store, sid, blob: len(blob))
        counting(patch, ArtifactStore, "put", counts, "stored_bytes",
                 lambda store, key, payload, *rest: len(payload))
        counting(patch, JobQueue, "lease", counts, "leases")
        counting(patch, model_server, "train_model", counts, "trainings")
        counting(patch, SGD, "step", counts, "steps")
        counting(patch, Adam, "step", counts, "steps")
        counting(patch, Workload, "load", counts, "loads")
        counting(patch, ModelFamily, "instantiate", counts, "instantiations")
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


def file_bytes(database):
    """The database file's size once the WAL is folded into it."""
    database.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    (pages,) = database.execute("PRAGMA page_count").fetchone()
    (page_size,) = database.execute("PRAGMA page_size").fetchone()
    return pages * page_size


def test_memoized_session_costs_what_is_pinned(tmp_path, monkeypatch):
    # Empty process memos, whatever ran before in this process.
    monkeypatch.setattr(model_server, "_DATASET_CACHE", {})
    model_server.architecture_size.cache_clear()
    with TrialDatabase(str(tmp_path / "svc.sqlite")) as database:
        cold, trials = run_counted(database, monkeypatch)
        assert cold["trainings"] == cold["leases"] == trials == 77
        before = file_bytes(database)
        first, _ = run_counted(database, monkeypatch)
        grown = file_bytes(database) - before
        second, _ = run_counted(database, monkeypatch)
    for name, pin in COLD_PINS.items():
        assert cold[name] <= pin, ("cold", name, cold[name], pin)
    assert first == second
    # The first run's growth only: the second grows the same tables
    # across other page boundaries.
    first["db_bytes"] = grown
    for name, pin in PINS.items():
        assert first[name] <= pin, (name, first[name], pin)
