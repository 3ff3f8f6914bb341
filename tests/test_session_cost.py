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
  sizing probes included).

The two memoized runs must count identically (the path has no timing in
it: nothing is queued, so the coordinator never waits), and at *equal or
lower* than the pins.  All three share one process, as sessions on a
long-lived hub do: a memoized run rebuilds no dataset and no probe
model, because the process-wide memos already hold them.  A change that
sends a memoized trial back through the queue, re-reads its artifact,
or commits per trial instead of per wave fails here in about a second,
on any machine.  The cold run has its own pins: one more statement,
commit or optimizer step per trial shows there.
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
#: row with a merge note instead gives 629 statements (-92 snapshot
#: writes, -1 snapshot read, +77 note writes, +1 read of the job log) and
#: 96 commits (the 15 post-issue snapshot commits are gone).  What is
#: left is one transaction per merge; batching merges into fewer commits
#: would buy nothing measurable (77 one-UPDATE transactions take about
#: 1 ms in all), so it is not pursued.  Lower a pin when the session
#: gets cheaper; never raise one to make a change pass.
PINS = {
    "statements": 629,
    "commits": 96,
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
#: (two builds before they did).  Same rule as above.
COLD_PINS = {
    "statements": 1186,
    "commits": 406,
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


def test_memoized_session_costs_what_is_pinned(tmp_path, monkeypatch):
    # Empty process memos, whatever ran before in this process.
    monkeypatch.setattr(model_server, "_DATASET_CACHE", {})
    model_server.architecture_size.cache_clear()
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
