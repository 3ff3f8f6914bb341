"""The session coordinator: deterministic merge of parallel trial results.

One coordinator drives one tuning session to completion:

1. build the :class:`~repro.core.model_server.ModelTuningServer` the
   session's spec describes, :meth:`prepare` a fresh run state, and read
   the session's job rows in one ``SELECT`` — empty for a new session,
   the durable state to replay for an interrupted one;
2. ask the scheduler for trials — a whole **wave** (one rung's worth) for
   halving schedulers, whatever is runnable right now for asynchronous
   ones — and look each one up in the coordinator's own artifact store
   (**memo before dispatch**): a trial the store answers gets its job
   row written already ``done``, holding the result by reference (the
   store keeps it; the coordinator merges the evaluation its probe
   returned); the rest are enqueued as persistent jobs — all in one
   commit — and the workers' doorbell rings only if something was
   queued;
3. while workers chew through them in *any* order, integrate finished
   evaluations in issue order — scoring, inference tuning, virtual
   timeline, scheduler reports are all order-sensitive, so pinning the
   integration order makes an N-worker run bit-identical to a 1-worker
   run;
4. note every merged trial, in the merge's own transaction, with its
   merge sequence number and its
   :class:`~repro.core.model_server.MergeNote` (one ``merge_notes`` row),
   beside the rows :meth:`~repro.core.model_server.ModelTuningServer.integrate`
   left to write (the trial's history row, a fresh search's cache row).
   A barrier scheduler merges every settled trial at the head of its
   wave in one transaction; an asynchronous one merges one trial per
   transaction, asking the scheduler for more in between.

Steps 2-4 are the one tuning loop, :func:`repro.core.model_server.drive`,
with this coordinator as its evaluation source (:meth:`issue`,
:meth:`settled`, :meth:`wait`, :meth:`commit`); it waits in one place, on
the results doorbell (:mod:`repro.service.doorbell`).

Resume is the same loop over the job rows step 1 read: a re-drawn trial
that has a row is not enqueued again (its payload must equal the row's)
and is probed only if its row is a memo hit held by reference — the
store answers it again, or the row goes back to the queue — and a
merged one is replayed from its note, in sequence order, writing
nothing.  A ``kill -9`` at any point loses at most
in-flight work (which the queue retries), and the resumed session is
bit-identical to an uninterrupted one (DESIGN.md §5b).

With ``workers=0`` the coordinator executes jobs inline (still through the
queue, so results persist identically) — the mode used by ``resume`` and
by tests that need single-process determinism.
"""

from __future__ import annotations

import os
import pickle
import time  # unused: the session benchmark's ledger swaps this name
import traceback
from itertools import takewhile
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import clock
from ..artifacts import trial_key
from ..core.model_server import (
    Merge, ModelTuningServer, RunState, Settled, _plain, drive,
    failure_evaluation,
)
from ..core.results import TuningRunResult
from ..errors import ServiceError
from ..search import ScheduledTrial
from ..storage import TrialDatabase
from ..telemetry import MeterRegistry
from .doorbell import Doorbell, Doorbells
from .pool import WorkerPool
from .queue import DEFAULT_LEASE_TTL_S, DONE, FAILED, JobQueue, LoggedJob
from .sessions import S_DONE, SessionRecord, SessionStore
from .spec import build_server
from .worker import TrialWorker

#: The coordinator's fallback tick, seconds: the longest it waits for a
#: result when nobody rings (see :mod:`repro.service.doorbell`).
COORDINATOR_POLL_S = 0.05


class SessionCoordinator:
    """Runs one session: wave scheduling, ordered merge, replayable log."""

    def __init__(
        self,
        database: TrialDatabase,
        session_id: str,
        workers: int = 0,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = COORDINATOR_POLL_S,
        pool: Optional[WorkerPool] = None,
        trial_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        remote: bool = False,
        pin_order: bool = False,
        jobs_bell: Optional[Doorbells] = None,
        results_bell: Optional[Doorbell] = None,
    ):
        if workers > 0 and pool is None and database.path == ":memory:":
            raise ServiceError(
                "worker processes need a file-backed database, "
                "got ':memory:'"
            )
        self.database = database
        self.session_id = session_id
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.poll_interval_s = poll_interval_s
        self.queue = JobQueue(database)
        self.sessions = SessionStore(database)
        self.meters = MeterRegistry()
        self.trial_timeout_s = trial_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Remote mode: the fleet's machines execute the jobs, so this
        #: coordinator spawns no workers of its own — it only enqueues,
        #: waits, and merges (the wave-ordered integration is identical,
        #: which is what keeps fleet runs bit-identical to local ones).
        self.remote = remote
        #: Replay mode for asynchronous schedulers: integrate results
        #: strictly in issue order (waiting for the earliest pending
        #: trial), which pins the completion order the scheduler sees —
        #: decision logs become identical for any worker count.  Also
        #: settable per deployment via ``$REPRO_PIN_COMPLETION_ORDER``.
        #: The synchronous wave path is always pinned; this flag only
        #: changes the async merge.
        pin_env = os.environ.get("REPRO_PIN_COMPLETION_ORDER", "")
        self.pin_order = bool(pin_order) or pin_env.lower() not in (
            "", "0", "false",
        )
        self._pool = pool
        self._owns_pool = pool is None and workers > 0 and not remote
        #: The hand-off bells: whoever executes the jobs (a worker pool,
        #: the fleet hub for its hosts) waits on ``jobs_bell`` and rings
        #: ``results_bell``.  Private defaults nobody else holds make the
        #: wait a plain fallback tick (inline mode, the pool not up yet).
        if pool is not None:
            jobs_bell, results_bell = pool.jobs_bell, pool.results_bell
        self.jobs_bell = jobs_bell or Doorbells()
        self.results_bell = results_bell or Doorbell()
        self._inline: Optional[TrialWorker] = None
        #: The finished session's scheduler decision log (asynchronous
        #: schedulers only), surfaced in the session result summary.
        self._decision_log: Optional[List[List[Any]]] = None
        #: The session's job rows as :meth:`run` found them, by trial id.
        self._log: Dict[int, LoggedJob] = {}
        #: Evaluations :meth:`issue` settled from the artifact store, by
        #: trial id, held until the trial merges: a memo hit's job row
        #: holds no result to read back.
        self._held: Dict[int, Any] = {}
        #: The session's server, issued-but-unmerged trial count and
        #: when the last wave was issued, while :meth:`run` drives it.
        self._server: Optional[ModelTuningServer] = None
        self._in_flight = 0
        self._wave_started = 0.0

    # -- main entry ---------------------------------------------------------
    def run(self) -> TuningRunResult:
        """Drive the session to completion (fresh or resumed)."""
        record = self.sessions.get(self.session_id)
        if record.state == S_DONE:
            raise ServiceError(
                f"session {self.session_id!r} is already done"
            )
        server = build_server(record.spec, self.database)
        try:
            if self._owns_pool:
                self._pool = WorkerPool(
                    self.database.path,
                    self.workers,
                    lease_ttl_s=self.lease_ttl_s,
                    trial_timeout_s=self.trial_timeout_s,
                    heartbeat_interval_s=self.heartbeat_interval_s,
                ).start()
                self.jobs_bell = self._pool.jobs_bell
                self.results_bell = self._pool.results_bell
            result = self._run(server)
        except Exception:
            self.sessions.fail(
                self.session_id, traceback.format_exc(limit=8)
            )
            raise
        finally:
            if self._owns_pool and self._pool is not None:
                self._pool.stop()
                self._pool = None
            if self._inline is not None:
                self._inline.close()
                self._inline = None
            self._held.clear()
        return result

    def _run(self, server: ModelTuningServer) -> TuningRunResult:
        if server.warm_start and server.warm_start_records is None:
            server.warm_start_records = self.database.trials_for(
                server.experiment_name,
                upto=self.sessions.history_watermark(self.session_id),
            )
        state = server.prepare()
        if self.workers == 0 and not self.remote:
            # Started after prepare(): a worker publishes the dataset-memo
            # lookups of its own trials, not the coordinator's.
            self._inline = TrialWorker(
                database=self.database,
                worker_id="inline",
                lease_ttl_s=self.lease_ttl_s,
                trial_timeout_s=self.trial_timeout_s,
            )
        self._log = self.queue.merge_log(self.session_id)
        self.sessions.set_state(self.session_id, "running")
        self._server = server
        result = drive(server, state, self)
        log = getattr(state.scheduler, "decision_log", None)
        if log is not None:
            self._decision_log = [list(entry) for entry in log]
        self.sessions.finish(
            self.session_id, self._summarize(server, result)
        )
        return result

    # -- the evaluation source of the drive loop -----------------------------
    def _merge_seq(self, trial_id: int) -> Optional[int]:
        """Where the session merged ``trial_id`` before, if it did."""
        logged = self._log.get(trial_id)
        return None if logged is None else logged.merge_seq

    def issue(self, state: RunState, fresh: List[ScheduledTrial]) -> None:
        """Settle or enqueue ``fresh`` as one commit and wake the workers
        if anything was queued (a crash before the commit re-issues the
        same trials on resume).

        A trial whose artifact the coordinator's own store holds never
        crosses the queue: its row holds the result by reference and the
        evaluation the probe returned is held in memory until the trial
        merges.  The probe is the verified, hit-counting read a worker's
        is, so a corrupt blob is quarantined here and the trial
        dispatched cold.  A trial the session already has a job row for
        (a resume) is not enqueued again; its re-drawn payload must equal
        the row's.  It is probed again only if its row is a memo hit held
        by reference: the store answers it, or — the key gc'd or
        quarantined since — the row goes back to ``queued`` and a worker
        runs the trial cold.
        """
        server = self._server
        store = server.artifacts
        # Tasks, payloads and trial keys are built before the write lock.
        issued: List[Tuple[ScheduledTrial, str, Optional[str], Any]] = []
        queued = 0
        for trial in fresh:
            task = server.make_task(trial, state)
            payload = task.to_json()
            logged = self._log.get(trial.trial_id)
            if logged is not None:
                if logged.payload != payload:
                    raise ServiceError(
                        f"session {self.session_id!r}: trial "
                        f"{trial.trial_id} re-drawn as {payload}, "
                        f"issued as {logged.payload}"
                    )
                if not logged.by_reference:
                    queued += logged.merge_seq is None
                    continue
            key = None if store is None else trial_key(task)
            issued.append((trial, payload, key, logged))
        if issued:
            with self.database.transaction():
                for trial, payload, key, logged in issued:
                    evaluation = None
                    if key is not None:
                        evaluation = store.load_evaluation(
                            key, count_miss=False
                        )
                    if evaluation is not None and (
                        logged is not None or self.queue.settle(
                            self.session_id, trial.trial_id, payload
                        )
                    ):
                        self._held[trial.trial_id] = evaluation
                        continue
                    queued += 1
                    if logged is None:
                        self.queue.enqueue(
                            self.session_id, trial.trial_id, payload
                        )
                    else:
                        self.queue.unsettle(
                            self.session_id, trial.trial_id
                        )
        if queued:
            self.jobs_bell.ring()
        self._in_flight += len(fresh)
        self._wave_started = clock.now()

    def settled(
        self, state: RunState, pending: List[ScheduledTrial], barrier: bool
    ) -> List[Settled]:
        """The trials to merge this turn, from ``pending`` (issue order).

        While pending trials have notes (a resume), the one with the
        lowest merge sequence number goes next, alone, replayed from its
        note, whatever the policy.  Otherwise a barrier turn takes the
        settled head of the wave — every pending trial up to the first
        one still running — and an asynchronous turn one trial: the head
        under :attr:`pin_order` (head-only, so the result and the
        decision log do not depend on worker count or timing), else the
        earliest-issued settled one (a deterministic tie-break, not a
        barrier).
        """
        noted = [t for t in pending if self._merge_seq(t.trial_id) is not None]
        if noted:
            trial = min(noted, key=lambda t: self._merge_seq(t.trial_id))
            replayed = self._settle([trial])
            if not replayed:
                return []
            logged = self._log[trial.trial_id]
            if logged.merge_seq != len(state.records) + 1:
                raise ServiceError(
                    f"session {self.session_id!r}: trial {trial.trial_id} "
                    f"was merge {logged.merge_seq}, replayed as "
                    f"{len(state.records) + 1}"
                )
            return [replayed[0]._replace(
                note=pickle.loads(logged.merge_note)
            )]
        if barrier:
            return self._settle(pending, prefix=True)
        return self._settle(pending[:1] if self.pin_order else pending)

    def _settle(
        self, candidates: List[ScheduledTrial], prefix: bool = False
    ) -> List[Settled]:
        """Trials ready to merge, with their evaluations, from
        ``candidates`` in issue order: with ``prefix``, every one up to
        the first still running; otherwise the first whose job is done —
        else the first dead-lettered one — or none.  A dead-lettered
        trial gets a failure record in place of a result.

        A trial :meth:`issue` settled is done with its evaluation in
        hand, so the one ``settled`` probe asks only about the others.
        """
        held = self._held
        settled = {
            trial.trial_id: (DONE, None)
            for trial in candidates if trial.trial_id in held
        }
        asked = [t.trial_id for t in candidates if t.trial_id not in held]
        if asked:
            settled.update(self.queue.settled(self.session_id, asked))
        if prefix:
            chosen = list(takewhile(
                lambda trial: trial.trial_id in settled, candidates
            ))
        else:
            chosen = [
                trial for wanted in (DONE, FAILED) for trial in candidates
                if settled.get(trial.trial_id, (None,))[0] == wanted
            ][:1]
        unheld = [
            trial.trial_id for trial in chosen
            if settled[trial.trial_id][0] == DONE
            and trial.trial_id not in held
        ]
        fetched = (
            self.queue.results_for(self.session_id, unheld) if unheld else {}
        )
        batch = []
        for trial in chosen:
            job_state, error = settled[trial.trial_id]
            if job_state == FAILED:
                self.meters.count("failures.substituted")
                evaluation = failure_evaluation(trial.trial_id, error)
            elif trial.trial_id in held:
                evaluation = held.pop(trial.trial_id)
            else:
                evaluation = pickle.loads(fetched[trial.trial_id])
            batch.append(Settled(trial, evaluation))
        return batch

    def wait(self) -> None:
        """Nothing can merge yet: run a job inline, or wait for one.

        The coordinator's only wait.  A worker (or the fleet hub, for a
        remote host) rings :attr:`results_bell` once a result row has
        committed; when nobody rings for a whole ``poll_interval_s`` —
        the fallback tick — the janitor duties run: respawn dead
        workers, reclaim expired leases.
        """
        if self._inline is not None:
            leased = self.queue.lease(
                self._inline.worker_id,
                ttl_s=self.lease_ttl_s,
                session_id=self.session_id,
            )
            if leased is not None:
                self._inline.run_leased(leased)
                return
        if self.results_bell.wait(self.poll_interval_s):
            return
        if self._pool is not None:
            self.meters.count(
                "workers.respawned", self._pool.ensure_alive()
            )
        reclaimed = self.queue.reclaim_expired()
        if reclaimed:
            self.meters.count("leases.reclaimed", reclaimed)
            self.jobs_bell.ring()

    def commit(self, state: RunState, merges: List[Merge]) -> None:
        """Write one turn's merges: their rows and merge notes in one
        transaction, so a trial's history row, a freshly tuned
        inference-cache entry and the note that says "this trial is
        merged" commit together or not at all.  A replayed merge writes
        nothing.  The note pickles are made before the write lock."""
        if self._merge_seq(merges[0].record.trial_id) is not None:
            self.meters.count("trials.resumed")
        else:
            notes = [
                pickle.dumps(merge.note, protocol=pickle.HIGHEST_PROTOCOL)
                for merge in merges
            ]
            merge_seq = len(state.records) - len(merges)
            with self.database.transaction():
                for merge, note in zip(merges, notes):
                    merge_seq += 1
                    self._server.write(state, merge)
                    self.queue.record_merge(
                        self.session_id, merge.record.trial_id, merge_seq,
                        note,
                    )
            self.meters.count("trials.integrated", len(merges))
        self._in_flight -= len(merges)
        barrier = not getattr(state.scheduler, "asynchronous", False)
        if barrier and (state.stopped or not self._in_flight):
            self.meters.record(
                "wave.latency_s", clock.now() - self._wave_started
            )

    # -- summaries -------------------------------------------------------------
    def _summarize(
        self, server: ModelTuningServer, result: TuningRunResult
    ) -> Dict[str, Any]:
        """JSON-safe result summary stored on the session row."""
        inference: Optional[Dict[str, Any]] = None
        if result.inference is not None:
            rec = result.inference
            inference = {
                "configuration": {
                    name: _plain(value)
                    for name, value in rec.configuration.items()
                },
                "device": rec.device,
                "objective": rec.objective,
                "tuning_runtime_s": float(rec.tuning_runtime_s),
                "tuning_energy_j": float(rec.tuning_energy_j),
                "cache_hit": bool(rec.cache_hit),
                "measurement": {
                    "batch_latency_s": rec.measurement.batch_latency_s,
                    "throughput_sps": rec.measurement.throughput_sps,
                    "energy_per_sample_j":
                        rec.measurement.energy_per_sample_j,
                    "power_w": rec.measurement.power_w,
                    "batch_size": rec.measurement.batch_size,
                    "cores": rec.measurement.cores,
                },
            }
        artifact_cache: Optional[Dict[str, int]] = None
        if getattr(server, "artifacts", None) is not None:
            artifact_cache = server.artifacts.stats()
        return {
            "system": result.system,
            "workload": result.workload_id,
            "num_trials": len(result.trials),
            "failed_trials": sum(
                1 for record in result.trials
                if getattr(record, "failure", None) is not None
            ),
            "dead_letter": self.queue.dead_letter_count(self.session_id),
            "best_accuracy": float(result.best_accuracy),
            "best_score": float(result.best_score),
            "best_configuration": {
                name: _plain(value)
                for name, value in result.best_configuration.items()
            },
            "tuning_runtime_s": float(result.tuning_runtime_s),
            "tuning_energy_j": float(result.tuning_energy_j),
            "stall_s": float(result.stall_s),
            "workers": self.workers,
            "warm_started_trials": int(server.warm_started_trials),
            "reuse_checkpoints": bool(
                getattr(server, "reuse_checkpoints", False)
            ),
            "artifact_cache": artifact_cache,
            "decision_log": self._decision_log,
            "inference": inference,
            "meters": self.meters.snapshot(),
            "worker_stats": self.queue.worker_stats(self.session_id),
        }


def drive_queued_sessions(
    sessions: SessionStore,
    coordinator_for: Callable[[SessionRecord], SessionCoordinator],
    drain: bool = False,
    idle_timeout_s: Optional[float] = None,
    poll_interval_s: float = COORDINATOR_POLL_S,
    stopping: Callable[[], bool] = lambda: False,
) -> List[TuningRunResult]:
    """Claim queued sessions one at a time and run each to completion.

    ``drain=True`` returns once no queued session remains; otherwise the
    loop idles — one ``poll_interval_s`` tick per look, nobody rings for
    a submission — until ``idle_timeout_s`` (if any) elapses or
    ``stopping()`` turns true.  A session failure is recorded on its row
    and does not take the service down.
    """
    results: List[TuningRunResult] = []
    idle_since = clock.now()
    while not stopping():
        record = sessions.claim_next_queued()
        if record is None:
            if drain or (
                idle_timeout_s is not None
                and clock.now() - idle_since > idle_timeout_s
            ):
                break
            clock.sleep(poll_interval_s)
            continue
        try:
            results.append(coordinator_for(record).run())
        except ServiceError:
            pass  # recorded on the session row by the coordinator
        idle_since = clock.now()
    return results


def serve(
    database: TrialDatabase,
    workers: int = 0,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_interval_s: float = COORDINATOR_POLL_S,
    drain: bool = False,
    idle_timeout_s: Optional[float] = None,
    trial_timeout_s: Optional[float] = None,
    heartbeat_interval_s: Optional[float] = None,
) -> List[TuningRunResult]:
    """Claim and run queued sessions on one shared worker pool (the mode
    behind ``service workers``; see :func:`drive_queued_sessions`)."""
    pool: Optional[WorkerPool] = None
    if workers > 0:
        pool = WorkerPool(
            database.path, workers, lease_ttl_s=lease_ttl_s,
            trial_timeout_s=trial_timeout_s,
            heartbeat_interval_s=heartbeat_interval_s,
        ).start()

    def coordinator_for(record: SessionRecord) -> SessionCoordinator:
        return SessionCoordinator(
            database,
            record.id,
            workers=workers,
            lease_ttl_s=lease_ttl_s,
            poll_interval_s=poll_interval_s,
            pool=pool,
            trial_timeout_s=trial_timeout_s,
            heartbeat_interval_s=heartbeat_interval_s,
        )

    try:
        return drive_queued_sessions(
            SessionStore(database), coordinator_for, drain=drain,
            idle_timeout_s=idle_timeout_s, poll_interval_s=poll_interval_s,
        )
    finally:
        if pool is not None:
            pool.stop()
