"""Session-benchmark fixtures: two specs, four ways of running them.

Every workload runs the same kind of thing a user waits for -- one
EdgeTune tuning session (BOHB, multi-budget, ``armv7``, 77 trials plus
inference tuning) -- and differs in *how* it is run, so that each puts
its wall time into other layers:

==================  ==========================================================
``bare_conv``       spec C in process: ``nn.kernels``/``conv``/``batched``
``bare_recurrent``  spec R in process: ``nn.recurrent``/optimizer/losses
``service_cold``    spec R through ``repro.service``, 2 worker processes,
                    fresh database: queue, checkpoints, artifact writes
``fleet_memo``      spec R on a ``repro.fleet`` hub with 2 host processes,
                    everything memoized: wire hops, artifact reads, merge
==================  ==========================================================

A workload object owns its fixtures (``setup``/``teardown``), runs one
session at a time (``begin`` untimed, ``session`` timed, ``end``
untimed; ``end`` returns the counters that exist outside the session's
processes) and knows its in-process *twin* for the traced run.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro import EdgeTune
from repro.artifacts import ArtifactStore
from repro.fleet.host import HostPool, RemoteHost
from repro.fleet.registry import MachineRegistry
from repro.fleet.server import FleetServer
from repro.service import (
    SessionCoordinator, SessionSpec, SessionStore, WorkerPool,
)
from repro.storage import TrialDatabase

from host import sampler_signal_blocked

#: R: recurrent family (``textrnn``), serial-only.  C: conv family
#: (``m5``: conv1d/maxpool1d), stacked K=8 by the in-process driver.
#: Sample counts are sized so a session takes 1.5-3 s on this host and a
#: 20 s window holds 7-12 of them (README, "Sizing").
SPEC_R = dict(workload="NLP", device="armv7", samples=1000)
SPEC_C = dict(workload="SR", device="armv7", samples=80)

WORKERS = 2
READY_TIMEOUT_S = 20.0

Fingerprint = Tuple[Any, ...]


def fingerprint(result: Any, virtual: bool) -> Fingerprint:
    """What must be bit-identical between a session and its reference.

    ``virtual`` adds the virtual-timeline fields (stalls, makespan,
    inference-tuning energy).  A session that finds the inference cache
    warm legitimately has none of those stalls, so memoized workloads
    compare without them.
    """
    core = (
        [(t.trial_id, t.score, t.accuracy) for t in result.trials],
        sorted(result.best_configuration.items()),
        result.best_accuracy,
        result.best_score,
        sum(t.training.energy_j for t in result.trials),
    )
    if not virtual:
        return core
    return core + (
        [t.stall_s for t in result.trials],
        result.tuning_runtime_s,
        result.tuning_energy_j,
        result.stall_s,
    )


def _wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while not condition():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.005)


def _load_service_modules() -> None:
    """The service path's deferred imports, so that no timed session
    pays for them (forked workers and hosts inherit loaded modules)."""
    import repro.advisor  # noqa: F401
    import repro.baselines  # noqa: F401


def _job_times(database: TrialDatabase, session_id: str) -> Dict[str, float]:
    """Queue wait and run time of a finished session's jobs, and how
    long its workers sat without one (from the ``jobs`` rows)."""
    rows = database.execute(
        "SELECT created_at, started_at, finished_at FROM jobs "
        "WHERE session_id = ? AND finished_at IS NOT NULL", (session_id,),
    ).fetchall()
    if not rows:
        return {}
    span = max(r[2] for r in rows) - min(r[0] for r in rows)
    run = sum(r[2] - r[1] for r in rows)
    return {
        "service.queue.job.wait_s": sum(r[1] - r[0] for r in rows) / len(rows),
        "service.queue.job.run_s": run / len(rows),
        "service.worker.idle_s": max(0.0, WORKERS * span - run),
    }


def _coordinator_meters(database: TrialDatabase, session_id: str) -> Dict[str, float]:
    """The coordinator's own meters, as stored on the session row."""
    meters = (SessionStore(database).get(session_id).result or {}).get(
        "meters", {}
    )
    latency = meters.get("wave.latency_s") or {}
    return {
        "service.coordinator.wave.count": float(latency.get("count", 0)),
        "service.coordinator.wave.latency_s": float(latency.get("mean", 0.0)),
    }


class Workload:
    """Base: in-process session of ``spec`` on a fresh in-memory database."""

    name = ""
    why = ""
    spec: Dict[str, Any] = {}
    #: Sessions start cold, so the virtual-timeline fields must match too.
    virtual = True

    def __init__(self, scratch: str, tuning_seed: int, seed: int):
        self.scratch = scratch
        self.tuning_seed = tuning_seed
        self.seed = seed
        self.reference: Optional[Fingerprint] = None
        self._count = 0

    # -- fixtures --------------------------------------------------------------
    def setup(self) -> None:
        """Build fixtures and run the in-process reference session."""
        self.reference = fingerprint(self._bare(), self.virtual)

    def teardown(self) -> None:
        pass

    def _bare(self) -> Any:
        database = TrialDatabase()
        try:
            return EdgeTune(
                database=database, seed=self.tuning_seed, **self.spec
            ).tune()
        finally:
            database.close()

    def _session_id(self) -> str:
        self._count += 1
        return f"s{self.seed}-{self._count}"

    # -- one session -------------------------------------------------------------
    def begin(self) -> None:
        """Untimed: per-session fixtures."""

    def session(self) -> Any:
        """Timed: the session itself; returns its ``TuningRunResult``."""
        return self._bare()

    def end(self) -> Dict[str, float]:
        """Untimed: outside counters of the session, fixture clean-up."""
        return {}

    # -- traced twin ---------------------------------------------------------------
    def begin_twin(self) -> None:
        self.begin()

    def twin(self) -> Any:
        return self.session()

    def end_twin(self) -> None:
        self.end()

    def baseline(self) -> Optional[Any]:
        """A platform-free session of the same spec, for
        ``platform.overhead_ratio`` (``None``: this one is platform-free)."""
        return None

    def check(self, result: Any) -> bool:
        return fingerprint(result, self.virtual) == self.reference


class BareConv(Workload):
    name = "bare_conv"
    why = ("spec C in process: nn.kernels+conv+batched dominate, service/"
           "fleet/artifacts/storage idle; an NN-engine change shows here, "
           "a service change must not")
    spec = SPEC_C


class BareRecurrent(Workload):
    name = "bare_recurrent"
    why = ("spec R in process: nn.recurrent/optimizers/losses, no conv, no "
           "stacking; platform-free twin of service_cold and fleet_memo")
    spec = SPEC_R


class ServiceCold(Workload):
    name = "service_cold"
    why = ("spec R through repro.service, 2 workers, fresh file database: "
           "bare_recurrent's training plus queue, checkpoints, sqlite "
           "commits, artifact writes, wave barriers and poll loops")
    spec = SPEC_R

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.database: Optional[TrialDatabase] = None
        self.pool: Optional[WorkerPool] = None
        self.dir = ""
        self.session_id = ""

    def setup(self) -> None:
        _load_service_modules()
        super().setup()

    def teardown(self) -> None:
        self._close()

    def _open(self, workers: int) -> None:
        self.session_id = self._session_id()
        self.dir = os.path.join(self.scratch, self.session_id)
        os.makedirs(self.dir)
        path = os.path.join(self.dir, "service.sqlite")
        self.database = TrialDatabase(path)
        if workers:
            with sampler_signal_blocked():
                self.pool = WorkerPool(path, workers).start()
            registry = MachineRegistry(self.database)
            _wait_until(
                lambda: len(registry.list()) >= workers, "service workers"
            )

    def _close(self) -> None:
        if self.pool is not None:
            self.pool.stop()
            self.pool = None
        if self.database is not None:
            self.database.close()
            self.database = None
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = ""

    def _run(self, workers: int) -> Any:
        assert self.database is not None
        SessionStore(self.database).create(
            SessionSpec(seed=self.tuning_seed, **self.spec), self.session_id
        )
        return SessionCoordinator(
            self.database, self.session_id, workers=workers, pool=self.pool
        ).run()

    def begin(self) -> None:
        self._open(WORKERS)

    def session(self) -> Any:
        return self._run(WORKERS)

    def end(self) -> Dict[str, float]:
        counters: Dict[str, float] = {}
        if self.database is not None:
            try:
                counters.update(_job_times(self.database, self.session_id))
                counters.update(
                    _coordinator_meters(self.database, self.session_id)
                )
                counters["artifacts.disk_bytes"] = float(
                    ArtifactStore(self.database).stats()["bytes"]
                )
            except Exception:  # a failed session has no counters to read
                counters = {}
        self._close()
        return counters

    # The twin runs the same session with the coordinator's inline worker,
    # so every layer executes on the harness's traced main thread.
    def begin_twin(self) -> None:
        self._open(0)

    def twin(self) -> Any:
        return self._run(0)

    def end_twin(self) -> None:
        self._close()

    def baseline(self) -> Any:
        return self._bare()


class FleetMemo(Workload):
    name = "fleet_memo"
    why = ("spec R resubmitted to a long-lived repro.fleet hub with 2 host "
           "processes, every trial memoized: nn idles; TCP hops, artifact "
           "reads, result writes, snapshots and the merge loop are the wall")
    spec = SPEC_R
    virtual = False

    def __init__(self, *args: Any):
        super().__init__(*args)
        self.database: Optional[TrialDatabase] = None
        self.server: Optional[FleetServer] = None
        self.pool: Optional[HostPool] = None
        self._serve: Optional[threading.Thread] = None
        self._twin_host: Optional[RemoteHost] = None
        self._twin_stop = threading.Event()
        self._twin_thread: Optional[threading.Thread] = None
        self.dir = ""
        self.session_id = ""
        self._stats: Dict[str, float] = {}

    # -- fixtures --------------------------------------------------------------
    def setup(self) -> None:
        _load_service_modules()
        self.dir = os.path.join(self.scratch, f"fleet-{self._session_id()}")
        os.makedirs(self.dir)
        self.database = TrialDatabase(os.path.join(self.dir, "hub.sqlite"))
        # The reference is the same spec run in process on the hub's
        # database (inline worker, no TCP, no hosts); it also fills the
        # hub's artifact store and inference cache.
        self.reference = fingerprint(self._inline(), self.virtual)
        self._seed_host_stores()
        self.server = FleetServer(self.database, port=0, num_shards=1)
        with sampler_signal_blocked():
            self.pool = HostPool(
                "127.0.0.1", self.server.port, self.dir, hosts=WORKERS
            ).start()
            self._serve = threading.Thread(
                target=self.server.serve_until_drained, daemon=True
            )
            self._serve.start()
        registry = self.server.registry
        _wait_until(
            lambda: len(registry.alive()) >= WORKERS, "fleet hosts"
        )
        # Warm up until a session neither trains nor fetches.
        for _ in range(6):
            self.begin()
            result = self.session()
            self.end()
            if self.check(result) and not self._moved_artifacts:
                return
        raise RuntimeError("fleet never reached the memoized steady state")

    def _inline(self) -> Any:
        assert self.database is not None
        session_id = self._session_id()
        SessionStore(self.database).create(
            SessionSpec(seed=self.tuning_seed, **self.spec), session_id
        )
        return SessionCoordinator(self.database, session_id, workers=0).run()

    def _seed_host_stores(self) -> None:
        """Give every host's isolated store the hub's artifacts (the
        state two hosts converge to after a few federated sessions)."""
        assert self.database is not None
        hub = ArtifactStore(self.database)
        rows = self.database.execute(
            "SELECT key, workload, trial_id, epochs, data_fraction "
            "FROM artifacts"
        ).fetchall()
        for index in range(1, WORKERS + 1):
            path = os.path.join(self.dir, f"machine-{index}.db")
            with TrialDatabase(path) as database:
                store = ArtifactStore(database)
                for key, workload, trial_id, epochs, fraction in rows:
                    store.put(
                        key, hub.get(key), workload=workload,
                        trial_id=trial_id, epochs=epochs,
                        data_fraction=fraction,
                    )

    def teardown(self) -> None:
        self._stop_twin_host()
        if self.pool is not None:
            self.pool.stop()
            self.pool = None
        if self.server is not None:
            self.server.initiate_drain()
            if self._serve is not None:
                self._serve.join(timeout=10.0)
            self.server = None
        if self.database is not None:
            self.database.close()
            self.database = None
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = ""

    # -- one session -------------------------------------------------------------
    def begin(self) -> None:
        assert self.server is not None
        self.session_id = self._session_id()
        self._stats = self.server.registry.stats()

    def session(self) -> Any:
        assert self.server is not None and self.database is not None
        SessionStore(self.database).create(
            SessionSpec(seed=self.tuning_seed, **self.spec), self.session_id
        )
        results = self.server.run_sessions(drain=True)
        if len(results) != 1:
            raise RuntimeError(f"hub finished {len(results)} sessions, not 1")
        return results[0]

    def _stat_delta(self, key: str) -> float:
        assert self.server is not None
        return self.server.registry.stats().get(key, 0.0) - self._stats.get(
            key, 0.0
        )

    @property
    def _moved_artifacts(self) -> bool:
        return any(
            self._stat_delta(f"federation.{kind}")
            for kind in ("hits", "misses", "uploads")
        )

    def end(self) -> Dict[str, float]:
        assert self.database is not None
        counters = {
            "fleet.registry.federation.hits":
                self._stat_delta("federation.hits"),
            "fleet.registry.federation.misses":
                self._stat_delta("federation.misses"),
        }
        try:
            counters.update(_job_times(self.database, self.session_id))
            counters.update(
                _coordinator_meters(self.database, self.session_id)
            )
        except Exception:  # a failed session has no counters to read
            pass
        return counters

    # -- traced twin ---------------------------------------------------------------
    # Same hub, but the host is a thread of the harness (over real
    # loopback TCP) on machine-1's populated store, so its spans and the
    # hub's land in the one in-memory ledger.
    def _start_twin_host(self) -> None:
        assert self.server is not None
        if self.pool is not None:
            self.pool.stop()
            self.pool = None
        self._twin_host = RemoteHost(
            "machine-1", "127.0.0.1", self.server.port,
            db_path=os.path.join(self.dir, "machine-1.db"),
        )
        self._twin_stop.clear()
        self._twin_thread = threading.Thread(
            target=self._twin_host.run_forever, args=(self._twin_stop,),
            daemon=True,
        )
        with sampler_signal_blocked():
            self._twin_thread.start()

    def _stop_twin_host(self) -> None:
        if self._twin_thread is not None:
            self._twin_stop.set()
            self._twin_thread.join(timeout=10.0)
            self._twin_thread = None
        if self._twin_host is not None:
            self._twin_host.close()
            self._twin_host = None

    def begin_twin(self) -> None:
        if self._twin_thread is None:
            self._start_twin_host()
        self.begin()

    def baseline(self) -> Any:
        return self._inline()


WORKLOADS = {
    cls.name: cls for cls in (BareConv, BareRecurrent, ServiceCold, FleetMemo)
}
