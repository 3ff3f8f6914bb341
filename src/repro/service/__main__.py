"""Tuning-service command-line interface.

Operate the persistent tuning service against a shared sqlite file::

    python -m repro.service submit IC --db tuning.sqlite --target 0.8
    python -m repro.service workers --db tuning.sqlite -n 4 --drain
    python -m repro.service status --db tuning.sqlite [SESSION]
    python -m repro.service resume --db tuning.sqlite SESSION
    python -m repro.service deadletter list --db tuning.sqlite
    python -m repro.service scrub --db tuning.sqlite
    python -m repro.service gc --db tuning.sqlite

``submit`` only records the session; ``workers`` (long-running) or
``resume`` (one session, inline by default) execute it.  Because every
state transition lives in sqlite, any of these commands may be killed at
any time and re-run.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from ..artifacts import ArtifactStore
from ..errors import ServiceError
from ..storage import TrialDatabase
from .coordinator import SessionCoordinator, serve
from .queue import DEFAULT_LEASE_TTL_S, JobQueue
from .sessions import SessionStore
from .spec import SERVICE_SYSTEMS, SessionSpec


def _database(args) -> TrialDatabase:
    """Open the shared database; ``TrialDatabase`` is a context manager,
    so every command below holds it in a ``with`` block — the connection
    (and its WAL sidecar files) is released on *every* exit path,
    including argparse/``ServiceError`` failures mid-command."""
    return TrialDatabase(args.db)


def _cmd_submit(args) -> int:
    with _database(args) as database:
        spec = SessionSpec(
            system=args.system,
            workload=args.workload,
            device=args.device,
            budget=args.budget,
            tuning_metric=args.metric,
            seed=args.seed,
            samples=args.samples,
            max_trials=args.max_trials,
            target_accuracy=args.target,
            warm_start=args.warm_start,
            reuse_checkpoints=args.reuse_checkpoints,
            scheduler=args.scheduler,
            num_configs=args.num_configs,
            traffic=args.traffic,
            traffic_metric=args.traffic_metric,
            slo_p99_s=args.slo_p99,
            slo_deadline_s=args.slo_deadline,
        )
        session_id = SessionStore(database).create(spec)
    print(session_id)
    return 0


def _machines_info(database) -> dict:
    """Per-machine registry view plus the fleet counters.

    Machines are what ``status``/``workers`` report instead of bare
    worker PIDs: hostname, backend fingerprint, heartbeat age.
    """
    import time as _time

    from ..fleet.registry import HubState, MachineRegistry

    registry = MachineRegistry(database)
    stats = database.stats()
    now = _time.time()
    return {
        # Epoch 0 = no fleet hub has ever run against this database.
        "hub": {"epoch": HubState(database).current_epoch()},
        "machines": [
            {
                "id": machine.id,
                "hostname": machine.hostname,
                "state": machine.state,
                "jobs_done": machine.jobs_done,
                "heartbeat_age_s": round(machine.heartbeat_age_s(now), 3),
                "fingerprint": machine.capabilities.get("fingerprint"),
                "cores": machine.capabilities.get("cores"),
            }
            for machine in registry.list()
        ],
        # Traffic and dataset-cache counters share the fleet_stats table
        # but are reported in their own status sections, not among the
        # fleet counters (``batch.*`` rows are what databases written
        # while trial stacking existed still hold).
        "fleet": {
            key: value
            for key, value in stats.items()
            if not key.startswith(("traffic.", "batch.", "dataset_cache."))
        },
        "dataset_cache": {
            key: stats.get(f"dataset_cache.{key}", 0.0)
            for key in ("hits", "misses", "evictions")
        },
    }


def _traffic_info(database, spec) -> dict:
    """The ``traffic`` status section: active scenario + replay counters."""
    from ..traffic import traffic_stats

    counters = traffic_stats(database)
    violations = {
        key[len("slo_violations."):]: value
        for key, value in counters.items()
        if key.startswith("slo_violations.")
    }
    scenario = getattr(spec, "traffic", None)
    return {
        "scenario": scenario,
        "metric": (
            getattr(spec, "traffic_metric", None) if scenario else None
        ),
        "replays": counters.get("replays", 0.0),
        "requests_replayed": counters.get("requests_replayed", 0.0),
        "requests_shed": counters.get("requests_shed", 0.0),
        "replays_diverged": counters.get("replays_diverged", 0.0),
        "storm_injected": counters.get("storm_injected", 0.0),
        "slo_violations": violations,
    }


def _print_machines(info: dict) -> None:
    if info["hub"]["epoch"]:
        print(f"hub:       epoch {info['hub']['epoch']}")
    for machine in info["machines"]:
        fingerprint = machine["fingerprint"] or "?"
        if len(fingerprint) > 48:
            fingerprint = fingerprint[:45] + "..."
        print(f"machine:   {machine['id']} on {machine['hostname']} "
              f"[{machine['state']}] "
              f"{machine['jobs_done']} jobs, "
              f"hb {machine['heartbeat_age_s']:.1f}s ago, "
              f"backend {fingerprint}")
    if info["fleet"]:
        print("fleet:     " + " ".join(
            f"{key}={value:g}"
            for key, value in sorted(info["fleet"].items())
        ))


def _session_status(
    record, queue, artifacts=None, machines=None, traffic=None
) -> dict:
    """Machine-readable status for one session (the ``--json`` shape)."""
    return {
        "session": record.id,
        "state": record.state,
        "spec": record.spec.to_dict(),
        "jobs": queue.depths(record.id),
        "dead_letter": queue.dead_letter_count(record.id),
        "last_error": queue.last_error(record.id),
        "resumable": record.resumable,
        "error": record.error,
        "result": record.result,
        "workers": queue.worker_stats(record.id),
        "artifact_cache": artifacts.stats() if artifacts else None,
        "machines": machines["machines"] if machines else [],
        "fleet": machines["fleet"] if machines else {},
        "hub": machines["hub"] if machines else {},
        "dataset_cache": machines["dataset_cache"] if machines else {},
        "traffic": traffic or {},
    }


def _cmd_status(args) -> int:
    with _database(args) as database:
        store = SessionStore(database)
        queue = JobQueue(database)
        artifacts = ArtifactStore(database)
        machines = _machines_info(database)
        if args.session:
            record = store.get(args.session)
            traffic = _traffic_info(database, record.spec)
            if args.json:
                print(json.dumps(
                    _session_status(
                        record, queue, artifacts, machines, traffic
                    ),
                    sort_keys=True, indent=2))
                return 0
            depths = queue.depths(record.id)
            print(f"session:   {record.id}")
            print(f"state:     {record.state}")
            print(f"spec:      {json.dumps(record.spec.to_dict(), sort_keys=True)}")
            print(f"jobs:      " + ", ".join(
                f"{state}={count}" for state, count in sorted(depths.items())
            ))
            dead = queue.dead_letter_count(record.id)
            if dead:
                print(f"dead:      {dead} job(s) quarantined "
                      f"(service deadletter list --db ...)")
            last_error = queue.last_error(record.id)
            if last_error:
                print(f"last err:  {last_error.strip().splitlines()[-1]}")
            print(f"resumable: {'yes' if record.resumable else 'no'}")
            cache = artifacts.stats()
            print(f"artifacts: {cache['entries']} entries, "
                  f"{cache['bytes']} bytes, {cache['hits']} hits / "
                  f"{cache['misses']} misses")
            if record.error:
                print(f"error:     {record.error.strip().splitlines()[-1]}")
            if record.result:
                print("result:    "
                      + json.dumps(record.result, sort_keys=True, indent=2))
            for stats in queue.worker_stats(record.id):
                print(f"worker:    {stats['worker']}: "
                      f"{stats['jobs_done']} jobs, "
                      f"{stats['busy_s']:.1f}s busy")
            datasets = machines["dataset_cache"]
            if datasets["hits"] or datasets["misses"]:
                print(f"datasets:  {datasets['hits']:g} hits / "
                      f"{datasets['misses']:g} misses, "
                      f"{datasets['evictions']:g} evictions")
            if traffic["scenario"] or traffic["replays"]:
                violations = " ".join(
                    f"{name}={count:g}"
                    for name, count in sorted(
                        traffic["slo_violations"].items()
                    )
                ) or "none"
                print(f"traffic:   scenario "
                      f"{traffic['scenario'] or '(steady-state)'}, "
                      f"{traffic['requests_replayed']:g} requests over "
                      f"{traffic['replays']:g} replays, "
                      f"slo violations: {violations}")
            _print_machines(machines)
        else:
            records = store.list()
            if args.json:
                print(json.dumps(
                    [_session_status(
                        record, queue, artifacts, machines,
                        _traffic_info(database, record.spec),
                    ) for record in records],
                    sort_keys=True, indent=2,
                ))
                return 0
            if not records:
                print("no sessions")
            for record in records:
                depths = queue.depths(record.id)
                done = depths["done"]
                total = sum(depths.values())
                print(f"{record.id}  {record.state:8s} "
                      f"{record.spec.system}:{record.spec.workload}  "
                      f"jobs {done}/{total}")
            _print_machines(machines)
    return 0


def _cmd_workers(args) -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if args.faults:
        # Export to REPRO_FAULTS too, so spawned workers inherit the
        # exact same deterministic fault schedule.
        from .. import faults

        faults.configure(args.faults)
    with _database(args) as database:
        results = serve(
            database,
            workers=args.num,
            lease_ttl_s=args.lease_ttl,
            drain=args.drain,
            idle_timeout_s=args.idle_timeout,
            trial_timeout_s=args.trial_timeout,
            heartbeat_interval_s=args.heartbeat_interval,
        )
        machines = _machines_info(database)
    for result in results:
        print(f"done: {result.system}:{result.workload_id} "
              f"{len(result.trials)} trials, "
              f"best accuracy {result.best_accuracy:.3f}")
    _print_machines(machines)
    return 0


def _cmd_resume(args) -> int:
    from ..__main__ import print_result

    warnings.filterwarnings("ignore", category=RuntimeWarning)
    with _database(args) as database:
        try:
            coordinator = SessionCoordinator(
                database, args.session, workers=args.workers
            )
            result = coordinator.run()
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    print_result(result)
    return 0


def _cmd_deadletter(args) -> int:
    with _database(args) as database:
        queue = JobQueue(database)
        if args.action == "list":
            letters = queue.dead_letters(args.session)
            if args.json:
                print(json.dumps(
                    [
                        {
                            "session": letter.session_id,
                            "trial": letter.trial_id,
                            "attempts": letter.attempts,
                            "error": letter.error,
                            "history": letter.error_history,
                            "quarantined_at": letter.quarantined_at,
                        }
                        for letter in letters
                    ],
                    sort_keys=True, indent=2,
                ))
                return 0
            if not letters:
                print("dead-letter queue is empty")
            for letter in letters:
                last = (letter.error or "").strip().splitlines()
                print(f"{letter.session_id}  trial {letter.trial_id}  "
                      f"{letter.attempts} attempts  "
                      f"{last[-1] if last else '?'}")
            return 0
        if args.action == "retry":
            if not args.session:
                print("error: retry needs --session", file=sys.stderr)
                return 2
            released = queue.retry_dead(args.session, trial_id=args.trial)
            print(f"released {released} job(s) back to the queue")
            return 0 if released else 1
        purged = queue.purge_dead(args.session)
        print(f"purged {purged} dead-letter row(s)")
        return 0


def _cmd_scrub(args) -> int:
    """Sweep the artifact store end to end, verifying every checksum.

    Mismatched blobs are quarantined (the next trial that wants one
    falls back to a cold run — strictly safer than training from
    damaged state), rows whose sidecar file vanished are dropped,
    pre-checksum rows are backfilled, and orphaned files are pruned.
    """
    with _database(args) as database:
        report = ArtifactStore(database).scrub(repair=not args.no_repair)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"scanned:         {report['scanned']}")
        print(f"verified:        {report['verified']}")
        print(f"quarantined:     {report['quarantined']}")
        print(f"missing blobs:   {report['missing']}")
        print(f"repaired:        {report['repaired']}")
        print(f"orphans removed: {report['orphans_removed']}")
    if not args.no_repair:
        return 0  # damage found was also contained
    return 1 if report["quarantined"] or report["missing"] else 0


def _cmd_gc(args) -> int:
    with _database(args) as database:
        counts = SessionStore(database).gc(max_age_s=args.max_age)
        pruned = ArtifactStore(database).gc(
            max_age_s=args.max_age, max_bytes=args.max_cache_bytes
        )
    print(f"sessions deleted:  {counts['sessions_deleted']}")
    print(f"jobs deleted:      {counts['jobs_deleted']}")
    print(f"leases reclaimed:  {counts['leases_reclaimed']}")
    print(f"artifacts deleted: {pruned['artifacts_deleted']}")
    print(f"bytes freed:       {pruned['bytes_freed']}")
    print(f"orphans removed:   {pruned['orphans_removed']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="EdgeTune persistent tuning service",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    submit = subparsers.add_parser("submit", help="queue a tuning session")
    submit.add_argument("workload", choices=["IC", "SR", "NLP", "OD"])
    submit.add_argument("--db", required=True, help="sqlite database path")
    submit.add_argument("--system", default="edgetune",
                        choices=list(SERVICE_SYSTEMS))
    submit.add_argument("--device", default="armv7")
    submit.add_argument("--budget", default="multi-budget")
    submit.add_argument("--metric", default="runtime",
                        choices=["runtime", "energy"])
    submit.add_argument("--target", type=float, default=None,
                        help="target accuracy (e.g. 0.8)")
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument("--samples", type=int, default=600)
    submit.add_argument("--max-trials", type=int, default=None)
    submit.add_argument("--warm-start", action="store_true",
                        help="seed the session's search model from prior "
                             "trials of the same experiment in --db")
    submit.add_argument("--reuse-checkpoints", action="store_true",
                        help="warm-resume promoted trials from their "
                             "parent rung's checkpoint (changes scores vs. "
                             "retrain-from-scratch; exact memoization is "
                             "always on)")
    submit.add_argument("--scheduler", default=None,
                        help="override the edgetune search algorithm "
                             "(e.g. 'asha' for asynchronous successive "
                             "halving; default: the system's own, bohb)")
    submit.add_argument("--num-configs", type=int, default=None,
                        help="bracket width for --scheduler sha/asha: how "
                             "many fresh configurations enter the bottom "
                             "rung (default: eta ** num_rungs)")
    submit.add_argument("--traffic", default=None,
                        help="serving-load scenario to tune under, e.g. "
                             "'flash:rate=30,mult=8,duration=60,seed=7' "
                             "(edgetune only)")
    submit.add_argument("--traffic-metric", default="p99",
                        choices=["p99", "deadline", "energy"],
                        help="SLO metric scored against the replayed trace")
    submit.add_argument("--slo-p99", type=float, default=None,
                        help="p99 latency target in seconds")
    submit.add_argument("--slo-deadline", type=float, default=None,
                        help="per-request deadline in seconds")
    submit.set_defaults(func=_cmd_submit)

    status = subparsers.add_parser("status",
                                   help="show sessions / one session")
    status.add_argument("session", nargs="?", default=None)
    status.add_argument("--db", required=True)
    status.add_argument("--json", action="store_true",
                        help="machine-readable output")
    status.set_defaults(func=_cmd_status)

    workers = subparsers.add_parser(
        "workers", help="run queued sessions with a worker pool"
    )
    workers.add_argument("--db", required=True)
    workers.add_argument("-n", "--num", type=int, default=0,
                         help="worker processes (0 = inline execution)")
    workers.add_argument("--drain", action="store_true",
                         help="exit once no queued session remains")
    workers.add_argument("--idle-timeout", type=float, default=None,
                         help="exit after this many idle seconds")
    workers.add_argument("--lease-ttl", type=float,
                         default=DEFAULT_LEASE_TTL_S,
                         help="job lease duration in seconds (also "
                              "honoured from $REPRO_LEASE_TTL_S)")
    workers.add_argument("--heartbeat-interval", type=float, default=None,
                         help="lease renewal period in seconds (default: "
                              "a quarter of the lease TTL; also honoured "
                              "from $REPRO_HEARTBEAT_INTERVAL_S)")
    workers.add_argument("--trial-timeout", type=float, default=None,
                         help="wall-clock deadline per trial in seconds "
                              "(overruns fail the job instead of hanging "
                              "the worker)")
    workers.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault-injection spec, e.g. "
                              "'seed=7;worker.crash=0.2' (chaos testing; "
                              "also honoured from $REPRO_FAULTS)")
    workers.set_defaults(func=_cmd_workers)

    resume = subparsers.add_parser(
        "resume", help="resume an interrupted session by replaying its "
                       "job log"
    )
    resume.add_argument("session")
    resume.add_argument("--db", required=True)
    resume.add_argument("-n", "--workers", type=int, default=0,
                        help="worker processes (default: inline)")
    resume.set_defaults(func=_cmd_resume)

    deadletter = subparsers.add_parser(
        "deadletter", help="inspect / retry / purge quarantined jobs"
    )
    deadletter.add_argument("action", choices=["list", "retry", "purge"])
    deadletter.add_argument("--db", required=True)
    deadletter.add_argument("--session", default=None,
                            help="restrict to one session (required for "
                                 "retry)")
    deadletter.add_argument("--trial", type=int, default=None,
                            help="retry only this trial id")
    deadletter.add_argument("--json", action="store_true",
                            help="machine-readable list output")
    deadletter.set_defaults(func=_cmd_deadletter)

    scrub = subparsers.add_parser(
        "scrub", help="verify every cached artifact's checksum; "
                      "quarantine corrupt blobs, prune orphans"
    )
    scrub.add_argument("--db", required=True)
    scrub.add_argument("--json", action="store_true",
                       help="machine-readable report")
    scrub.add_argument("--no-repair", action="store_true",
                       help="report only; exit 1 if damage is found")
    scrub.set_defaults(func=_cmd_scrub)

    gc = subparsers.add_parser(
        "gc", help="purge old finished sessions, reclaim expired leases"
    )
    gc.add_argument("--db", required=True)
    gc.add_argument("--max-age", type=float, default=7 * 24 * 3600.0,
                    help="age threshold in seconds for done/failed sessions "
                         "and unused cached artifacts")
    gc.add_argument("--max-cache-bytes", type=int, default=None,
                    help="evict least-recently-used artifacts until the "
                         "cache is under this many bytes")
    gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
