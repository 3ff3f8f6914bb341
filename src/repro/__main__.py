"""Top-level command-line interface.

Tune a workload end to end from the shell::

    python -m repro tune IC --device armv7 --target 0.8
    python -m repro tune IC --db tuning.sqlite --warm-start
    python -m repro tune SR --system tune --budget epochs
    python -m repro advisor ask IC --db tuning.sqlite
    python -m repro devices
    python -m repro workloads

(`python -m repro.experiments ...` regenerates the paper's tables/figures;
``python -m repro advisor ...`` serves recommendations from past sessions.)
"""

from __future__ import annotations

import argparse
import sys
import warnings


def print_result(result) -> None:
    """Shared result block for ``tune`` and ``service resume``."""
    print(f"system:           {result.system}")
    print(f"workload:         {result.workload_id}")
    print(f"trials:           {result.num_trials}")
    print(f"best accuracy:    {result.best_accuracy:.3f}")
    print(f"best config:      {result.best_configuration}")
    print(f"tuning runtime:   {result.tuning_runtime_minutes:.1f} simulated minutes")
    print(f"tuning energy:    {result.tuning_energy_kj:.1f} kJ")
    if result.inference is not None:
        measurement = result.inference.measurement
        print(f"deployment:       {result.inference.configuration} on "
              f"{result.inference.device}")
        print(f"                  {measurement.throughput_sps:.2f} samples/s, "
              f"{measurement.energy_per_sample_j:.3f} J/sample")


def _tune_service(args) -> int:
    """``tune --workers N``: run through the job-queue service."""
    import os
    import tempfile

    from .service import SERVICE_SYSTEMS, SessionCoordinator, SessionSpec, \
        SessionStore
    from .storage import TrialDatabase

    if args.system not in SERVICE_SYSTEMS:
        print(f"--workers does not support system {args.system!r} "
              f"(pick one of {', '.join(SERVICE_SYSTEMS)})", file=sys.stderr)
        return 2
    db_path = args.db
    temp_handle = None
    if db_path is None:
        # Workers are separate processes; they need a real file to share.
        temp_handle = tempfile.NamedTemporaryFile(
            prefix="repro-tune-", suffix=".sqlite", delete=False
        )
        temp_handle.close()
        db_path = temp_handle.name
    database = TrialDatabase(db_path)
    try:
        spec = SessionSpec(
            system=args.system,
            workload=args.workload,
            device=args.device,
            budget=args.budget,
            tuning_metric=args.metric,
            seed=args.seed,
            samples=args.samples,
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
        result = SessionCoordinator(
            database, session_id, workers=args.workers,
            pin_order=args.pin_order,
        ).run()
    finally:
        database.close()
        if temp_handle is not None:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(db_path + suffix)
                except OSError:
                    pass
    print_result(result)
    return 0


def _slo_from_args(args):
    """SLOSpec from the ``--slo-*`` flags (None when none are set)."""
    if args.slo_p99 is None and args.slo_deadline is None:
        return None
    from .traffic import SLOSpec

    return SLOSpec(p99_target_s=args.slo_p99, deadline_s=args.slo_deadline)


def _cmd_tune(args) -> int:
    from . import EdgeTune
    from .baselines import HierarchicalTuner, HyperPowerBaseline, TuneBaseline
    from .budgets import build_budget
    from .storage import TrialDatabase

    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if args.traffic is None and args.system == "edgetune" \
            and _slo_from_args(args) is not None:
        print("--slo-p99/--slo-deadline need --traffic (a trace to replay)",
              file=sys.stderr)
        return 2
    if args.traffic is not None and args.system != "edgetune":
        print("--traffic is only supported by --system edgetune",
              file=sys.stderr)
        return 2
    if args.scheduler is not None and args.system != "edgetune":
        print("--scheduler is only supported by --system edgetune",
              file=sys.stderr)
        return 2
    if args.num_configs is not None and args.scheduler not in ("sha", "asha"):
        print("--num-configs only applies to --scheduler sha/asha",
              file=sys.stderr)
        return 2
    if args.workers:
        return _tune_service(args)
    if args.warm_start and args.db is None:
        print("--warm-start needs --db (prior sessions to learn from)",
              file=sys.stderr)
        return 2
    if args.warm_start and args.system == "hierarchical":
        print("--warm-start is not supported by the hierarchical tuner",
              file=sys.stderr)
        return 2
    if args.reuse_checkpoints and args.system == "hierarchical":
        print("--reuse-checkpoints is not supported by the hierarchical "
              "tuner", file=sys.stderr)
        return 2
    database = TrialDatabase(args.db) if args.db is not None else None
    common = dict(
        workload=args.workload,
        seed=args.seed,
        samples=args.samples,
        target_accuracy=args.target,
        database=database,
    )
    try:
        if args.system == "edgetune":
            extra = {}
            if args.scheduler is not None:
                extra["algorithm"] = args.scheduler
            if args.num_configs is not None:
                extra["num_configs"] = args.num_configs
            tuner = EdgeTune(device=args.device, budget=args.budget,
                             tuning_metric=args.metric,
                             warm_start=args.warm_start,
                             reuse_checkpoints=args.reuse_checkpoints,
                             traffic=args.traffic,
                             traffic_metric=args.traffic_metric,
                             slo=_slo_from_args(args),
                             **extra, **common)
        elif args.system == "tune":
            tuner = TuneBaseline(budget=build_budget(args.budget), **common)
        elif args.system == "hyperpower":
            tuner = HyperPowerBaseline(budget=build_budget(args.budget),
                                       **common)
        else:
            common.pop("target_accuracy")
            common.pop("database")
            tuner = HierarchicalTuner(device=args.device,
                                      tuning_metric=args.metric, **common)
        if args.warm_start and args.system in ("tune", "hyperpower"):
            tuner.server.warm_start = True
        if args.reuse_checkpoints and args.system in ("tune", "hyperpower"):
            tuner.server.enable_checkpoint_reuse()
        result = tuner.tune()
    finally:
        if database is not None:
            database.close()
    print_result(result)
    if args.warm_start and hasattr(tuner, "server"):
        print(f"warm-started from: "
              f"{tuner.server.warm_started_trials} prior trials")
    elif args.warm_start:
        print(f"warm-started from: "
              f"{tuner.model_server.warm_started_trials} prior trials")
    return 0


def _cmd_devices(args) -> int:
    from .hardware import DEVICES

    for name, spec in sorted(DEVICES.items()):
        print(f"{name:14s} [{spec.device_class:6s}] {spec.cores} cores @ "
              f"{spec.max_frequency_ghz} GHz, {spec.memory_gb} GB RAM"
              + (f", {spec.gpus} GPUs" if spec.gpus else ""))
    return 0


def _cmd_workloads(args) -> int:
    from .workloads import WORKLOADS

    for workload_id, workload in WORKLOADS.items():
        row = workload.table1
        print(f"{workload_id:4s} {row.type_label:28s} "
              f"{workload.model_name:8s} on {workload.dataset_name} "
              f"({row.datasize}, {row.train_files} train files)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EdgeTune reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tune = subparsers.add_parser("tune", help="run a tuning job")
    tune.add_argument("workload", choices=["IC", "SR", "NLP", "OD"])
    tune.add_argument("--system", default="edgetune",
                      choices=["edgetune", "tune", "hyperpower",
                               "hierarchical"])
    tune.add_argument("--device", default="armv7")
    tune.add_argument("--budget", default="multi-budget")
    tune.add_argument("--metric", default="runtime",
                      choices=["runtime", "energy"])
    tune.add_argument("--target", type=float, default=None,
                      help="target accuracy (e.g. 0.8)")
    tune.add_argument("--seed", type=int, default=7)
    tune.add_argument("--samples", type=int, default=600)
    tune.add_argument("--workers", type=int, default=0,
                      help="run via the tuning service with N parallel "
                           "worker processes (0 = classic in-process run)")
    tune.add_argument("--db", default=None,
                      help="persistent sqlite path: required by --workers "
                           "runs (default: a temporary file) and by "
                           "--warm-start")
    tune.add_argument("--warm-start", action="store_true",
                      help="seed the search model from prior trials of the "
                           "same experiment recorded in --db")
    tune.add_argument("--reuse-checkpoints", action="store_true",
                      help="warm-resume promoted trials from their parent "
                           "rung's checkpoint via the artifact cache "
                           "(changes scores vs. retrain-from-scratch)")
    tune.add_argument("--scheduler", default=None,
                      help="override the edgetune search algorithm, e.g. "
                           "'asha' for asynchronous successive halving "
                           "(default: the system's own, bohb)")
    tune.add_argument("--num-configs", type=int, default=None,
                      help="bracket width for --scheduler sha/asha: how "
                           "many fresh configurations enter the bottom "
                           "rung (default: eta ** num_rungs)")
    tune.add_argument("--pin-order", action="store_true",
                      help="with an asynchronous scheduler, integrate "
                           "results strictly in issue order (replay mode: "
                           "decision log is identical across worker "
                           "counts, at the cost of async speedup)")
    tune.add_argument("--traffic", default=None,
                      help="serving-load scenario to tune under, e.g. "
                           "'diurnal:rate=40,peak=4,duration=120,seed=7' "
                           "(edgetune only; see `python -m repro traffic`)")
    tune.add_argument("--traffic-metric", default="p99",
                      choices=["p99", "deadline", "energy"],
                      help="SLO metric scored against the replayed trace")
    tune.add_argument("--slo-p99", type=float, default=None,
                      help="p99 latency target in seconds (reported as an "
                           "SLO violation when exceeded)")
    tune.add_argument("--slo-deadline", type=float, default=None,
                      help="per-request deadline in seconds (missed "
                           "requests count against the deadline metric)")
    tune.set_defaults(func=_cmd_tune)

    devices = subparsers.add_parser("devices", help="list emulated devices")
    devices.set_defaults(func=_cmd_devices)

    workloads = subparsers.add_parser("workloads",
                                      help="list Table 1 workloads")
    workloads.set_defaults(func=_cmd_workloads)

    subparsers.add_parser(
        "advisor",
        help="recommendation advisor (serve/ask/index/bench); "
             "see `python -m repro advisor --help`",
        add_help=False,
    )

    subparsers.add_parser(
        "fleet",
        help="multi-host tuning fleet (serve/workers/register/status/"
             "drain); see `python -m repro fleet --help`",
        add_help=False,
    )

    subparsers.add_parser(
        "traffic",
        help="serving-load traces (generate/replay/compare); "
             "see `python -m repro traffic --help`",
        add_help=False,
    )

    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "advisor":
        # The advisor owns its whole sub-CLI (including --help).
        from .advisor.cli import main as advisor_main

        return advisor_main(argv[1:])
    if argv and argv[0] == "fleet":
        from .fleet.cli import main as fleet_main

        return fleet_main(argv[1:])
    if argv and argv[0] == "traffic":
        from .traffic.cli import main as traffic_main

        return traffic_main(argv[1:])
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
