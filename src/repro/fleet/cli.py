"""Fleet command-line interface.

Operate a multi-host tuning fleet::

    # Coordinator machine: dispatch server + session driver
    python -m repro fleet serve --db tuning.sqlite --port 8378

    # Each worker machine: isolated local DB, remote dispatch
    python -m repro fleet workers --connect coordinator:8378 \
        --db /tmp/machine-a.sqlite --machine-id machine-a

    python -m repro fleet register --connect coordinator:8378 \
        --machine-id probe            # join without serving (inspection)
    python -m repro fleet status --connect coordinator:8378
    python -m repro fleet drain --connect coordinator:8378

``serve`` runs the dispatch server, the dead-host janitor, and the
remote session coordinator in one process; it exits once drained (or,
with ``--drain``, once no queued session remains).  ``workers`` is the
whole worker-machine side: it registers, leases jobs from the hub,
executes them against its own local database, and streams results back.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import warnings
from typing import Tuple

from ..errors import FleetError
from ..service.queue import DEFAULT_LEASE_TTL_S
from ..service.worker import IDLE_POLL_S
from ..storage import TrialDatabase
from .client import DEFAULT_PORT, FleetClient
from .host import RemoteHost
from .registry import DEFAULT_MACHINE_TTL_S
from .server import FleetServer


def _endpoint(raw: str) -> Tuple[str, int]:
    """Parse ``host[:port]``."""
    host, _, port = raw.partition(":")
    return host or "127.0.0.1", int(port) if port else DEFAULT_PORT


def _cmd_serve(args) -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if args.faults:
        from .. import faults

        faults.configure(args.faults)
    with TrialDatabase(args.db) as database:
        server = FleetServer(
            database,
            host=args.host,
            port=args.port,
            lease_ttl_s=args.lease_ttl,
            machine_ttl_s=args.machine_ttl,
            rate_limit=args.rate_limit,
        )
        with server.serving(signals=True):
            print(f"fleet coordinator listening on "
                  f"{server.host}:{server.port} (epoch {server.epoch}, "
                  f"{server.recovery['sessions_requeued']} session(s) "
                  f"recovered)")
            sys.stdout.flush()
            server.start_janitor()
            results = server.run_sessions(
                drain=args.drain, idle_timeout_s=args.idle_timeout
            )
        for result in results:
            print(f"done: {result.system}:{result.workload_id} "
                  f"{len(result.trials)} trials, "
                  f"best accuracy {result.best_accuracy:.3f}")
        print("fleet stats: " + json.dumps(
            server.database.stats(), sort_keys=True
        ))
    return 0


def _cmd_workers(args) -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if args.faults:
        from .. import faults

        faults.configure(args.faults)
    host, port = _endpoint(args.connect)
    machine = RemoteHost(
        args.machine_id, host, port, args.db,
        poll_interval_s=args.poll_interval,
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        done = machine.run_forever(
            stop_event=stop, idle_timeout_s=args.idle_timeout
        )
    except FleetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        machine.close()
    print(f"{args.machine_id}: {done} jobs done, "
          f"{machine.jobs_failed} failed, "
          f"{machine.hub.federation_hits} federation hits, "
          f"{machine.hub.federation_uploads} uploads")
    return 0


def _client_command(args, op: str, **params) -> int:
    host, port = _endpoint(args.connect)
    try:
        with FleetClient(host, port) as client:
            response = client.request(op, **params)
    except FleetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(response, sort_keys=True, indent=2))
    return 0 if response.get("ok") else 1


def _cmd_register(args) -> int:
    from .registry import local_capabilities

    return _client_command(
        args, "register",
        machine_id=args.machine_id,
        capabilities=local_capabilities(),
    )


def _cmd_status(args) -> int:
    return _client_command(args, "status")


def _cmd_drain(args) -> int:
    return _client_command(args, "drain")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="EdgeTune multi-host tuning fleet",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve = subparsers.add_parser(
        "serve", help="run the fleet coordinator (dispatch + sessions)"
    )
    serve.add_argument("--db", required=True, help="central sqlite path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument("--lease-ttl", type=float,
                       default=DEFAULT_LEASE_TTL_S,
                       help="job lease duration granted to machines "
                            "(also honoured from $REPRO_LEASE_TTL_S)")
    serve.add_argument("--machine-ttl", type=float,
                       default=DEFAULT_MACHINE_TTL_S,
                       help="heartbeat silence before a machine is "
                            "declared dead")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-client requests/second (default: off)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once no queued session remains")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       help="exit after this many idle seconds")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault-injection spec (chaos testing; also "
                            "honoured from $REPRO_FAULTS)")
    serve.set_defaults(func=_cmd_serve)

    workers = subparsers.add_parser(
        "workers", help="serve the fleet from this machine"
    )
    workers.add_argument("--connect", required=True, metavar="HOST[:PORT]",
                         help="fleet coordinator endpoint")
    workers.add_argument("--db", required=True,
                         help="this machine's own (isolated) sqlite path")
    workers.add_argument("--machine-id", required=True,
                         help="stable machine identity (a reconnect "
                              "rejoins under it)")
    workers.add_argument("--idle-timeout", type=float, default=None,
                         help="exit after this many idle seconds")
    workers.add_argument("--poll-interval", type=float,
                         default=IDLE_POLL_S,
                         help="idle tick: how long the hub may hold an "
                              "empty lease before answering")
    workers.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault-injection spec (chaos testing)")
    workers.set_defaults(func=_cmd_workers)

    register = subparsers.add_parser(
        "register", help="register this machine without serving"
    )
    register.add_argument("--connect", required=True,
                          metavar="HOST[:PORT]")
    register.add_argument("--machine-id", required=True)
    register.set_defaults(func=_cmd_register)

    status = subparsers.add_parser(
        "status", help="fleet overview from a running coordinator"
    )
    status.add_argument("--connect", required=True, metavar="HOST[:PORT]")
    status.set_defaults(func=_cmd_status)

    drain = subparsers.add_parser(
        "drain", help="ask the coordinator to stop handing out work"
    )
    drain.add_argument("--connect", required=True, metavar="HOST[:PORT]")
    drain.set_defaults(func=_cmd_drain)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
