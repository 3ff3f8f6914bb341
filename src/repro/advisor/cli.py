"""Advisor command-line interface.

Operate the recommendation service over a tuning database::

    python -m repro advisor index --db tuning.sqlite
    python -m repro advisor serve --db tuning.sqlite --port 8377
    python -m repro advisor ask IC --port 8377 --target 0.8
    python -m repro advisor ask IC --db tuning.sqlite       # serverless
    python -m repro advisor bench --db tuning.sqlite --threads 8

``serve`` runs until SIGTERM/SIGINT, then drains gracefully: in-flight
requests finish, new ones are refused, and the final telemetry snapshot
is printed.  ``ask`` talks to a running server by default; given
``--db`` it queries the knowledge base in-process instead.  ``bench``
load-tests a running server, or self-hosts an ephemeral one when given
``--db``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from ..errors import AdvisorError
from ..storage import TrialDatabase
from .client import DEFAULT_PORT, AdvisorClient
from .kb import KnowledgeBase
from .loadgen import run_load
from .server import DEFAULT_CACHE_SIZE, AdvisorServer


def _cmd_serve(args) -> int:
    with TrialDatabase(args.db) as database:
        server = AdvisorServer(
            database,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            rate_limit=args.rate_limit,
            burst=args.burst,
        )
        if args.index:
            print(f"indexed {server.kb.index_sessions()} sessions")
        with server.serving(
            signals=True, drain_timeout_s=args.drain_timeout
        ) as serve_thread:
            print(f"advisor listening on {server.host}:{server.port} "
                  f"(knowledge base: {server.kb.size()} recommendations)")
            sys.stdout.flush()
            serve_thread.join()
        print("drained; final stats:")
        print(json.dumps(server.meters.snapshot(), sort_keys=True, indent=2))
    return 0


def _cmd_ask(args) -> int:
    if args.db is not None:
        with TrialDatabase(args.db) as database:
            try:
                advice = KnowledgeBase(database).query(
                    workload=args.workload,
                    device=args.device,
                    objective=args.objective,
                    target_accuracy=args.target,
                    allow_nearest=not args.exact,
                )
            except AdvisorError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
        print(json.dumps(advice.to_dict(), sort_keys=True, indent=2))
        return 0
    try:
        with AdvisorClient(args.host, args.port) as client:
            response = client.ask(
                workload=args.workload,
                device=args.device,
                objective=args.objective,
                target_accuracy=args.target,
                allow_nearest=not args.exact,
            )
    except AdvisorError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(response, sort_keys=True, indent=2))
    return 0 if response.get("ok") else 1


def _cmd_index(args) -> int:
    with TrialDatabase(args.db) as database:
        kb = KnowledgeBase(database)
        indexed = kb.index_sessions()
        print(f"sessions indexed:  {indexed}")
        print(f"knowledge base:    {kb.size()} recommendations")
    return 0


def _cmd_bench(args) -> int:
    host, port = args.host, args.port
    asks = [
        {"workload": workload, "device": args.device,
         "objective": args.objective}
        for workload in args.workloads
    ]
    try:
        with contextlib.ExitStack() as stack:
            if args.db is not None:
                # Self-hosted mode: ephemeral server on a random port.
                server = AdvisorServer(
                    stack.enter_context(TrialDatabase(args.db)),
                    host=args.host, port=0, cache_size=args.cache_size,
                )
                stack.enter_context(server.serving())
                host, port = server.host, server.port
            report = run_load(
                host, port,
                threads=args.threads,
                duration_s=args.duration,
                asks=asks,
            )
        print(report.render())
        return 0 if report.errors == 0 else 1
    except AdvisorError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro advisor",
        description="EdgeTune recommendation advisor",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    serve = subparsers.add_parser(
        "serve", help="run the recommendation server"
    )
    serve.add_argument("--db", required=True, help="sqlite database path")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument("--cache-size", type=int, default=DEFAULT_CACHE_SIZE)
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-client requests/second (default: off)")
    serve.add_argument("--burst", type=int, default=None,
                       help="rate-limit burst depth (default: 1s of rate)")
    serve.add_argument("--index", action="store_true",
                       help="index finished sessions before serving")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="max seconds to wait for in-flight requests")
    serve.set_defaults(func=_cmd_serve)

    ask = subparsers.add_parser(
        "ask", help="query a recommendation (server, or --db in-process)"
    )
    ask.add_argument("workload", choices=["IC", "SR", "NLP", "OD"])
    ask.add_argument("--host", default="127.0.0.1")
    ask.add_argument("--port", type=int, default=DEFAULT_PORT)
    ask.add_argument("--db", default=None,
                     help="query this database directly instead of a server")
    ask.add_argument("--device", default="armv7")
    ask.add_argument("--objective", default="runtime",
                     choices=["runtime", "energy"])
    ask.add_argument("--target", type=float, default=None,
                     help="target accuracy the session was tuned for")
    ask.add_argument("--exact", action="store_true",
                     help="fail instead of nearest-workload matching")
    ask.set_defaults(func=_cmd_ask)

    index = subparsers.add_parser(
        "index", help="build the knowledge base from finished sessions"
    )
    index.add_argument("--db", required=True)
    index.set_defaults(func=_cmd_index)

    bench = subparsers.add_parser(
        "bench", help="load-test a server (or self-host one with --db)"
    )
    bench.add_argument("--host", default="127.0.0.1")
    bench.add_argument("--port", type=int, default=DEFAULT_PORT)
    bench.add_argument("--db", default=None,
                       help="self-host an ephemeral server over this db")
    bench.add_argument("--threads", type=int, default=4)
    bench.add_argument("--duration", type=float, default=2.0,
                       help="measured load duration, seconds")
    bench.add_argument("--cache-size", type=int, default=DEFAULT_CACHE_SIZE)
    bench.add_argument("--device", default="armv7")
    bench.add_argument("--objective", default="runtime",
                       choices=["runtime", "energy"])
    bench.add_argument("--workloads", nargs="+", default=["IC"],
                       choices=["IC", "SR", "NLP", "OD"])
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
