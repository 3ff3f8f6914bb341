#!/usr/bin/env python3
"""Session benchmark harness: one workload, one closed-loop client.

    python3 benchmarks/session/run.py --workload bare_conv --seed 1 \
        --seconds 20 --trace 0

Sets the workload up (three times, to report a median ``setup_s``),
then runs tuning sessions back to back -- the next starts when the
previous returned -- for ``--seconds``, checks every session against
the in-process reference fingerprint, prints every metric by name with
its unit and ends with one JSON line.  ``--trace 1`` adds two traced
sessions of the workload's in-process twin and prints the per-layer
metrics instead.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads, and inherited by every child: with OpenBLAS's
# default of one thread per core, run-to-run spread on this 2-core box
# is several times wider (README, "Noise").
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
SCRATCH_ROOT = os.path.join(ROOT, ".session_bench")

NAMES = ("bare_conv", "bare_recurrent", "service_cold", "fleet_memo")
SETUPS = 3
TRACED_SESSIONS = 2
SESSION_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 120.0


def _quantiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"p25": values[0], "p75": values[0], "p90": values[0]}
    deciles = statistics.quantiles(values, n=20, method="inclusive")
    return {"p25": deciles[4], "p75": deciles[14], "p90": deciles[17]}


class Harness:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.scratch = os.path.join(
            SCRATCH_ROOT, f"run-{os.getpid()}-{args.seed}"
        )
        self.pid = os.getpid()
        self.workload: Any = None
        #: The ``host`` module and its sampler; loaded (and timed) by
        #: :meth:`load`, because importing them pulls in numpy.
        self.host: Any = None
        self.sampler: Any = None
        self.stragglers: List[int] = []
        #: One record per timed session.
        self.sessions: List[Dict[str, Any]] = []

    # -- measured intervals ------------------------------------------------------
    def measure(self, action, timeout_s: float) -> Dict[str, Any]:
        """Run ``action`` under the speed sampler; raw and corrected
        wall/CPU seconds of the interval, probe time taken out."""
        host = self.host
        before = host.descendants()
        cpu = host.cpu_seconds(before)
        thread_cpu = time.thread_time()
        steal = host.steal_seconds()
        self.sampler.start(timeout_s)
        started = time.perf_counter()
        error: Optional[BaseException] = None
        value = None
        try:
            value = action()
        except Exception as caught:  # SessionTimeout included
            error = caught
        ended = time.perf_counter()
        interval = self.sampler.stop()
        steal = host.steal_seconds() - steal
        after = host.descendants()
        thread_cpu = time.thread_time() - thread_cpu - interval.probe_cpu_s
        cpu = host.cpu_seconds(after) - cpu - interval.probe_cpu_s
        wall = ended - started - interval.probe_wall_s
        return {
            "value": value,
            "error": error,
            "wall_raw_s": wall,
            "cpu_raw_s": cpu,
            "wall_s": host.correct(
                wall, cpu, steal, interval.factor,
                parallel=min(os.cpu_count() or 1, 1 + len(before)),
            ),
            "cpu_s": cpu / interval.factor,
            "off_cpu_s": max(0.0, wall - thread_cpu),
            "rss_mb": host.peak_rss_mb(set(before) | set(after)),
            "samples": interval.samples,
            "steal_s": steal,
            "factor": interval.factor,
        }

    # -- phases ---------------------------------------------------------------------
    def load(self) -> float:
        """Once-only imports; returns their corrected duration."""
        started = time.perf_counter()
        import numpy  # noqa: F401

        sys.path.insert(0, SOURCE)
        sys.path.insert(0, HERE)
        import host

        numpy_s = time.perf_counter() - started
        self.host = host
        self.sampler = host.SpeedSampler(self.args.seed)

        def imports():
            import workloads  # noqa: F401  (pulls in repro)
            import ledger  # noqa: F401

        record = self.measure(imports, SETUP_TIMEOUT_S)
        if record["error"] is not None:
            raise record["error"]
        factor = record["wall_raw_s"] / record["wall_s"]
        return record["wall_s"] + numpy_s / factor

    def set_up(self) -> List[float]:
        import workloads

        self.workload = workloads.WORKLOADS[self.args.workload](
            self.scratch, self.args.tuning_seed, self.args.seed
        )
        # ``setup_s`` is an end-to-end metric; a traced run reports none,
        # so it sets up once.
        rounds = 1 if self.args.trace else SETUPS
        durations = []
        for index in range(rounds):
            record = self.measure(self.workload.setup, SETUP_TIMEOUT_S)
            if record["error"] is not None:
                raise record["error"]
            durations.append(record["wall_s"])
            if index < rounds - 1:
                self.workload.teardown()
        if self.args.corrupt_reference:
            self.workload.reference = ("corrupted",)
        return durations

    def one_session(self, begin, run, end) -> Dict[str, Any]:
        begin()
        record = self.measure(run, SESSION_TIMEOUT_S)
        result = record.pop("value")
        record["ok"] = record["error"] is None and self.workload.check(result)
        if record["error"] is not None:
            record["error"] = repr(record["error"])
        counters = end() or {}
        counters["service.coordinator.off_cpu_s"] = record["off_cpu_s"]
        record["outside"] = counters
        return record

    def window(self) -> None:
        workload = self.workload
        deadline = time.perf_counter() + self.args.seconds
        while True:
            self.sessions.append(self.one_session(
                workload.begin, workload.session, workload.end
            ))
            typical = statistics.median(
                s["wall_raw_s"] for s in self.sessions
            )
            # Stop where the expected overshoot is zero, not one session.
            if time.perf_counter() + typical / 2.0 > deadline:
                break

    def traced(self) -> Dict[str, float]:
        """Per-layer metrics from two traced sessions of the twin."""
        import ledger

        workload = self.workload
        tracer = ledger.Tracer()
        untraced = self.one_session(
            workload.begin_twin, workload.twin, workload.end_twin
        )
        baseline = self.measure(workload.baseline, SESSION_TIMEOUT_S)
        from repro.core.model_server import dataset_cache_stats

        cache = dataset_cache_stats()
        uninstall = ledger.install(tracer)
        walls = []
        try:
            for index in range(TRACED_SESSIONS):
                workload.begin_twin()
                started = time.perf_counter()
                with tracer.root(f"{workload.name}-traced-{index}"):
                    result = workload.twin()
                walls.append(time.perf_counter() - started)
                workload.end_twin()
                if not workload.check(result):
                    raise RuntimeError("traced session missed the reference")
        finally:
            uninstall()
        if not untraced["ok"]:
            raise RuntimeError(f"untraced twin failed: {untraced['error']}")
        rows = ledger.summarize(tracer.spans)
        metrics = ledger.layer_metrics(rows, tracer.counts, TRACED_SESSIONS)
        hits, misses = (
            dataset_cache_stats()[key] - cache[key]
            for key in ("hits", "misses")
        )
        metrics["datasets.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        # Counters that exist outside the timed, untraced sessions'
        # processes win over the twin's.
        for key in {k for s in self.sessions for k in s["outside"]}:
            metrics[key] = statistics.fmean(
                s["outside"].get(key, 0.0) for s in self.sessions
            )
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls) / untraced["wall_raw_s"]
        )
        window_wall = statistics.median(
            s["wall_raw_s"] for s in self.sessions
        )
        metrics["platform.overhead_ratio"] = (
            1.0 if baseline["value"] is None
            else window_wall / baseline["wall_raw_s"]
        )
        metrics["host.speed_factor"], metrics["host.probe_cv"] = (
            self.sampler.summary()
        )
        if self.args.trace_out:
            with open(self.args.trace_out, "w") as handle:
                json.dump({
                    "spans": [list(span) for span in tracer.spans],
                    "rows": {n: list(r) for n, r in sorted(rows.items())},
                    "counts": dict(tracer.counts),
                }, handle)
        return {name: metrics.get(name, 0.0) for name, _, _ in ledger.PER_LAYER}

    # -- hygiene ----------------------------------------------------------------------
    def clean_up(self) -> None:
        """Stop fixtures, kill what is still alive, drop the scratch dir."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            if self.workload is not None:
                self.workload.teardown()
        finally:
            self.kill_stragglers()
            shutil.rmtree(self.scratch, ignore_errors=True)
            try:
                os.rmdir(SCRATCH_ROOT)
            except OSError:
                pass  # another run is using it

    def kill_stragglers(self) -> None:
        if self.host is None:  # died before anything could be started
            return
        for pid in self.host.descendants():
            self.stragglers.append(pid)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        for pid in self.stragglers:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _stat_line(kind: str, name: str, unit: str, values: List[float],
               raw: Optional[List[float]] = None) -> str:
    quantiles = _quantiles(values)
    text = (
        f"{kind} {name} = {statistics.median(values):.6g} {unit}"
        f"  (p25 {quantiles['p25']:.6g}, p75 {quantiles['p75']:.6g}, "
        f"p90 {quantiles['p90']:.6g}, min {min(values):.6g}, "
        f"n {len(values)}"
    )
    if raw:
        text += f", raw median {statistics.median(raw):.6g}"
    return text + ")"


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    harness = Harness(args)

    def on_signal(signum, frame):
        if os.getpid() != harness.pid:  # a forked child: die as asked
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    os.makedirs(harness.scratch, exist_ok=True)
    layers: Optional[Dict[str, float]] = None
    try:
        import_s = harness.load()
        watch = harness.host.HostWatch(harness.scratch)
        setups = harness.set_up()
        harness.window()
        if args.trace:
            layers = harness.traced()
        block = watch.block(harness.sampler)
    finally:
        harness.clean_up()
        if harness.sampler is not None:
            harness.sampler.close()

    sessions = harness.sessions
    good = [s for s in sessions if s["ok"]] or sessions
    failed = sum(1 for s in sessions if not s["ok"])
    end_to_end = {
        "session_wall_s": (
            "s", [s["wall_s"] for s in good], [s["wall_raw_s"] for s in good]
        ),
        "session_cpu_s": (
            "s", [s["cpu_s"] for s in good], [s["cpu_raw_s"] for s in good]
        ),
        "setup_s": ("s", [import_s + s for s in setups], None),
        "peak_rss_mb": ("MiB", [max(s["rss_mb"] for s in sessions)], None),
    }
    print(f"workload {args.workload}  seed {args.seed}  tuning-seed "
          f"{args.tuning_seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (unit, values, raw) in end_to_end.items():
        print(_stat_line("e2e", name, unit, values, raw))
    print(f"e2e sessions_failed_share = {failed / len(sessions):.6g} ratio"
          f"  ({failed} of {len(sessions)} sessions)")
    for session in sessions:
        if not session["ok"]:
            print(f"failed session: {session['error'] or 'fingerprint differs from the reference'}")
    if layers is None:
        metrics = {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values, _) in end_to_end.items()
        }
    else:
        import ledger

        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _ in ledger.PER_LAYER
        }
        for name, metric in metrics.items():
            print(f"layer {name} = {metric['value']:.6g} {metric['unit']}")
    block["stragglers_killed"] = harness.stragglers
    print("host " + json.dumps(block, sort_keys=True))
    summary = {
        "correct": failed == 0 and not harness.stragglers,
        "attempted": len(sessions),
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "tuning_seed": args.tuning_seed, "seconds": args.seconds,
                "trace": args.trace, "host": block,
                "sessions": [
                    {k: v for k, v in s.items() if k != "outside"}
                    for s in sessions
                ],
                "result": summary,
            }, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="session ids and calibration data")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tuning-seed", type=int, default=7,
                        help="decides which configurations BOHB draws, and "
                             "so the work; results compare at equal value")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: every session must fail the check")
    parser.add_argument("--out", help="append the full record (JSON line)")
    parser.add_argument("--trace-out", help="write spans and rows (JSON)")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    # One process per workload: caches, RSS and fixtures start clean.
    forwarded = [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--tuning-seed", str(args.tuning_seed),
    ]
    if args.corrupt_reference:
        forwarded.append("--corrupt-reference")
    if args.out:
        forwarded += ["--out", args.out]
    worst = 0
    for name in NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, *forwarded]
        if args.trace_out:
            command += ["--trace-out", f"{args.trace_out}.{name}"]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
