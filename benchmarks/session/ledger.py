"""Outside-in span ledger: where a tuning session's time goes, by layer.

Nothing under ``src/repro`` knows about spans yet (that is the ROADMAP's
"session profile" item).  Until it does, the benchmark records them from
outside: :func:`install` swaps the public functions named in
:data:`TARGETS` for wrappers that note (name, start, end, parent,
session id) in memory; :func:`summarize` turns the spans into rows.

A row's *self time* is its spans' duration minus the part their child
spans cover.  Children are the spans opened on the same thread while
the parent was open, so on the thread that runs the session the rows
sum to the root span exactly (``trace.coverage`` is the share of the
root that is *not* the root's own self time).  Spans of helper threads
(the hub's connection handlers, the in-harness fleet host) carry the
same session id and add their self time to the same rows, but never
shrink a parent on another thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

ROOT = "session"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    session: Optional[str]
    thread: int
    #: Off-CPU by construction (a sleep, a socket round trip).
    wait: bool


class Tracer:
    """In-memory span and counter store; cheap no-op while disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.session: Optional[str] = None
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, wait: bool = False) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, name, start, end, parent, self.session,
                threading.get_ident(), wait,
            ))

    @contextlib.contextmanager
    def root(self, session: str) -> Iterator[None]:
        """Trace one session: enables recording for its duration."""
        self.session, self.enabled = session, True
        try:
            with self.span(ROOT):
                yield
        finally:
            self.enabled = False

    def wrap(
        self,
        function: Callable,
        name: str,
        wait: bool = False,
        count: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``function`` recorded as span ``name``; ``count(counts,
        result, *args, **kwargs)`` may bump counters after each call.

        Spelled out rather than built on :meth:`span`: the kernels are
        entered ~18 000 times a session and a generator-based context
        manager would double what tracing costs them.
        """
        ids, stack_of = self._ids, self._stack

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return function(*args, **kwargs)
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    span_id, name, start, end, parent, self.session,
                    threading.get_ident(), wait,
                ))
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return wrapper


# -- what gets wrapped -----------------------------------------------------------
def _bytes_of_result(key: str):
    def count(counts, result, *args, **kwargs):
        counts[key] += len(result)
    return count


def _bytes_of_arg(key: str, index: int):
    def count(counts, result, *args, **kwargs):
        counts[key] += len(args[index])
    return count


def _hit(key: str):
    def count(counts, result, *args, **kwargs):
        counts[key] += result is not None
    return count


def _empty(key: str):
    def count(counts, result, *args, **kwargs):
        counts[key] += result is None
    return count


def _count_group(counts, result, tasks, *args, **kwargs):
    counts["trial_batch.stacked_trials"] += len(tasks)
    counts["trial_batch.groups"] += 1


def _count_wave(counts, result, tasks, *args, **kwargs):
    counts["trial_batch.trials"] += len(tasks)


def _count_op(counts, result, *args, **kwargs):
    # Only requests carry an ``op``; responses decoded by a client do not.
    if "op" in result:
        counts["fleet.server.op." + str(result["op"])] += 1


def _count_line(counts, result, server, line, *args, **kwargs):
    counts["fleet.server.bytes_in"] += len(line)


def _count_close(counts, result, client, *args, **kwargs):
    # Mid-session the client only closes to dial again (transport error
    # or injected churn); the final close happens after the session.
    counts["fleet.client.reconnects"] += 1


#: (module, dotted attribute, row name, options).  A function is swapped
#: in every loaded ``repro`` module that imported it by name; a method
#: is swapped on its class.
TARGETS = [
    ("repro.search.bohb", "BOHBScheduler.next_trial", "search.next_trial", {}),
    ("repro.search.bohb", "BOHBScheduler.report", "search.report", {}),
    ("repro.search.bohb", "BOHBScheduler.state_dict", "search.state_dict", {}),
    *[
        ("repro.core.model_server", f"ModelTuningServer.{method}",
         f"core.model_server.{method}", {})
        for method in ("prepare", "next_wave", "make_task", "integrate",
                       "finalize")
    ],
    ("repro.core.model_server", "ModelTuningServer.snapshot_run",
     "core.model_server.snapshot_run",
     {"count": _bytes_of_result("core.model_server.snapshot_run.bytes")}),
    ("repro.core.inference_server", "InferenceTuningServer.tune",
     "core.inference_server.tune", {}),
    ("repro.core.inference_server", "InferenceTuningServer.cached",
     "core.inference_server.cached",
     {"count": _hit("core.inference_server.cached.hits")}),
    ("repro.hardware.emulator", "Emulator.measure_training",
     "hardware.emulator.measure_training", {}),
    ("repro.hardware.emulator", "Emulator.measure_inference",
     "hardware.emulator.measure_inference", {}),
    ("repro.core.trial_batch", "evaluate_task_groups",
     "core.trial_batch.evaluate_task_groups", {"count": _count_wave}),
    ("repro.core.trial_batch", "evaluate_trial_batch",
     "core.trial_batch.evaluate_trial_batch", {"count": _count_group}),
    ("repro.nn.trainer", "train_model", "nn.trainer.train_model", {}),
    ("repro.nn.batched", "train_model_batch",
     "nn.batched.train_model_batch", {}),
    *[
        ("repro.nn.kernels", kernel, f"nn.kernels.{kernel}", {})
        for kernel in (
            "im2col_1d", "conv1d_input_grad", "im2col_2d",
            "conv2d_input_grad", "maxpool_forward", "maxpool1d_backward",
            "maxpool2d_forward", "maxpool2d_backward", "scratch_matmul",
        )
    ],
    ("repro.nn.recurrent", "ElmanRNN.forward", "nn.recurrent.forward", {}),
    ("repro.nn.recurrent", "ElmanRNN.backward", "nn.recurrent.backward", {}),
    ("repro.nn.optimizers", "SGD.step", "nn.optimizers.step", {}),
    ("repro.nn.optimizers", "Adam.step", "nn.optimizers.step", {}),
    *[
        ("repro.nn.losses", f"{loss}.{method}", "nn.losses", {})
        for loss in ("CrossEntropyLoss", "MSELoss", "DetectionLoss")
        for method in ("forward", "backward")
    ],
    ("repro.workloads.workload", "Workload.load", "datasets.load", {}),
    ("repro.datasets.base", "Dataset.subset", "datasets.subset", {}),
    ("repro.artifacts", "ArtifactStore.store_trial",
     "artifacts.store_trial", {}),
    ("repro.artifacts", "ArtifactStore.put", "artifacts.put",
     {"count": _bytes_of_arg("artifacts.put.bytes", 2)}),
    ("repro.artifacts", "ArtifactStore.load_trial", "artifacts.load_trial",
     {"count": _hit("artifacts.load_trial.hits")}),
    ("repro.artifacts", "trial_key", "artifacts.trial_key", {}),
    ("repro.storage.database", "TrialDatabase.transaction",
     "storage.database.transaction", {"context": True}),
    ("repro.storage.database", "TrialDatabase.record_trial",
     "storage.database.record_trial", {}),
    ("repro.storage.database", "TrialDatabase.execute",
     "storage.database.execute", {}),
    ("repro.service.sessions", "SessionStore.save_checkpoint",
     "service.sessions.save_checkpoint",
     {"count": _bytes_of_arg("service.sessions.save_checkpoint.bytes", 2)}),
    ("repro.service.queue", "JobQueue.enqueue", "service.queue.enqueue", {}),
    ("repro.service.queue", "JobQueue.lease", "service.queue.lease",
     {"count": _empty("service.queue.lease.empty")}),
    ("repro.service.queue", "JobQueue.complete",
     "service.queue.complete", {}),
    ("repro.service.queue", "JobQueue.results_for",
     "service.queue.results_for", {}),
    ("repro.service.queue", "JobQueue.reclaim_expired",
     "service.queue.reclaim_expired", {}),
    ("repro.service.worker", "TrialWorker.run_leased",
     "service.worker.run_leased", {}),
    ("repro.fleet.server", "FleetServer.handle_line",
     "fleet.server.handle_line", {"count": _count_line}),
    ("repro.fleet.client", "FleetClient.request", "fleet.client.request",
     {"wait": True}),
    ("repro.fleet.client", "FleetClient.close", "fleet.client.close",
     {"count": _count_close}),
    ("repro.fleet.host", "RemoteHost._prefetch", "fleet.host.prefetch", {}),
    ("repro.fleet.host", "RemoteHost._publish", "fleet.host.publish", {}),
    ("repro.fleet.host", "RemoteHost._execute_job",
     "fleet.host.execute_job", {}),
    ("repro.fleet.wire", "encode_frame", "fleet.wire.encode_frame",
     {"count": _bytes_of_result("fleet.server.bytes_out")}),
    ("repro.fleet.wire", "decode_frame", "fleet.wire.decode_frame",
     {"count": _count_op}),
]


class _SleepProxy:
    """Stands in for the ``time`` module inside one ``repro`` module so
    that module's poll sleeps become wait spans."""

    def __init__(self, tracer: Tracer, name: str):
        self.sleep = tracer.wrap(time.sleep, name, wait=True)

    def __getattr__(self, attribute: str) -> Any:
        return getattr(time, attribute)


def _context_wrapper(tracer: Tracer, method: Callable, name: str) -> Callable:
    @functools.wraps(method)
    @contextlib.contextmanager
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        with tracer.span(name):
            with method(*args, **kwargs) as value:
                yield value

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Swap every target for its recording wrapper; returns the undo."""
    undo: List[Callable[[], None]] = []

    def swap(owner: Any, attribute: str, value: Any) -> None:
        previous = owner.__dict__[attribute]
        setattr(owner, attribute, value)
        undo.append(lambda: setattr(owner, attribute, previous))

    for module_name, path, name, options in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, attribute)
            if options.get("context"):
                wrapped = _context_wrapper(tracer, original, name)
            else:
                wrapped = tracer.wrap(
                    original, name, wait=options.get("wait", False),
                    count=options.get("count"),
                )
            if attribute in owner.__dict__:
                swap(owner, attribute, wrapped)
            else:  # inherited: shadow it on this class only
                setattr(owner, attribute, wrapped)
                undo.append(functools.partial(delattr, owner, attribute))
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(original, name, count=options.get("count"))
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    swap(loaded, key, wrapped)
    coordinator = importlib.import_module("repro.service.coordinator")
    swap(coordinator, "time",
         _SleepProxy(tracer, "service.coordinator.poll"))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


# -- arithmetic --------------------------------------------------------------------
class Row(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    wait: bool


def summarize(spans: List[Span]) -> Dict[str, Row]:
    """Aggregate spans into one row per name (self time = duration minus
    same-thread children)."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    wait: Dict[str, bool] = {}
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        own[span.name] += duration - covered.get(span.id, 0.0)
        wait[span.name] = span.wait
    return {
        name: Row(calls[name], total[name], own[name], wait[name])
        for name in calls
    }


def coverage(rows: Dict[str, Row]) -> float:
    """Share of the root spans attributed to some layer row."""
    root = rows.get(ROOT)
    if root is None or root.total_s <= 0.0:
        return 0.0
    return 1.0 - root.self_s / root.total_s


#: Per-layer metrics, in BENCHMARK.json order: (name, unit, better).
_BUSY = [
    "search.next_trial", "search.report", "search.state_dict",
    "core.model_server.prepare", "core.model_server.next_wave",
    "core.model_server.make_task", "core.model_server.integrate",
    "core.model_server.finalize", "core.model_server.snapshot_run",
    "core.inference_server.tune",
    "hardware.emulator.measure_training",
    "hardware.emulator.measure_inference",
    "core.trial_batch.evaluate_task_groups",
    "nn.trainer.train_model", "nn.batched.train_model_batch",
    "nn.kernels.im2col_1d", "nn.kernels.conv1d_input_grad",
    "nn.kernels.im2col_2d", "nn.kernels.conv2d_input_grad",
    "nn.kernels.maxpool_forward", "nn.kernels.maxpool1d_backward",
    "nn.kernels.maxpool2d_forward", "nn.kernels.maxpool2d_backward",
    "nn.kernels.scratch_matmul",
    "nn.recurrent.forward", "nn.recurrent.backward", "nn.optimizers.step",
    "datasets.load", "datasets.subset",
    "artifacts.store_trial", "artifacts.trial_key", "artifacts.load_trial",
    "storage.database.transaction", "storage.database.record_trial",
    "storage.database.execute",
    "service.sessions.save_checkpoint",
    "service.queue.enqueue", "service.queue.lease",
    "service.queue.complete", "service.queue.results_for",
    "service.queue.reclaim_expired",
    "service.worker.run_leased",
    "fleet.server.handle_line",
    "fleet.host.prefetch", "fleet.host.publish", "fleet.host.execute_job",
    "fleet.wire.encode_frame", "fleet.wire.decode_frame",
]
_CALLS = [
    "core.inference_server.tune", "nn.trainer.train_model",
    "nn.batched.train_model_batch", "nn.optimizers.step",
    "artifacts.store_trial", "artifacts.load_trial",
    "storage.database.execute", "service.sessions.save_checkpoint",
    "service.queue.lease", "service.queue.results_for",
    "fleet.server.handle_line", "fleet.client.request",
]
PER_LAYER = (
    [(f"{name}.busy_s", "s", "lower") for name in _BUSY]
    + [("nn.losses.busy_s", "s", "lower")]
    + [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [
        ("nn.kernels.calls", "count", "lower"),
        ("nn.share", "ratio", "lower"),
        ("core.model_server.snapshot_run.bytes", "bytes", "lower"),
        ("core.inference_server.cache_hit_ratio", "ratio", "higher"),
        ("core.trial_batch.stacked_share", "ratio", "higher"),
        ("core.trial_batch.mean_k", "count", "higher"),
        ("datasets.cache_hit_ratio", "ratio", "higher"),
        ("artifacts.store_trial.bytes", "bytes", "lower"),
        ("artifacts.disk_bytes", "bytes", "lower"),
        ("artifacts.load_trial.hit_ratio", "ratio", "higher"),
        ("storage.database.transaction.commits", "count", "lower"),
        ("service.sessions.save_checkpoint.bytes", "bytes", "lower"),
        ("service.queue.lease.empty_share", "ratio", "lower"),
        ("service.queue.job.wait_s", "s", "lower"),
        ("service.queue.job.run_s", "s", "lower"),
        ("service.coordinator.poll.sleeps", "count", "lower"),
        ("service.coordinator.poll.slept_s", "s", "lower"),
        ("service.coordinator.wave.count", "count", "lower"),
        ("service.coordinator.wave.latency_s", "s", "lower"),
        ("service.coordinator.off_cpu_s", "s", "lower"),
        ("service.worker.idle_s", "s", "lower"),
        ("fleet.server.lease.calls", "count", "lower"),
        ("fleet.server.complete.calls", "count", "lower"),
        ("fleet.server.artifact_get.calls", "count", "lower"),
        ("fleet.server.artifact_put.calls", "count", "lower"),
        ("fleet.server.bytes_in", "bytes", "lower"),
        ("fleet.server.bytes_out", "bytes", "lower"),
        ("fleet.client.request.rtt_s", "s", "lower"),
        ("fleet.client.reconnects", "count", "lower"),
        ("fleet.registry.federation.hits", "count", "higher"),
        ("fleet.registry.federation.misses", "count", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("platform.overhead_ratio", "ratio", "lower"),
        ("host.speed_factor", "ratio", "lower"),
        ("host.probe_cv", "ratio", "lower"),
    ]
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    rows: Dict[str, Row], counts: Dict[str, float], sessions: int
) -> Dict[str, float]:
    """Every span-derived per-layer metric, as a mean per traced session
    (0 where the layer was never entered)."""
    empty = Row(0, 0.0, 0.0, False)
    sessions = max(1, sessions)
    out: Dict[str, float] = {}
    for name in _BUSY + ["nn.losses"]:
        out[f"{name}.busy_s"] = rows.get(name, empty).self_s / sessions
    for name in _CALLS:
        out[f"{name}.calls"] = rows.get(name, empty).calls / sessions
    kernels = [row for name, row in rows.items()
               if name.startswith("nn.kernels.")]
    out["nn.kernels.calls"] = sum(r.calls for r in kernels) / sessions
    root = rows.get(ROOT, empty)
    out["nn.share"] = _ratio(
        sum(r.self_s for n, r in rows.items() if n.startswith("nn.")),
        root.total_s,
    )
    for key in (
        "core.model_server.snapshot_run.bytes",
        "service.sessions.save_checkpoint.bytes",
        "fleet.server.bytes_in", "fleet.server.bytes_out",
    ):
        out[key] = counts.get(key, 0.0) / sessions
    out["artifacts.store_trial.bytes"] = (
        counts.get("artifacts.put.bytes", 0.0) / sessions
    )
    cached = rows.get("core.inference_server.cached", empty).calls
    tuned = rows.get("core.inference_server.tune", empty).calls
    # ``tune`` re-checks the cache itself: one nested miss per call.
    out["core.inference_server.cache_hit_ratio"] = _ratio(
        counts.get("core.inference_server.cached.hits", 0.0),
        cached - tuned,
    )
    out["core.trial_batch.stacked_share"] = _ratio(
        counts.get("trial_batch.stacked_trials", 0.0),
        counts.get("trial_batch.trials", 0.0),
    )
    out["core.trial_batch.mean_k"] = _ratio(
        counts.get("trial_batch.stacked_trials", 0.0),
        counts.get("trial_batch.groups", 0.0),
    )
    out["artifacts.load_trial.hit_ratio"] = _ratio(
        counts.get("artifacts.load_trial.hits", 0.0),
        rows.get("artifacts.load_trial", empty).calls,
    )
    out["storage.database.transaction.commits"] = (
        rows.get("storage.database.transaction", empty).calls / sessions
    )
    out["service.queue.lease.empty_share"] = _ratio(
        counts.get("service.queue.lease.empty", 0.0),
        rows.get("service.queue.lease", empty).calls,
    )
    poll = rows.get("service.coordinator.poll", empty)
    out["service.coordinator.poll.sleeps"] = poll.calls / sessions
    out["service.coordinator.poll.slept_s"] = poll.total_s / sessions
    for op in ("lease", "complete", "artifact_get", "artifact_put"):
        out[f"fleet.server.{op}.calls"] = (
            counts.get(f"fleet.server.op.{op}", 0.0) / sessions
        )
    request = rows.get("fleet.client.request", empty)
    out["fleet.client.request.rtt_s"] = _ratio(request.total_s, request.calls)
    out["fleet.client.reconnects"] = (
        counts.get("fleet.client.reconnects", 0.0) / sessions
    )
    out["trace.coverage"] = coverage(rows)
    return out
