"""Discrete-event trace replay: load in, per-request latency/SLO stats out.

The engine drives a request :class:`~repro.traffic.traces.Trace` through
the same greedy dynamic-batching semantics as
:func:`repro.batching.queueing.simulate_multistream_scenario`, extended
with everything deployment scoring needs:

* **multi-model service** — each model has its own latency curve; a batch
  only aggregates consecutive same-model requests (no cross-model
  batching on one device, matching real serving runtimes);
* **per-request accounting** — response latencies (hence p50/p95/p99),
  queue depth at every dispatch, busy/idle energy;
* **graceful overload degradation** — when the backlog diverges
  (head-of-queue wait beyond :data:`DIVERGENCE_WAIT_FACTOR` service
  times, or queue depth beyond ``max_queue``) the engine sheds the
  remaining requests into the miss count and reports, instead of
  simulating an unbounded queue or crashing;
* **fault injection** — the ``traffic.request_storm`` site multiplies
  arrivals inside a mid-trace window, so chaos tests can assert the
  degradation path stays graceful.

Everything runs in virtual time (see :mod:`repro.sim.clock`): nothing
sleeps, and a replay of millions of requests is a tight Python/numpy
loop — about four numpy calls per dispatched batch, a count
``tests/test_traffic_replay.py`` pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults
from ..errors import ConfigurationError
from .traces import Trace

LatencyFn = Callable[[int], float]

#: The backlog is declared divergent when the head-of-queue request has
#: waited longer than this many service times of the *largest* batch —
#: by then the queue can only have grown monotonically for many calls.
DIVERGENCE_WAIT_FACTOR = 50.0

#: Default queue-depth ceiling before the engine starts shedding.
DEFAULT_MAX_QUEUE = 100_000

#: Default storm burst multiplier when the fault rule carries no param.
DEFAULT_STORM_MULT = 5.0


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives a deployment is scored against."""

    #: Target for the 99th-percentile response latency, seconds.
    p99_target_s: Optional[float] = None
    #: Per-request completion deadline, seconds after arrival.
    deadline_s: Optional[float] = None
    #: Energy budget per served request, joules.
    energy_budget_j: Optional[float] = None

    def canonical(self) -> str:
        parts = []
        if self.p99_target_s is not None:
            parts.append(f"p99={self.p99_target_s:g}")
        if self.deadline_s is not None:
            parts.append(f"deadline={self.deadline_s:g}")
        if self.energy_budget_j is not None:
            parts.append(f"energy={self.energy_budget_j:g}")
        return ",".join(parts) or "none"

    def violations(self, stats: "ReplayStats") -> Dict[str, float]:
        """SLO violation counters for one replay (status reporting)."""
        out: Dict[str, float] = {}
        if self.p99_target_s is not None:
            out["p99"] = 1.0 if stats.p99_latency_s > self.p99_target_s \
                else 0.0
        if self.deadline_s is not None:
            out["deadline"] = float(stats.deadline_misses)
        if self.energy_budget_j is not None:
            out["energy"] = (
                1.0 if stats.energy_per_request_j > self.energy_budget_j
                else 0.0
            )
        return out


@dataclass
class ReplayStats:
    """Outcome of replaying one trace against one deployment config."""

    trace: str
    requests: int
    completed: int
    #: Requests shed by the overload guard (they count as misses).
    shed: int
    #: The backlog diverged and the replay short-circuited.
    diverged: bool
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    deadline_misses: int
    deadline_miss_rate: float
    throughput_rps: float
    energy_per_request_j: float
    energy_total_j: float
    busy_s: float
    horizon_s: float
    utilisation: float
    mean_queue_depth: float
    max_queue_depth: int
    batches: int
    mean_batch: float
    #: Extra requests injected by the ``traffic.request_storm`` fault.
    storm_injected: int = 0
    per_model: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "diverged": self.diverged,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "max_latency_s": self.max_latency_s,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "throughput_rps": self.throughput_rps,
            "energy_per_request_j": self.energy_per_request_j,
            "energy_total_j": self.energy_total_j,
            "busy_s": self.busy_s,
            "horizon_s": self.horizon_s,
            "utilisation": self.utilisation,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "storm_injected": self.storm_injected,
            "per_model": dict(self.per_model),
        }


def _percentile(ordered: np.ndarray, q: float) -> float:
    """Nearest-rank percentile over a pre-sorted array (matches the
    estimator used across the repo's telemetry)."""
    if ordered.size == 0:
        return 0.0
    index = min(int(q * (ordered.size - 1)), ordered.size - 1)
    return float(ordered[index])


def _storm(trace: Trace) -> Tuple[Trace, int]:
    """Apply the ``traffic.request_storm`` fault, if planned.

    Every request inside the middle-third window is replicated
    ``mult - 1`` extra times at its own timestamp — a deterministic burst
    that multiplies instantaneous load without perturbing the RNG streams
    of the generators (the schedule stays bit-identical otherwise).
    """
    plan = faults.get_plan()
    if plan is None or not plan.should(
        "traffic.request_storm", key=trace.name
    ):
        return trace, 0
    rule = plan.rules["traffic.request_storm"]
    mult = int(rule.param) if rule.param is not None \
        else int(DEFAULT_STORM_MULT)
    mult = max(2, mult)
    duration = trace.duration_s
    lo, hi = duration / 3.0, 2.0 * duration / 3.0
    in_window = (trace.arrivals_s >= lo) & (trace.arrivals_s < hi)
    extra = int(np.count_nonzero(in_window)) * (mult - 1)
    if extra == 0:
        return trace, 0
    arrivals = np.concatenate(
        [trace.arrivals_s]
        + [trace.arrivals_s[in_window]] * (mult - 1)
    )
    model_ids = np.concatenate(
        [trace.model_ids] + [trace.model_ids[in_window]] * (mult - 1)
    )
    order = np.argsort(arrivals, kind="stable")
    stormed = Trace(
        name=trace.name,
        arrivals_s=arrivals[order],
        model_ids=model_ids[order],
        models=trace.models,
        meta=dict(trace.meta),
    )
    return stormed, extra


def _latency_tables(
    latency_fn: Union[LatencyFn, Sequence[LatencyFn]],
    num_models: int,
    max_batch: int,
) -> List[np.ndarray]:
    """Precompute per-model latency(batch) tables for the hot loop."""
    if callable(latency_fn):
        fns: Sequence[LatencyFn] = [latency_fn] * num_models
    else:
        fns = list(latency_fn)
        if len(fns) != num_models:
            raise ConfigurationError(
                f"trace has {num_models} models but {len(fns)} latency "
                "functions were provided"
            )
    tables = []
    for fn in fns:
        table = np.empty(max_batch + 1, dtype=np.float64)
        table[0] = 0.0
        for batch in range(1, max_batch + 1):
            value = float(fn(batch))
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(
                    f"latency_fn({batch}) must be a positive finite "
                    f"number, got {value}"
                )
            table[batch] = value
        tables.append(table)
    return tables


def replay_trace(
    trace: Trace,
    latency_fn: Union[LatencyFn, Sequence[LatencyFn]],
    max_batch: int = 1,
    slo: Optional[SLOSpec] = None,
    power_w: float = 0.0,
    idle_power_w: float = 0.0,
    max_queue: int = DEFAULT_MAX_QUEUE,
) -> ReplayStats:
    """Replay ``trace`` through one deployment configuration.

    ``latency_fn`` maps a batch size to the device's batched-inference
    call latency (one function, or one per trace model).  ``max_batch``
    is the deployment's configured inference batch size — the greedy
    batcher aggregates up to this many queued same-model requests per
    call.  ``power_w``/``idle_power_w`` price busy and idle virtual time
    so energy-per-request reflects *deployment* energy, idle draw
    included, not just the per-call marginal cost.
    """
    if max_batch < 1:
        raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
    if max_queue < 1:
        raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
    slo = slo or SLOSpec()
    trace, storm_injected = _storm(trace)
    arrivals = trace.arrivals_s
    model_ids = trace.model_ids
    total = arrivals.size
    if total == 0:
        raise ConfigurationError("cannot replay an empty trace")
    tables = _latency_tables(latency_fn, len(trace.models), max_batch)
    max_service = max(float(table[max_batch]) for table in tables)
    divergence_wait_s = DIVERGENCE_WAIT_FACTOR * max_service

    responses = np.empty(total, dtype=np.float64)
    engine_free = 0.0
    busy = 0.0
    energy_busy = 0.0
    batches = 0
    depth_sum = 0
    max_depth = 0
    diverged = False
    index = 0
    while index < total:
        arrival = arrivals[index]
        start = arrival if arrival > engine_free else engine_free
        wait = start - arrival
        # Queue depth at dispatch: everything that has arrived but not
        # been served.  searchsorted keeps the hot loop O(log n) here.
        depth = int(
            np.searchsorted(arrivals, start, side="right")
        ) - index
        if wait > divergence_wait_s or depth > max_queue:
            # Unbounded backlog: shed the tail instead of simulating a
            # queue that can only grow.  Deterministic — purely a
            # function of the same virtual timeline every replay sees.
            diverged = True
            break
        if depth > max_depth:
            max_depth = depth
        depth_sum += depth
        model = model_ids[index]
        take = 1
        limit = min(max_batch, total - index)
        while (
            take < limit
            and arrivals[index + take] <= start
            and model_ids[index + take] == model
        ):
            take += 1
        service = tables[model][take]
        finish = start + service
        responses[index:index + take] = finish - arrivals[index:index + take]
        busy += service
        energy_busy += service * power_w
        batches += 1
        engine_free = finish
        index += take

    completed = index
    shed = total - completed
    horizon = max(engine_free, float(arrivals[-1]))
    latencies = responses[:completed]
    ordered = np.sort(latencies)
    deadline_misses = shed
    if slo.deadline_s is not None:
        deadline_misses += int(np.count_nonzero(latencies > slo.deadline_s))
    energy_total = energy_busy + idle_power_w * max(horizon - busy, 0.0)
    per_model: Dict[str, int] = {}
    if len(trace.models) > 1:
        counts = np.bincount(model_ids, minlength=len(trace.models))
        per_model = {
            name: int(count)
            for name, count in zip(trace.models, counts)
        }
    return ReplayStats(
        trace=trace.name,
        requests=total,
        completed=completed,
        shed=shed,
        diverged=diverged,
        mean_latency_s=float(ordered.mean()) if completed else float("inf"),
        p50_latency_s=_percentile(ordered, 0.50),
        p95_latency_s=_percentile(ordered, 0.95),
        p99_latency_s=_percentile(ordered, 0.99),
        max_latency_s=float(ordered[-1]) if completed else 0.0,
        deadline_misses=deadline_misses,
        deadline_miss_rate=deadline_misses / total,
        throughput_rps=completed / horizon if horizon > 0 else 0.0,
        energy_per_request_j=(
            energy_total / completed if completed else float("inf")
        ),
        energy_total_j=energy_total,
        busy_s=busy,
        horizon_s=horizon,
        utilisation=min(busy / horizon, 1.0) if horizon > 0 else 0.0,
        mean_queue_depth=depth_sum / batches if batches else 0.0,
        max_queue_depth=max_depth,
        batches=batches,
        mean_batch=completed / batches if batches else 0.0,
        storm_injected=storm_injected,
        per_model=per_model,
    )


def replay_fleet(
    trace: Trace,
    latency_fn_for: Callable[[str], LatencyFn],
    max_batch: int = 1,
    slo: Optional[SLOSpec] = None,
    power_for: Optional[Callable[[str], Tuple[float, float]]] = None,
    max_queue: int = DEFAULT_MAX_QUEUE,
) -> Dict[str, ReplayStats]:
    """Replay a fleet trace: each device serves its own sub-stream.

    ``latency_fn_for(device)`` builds the device's latency curve;
    ``power_for(device)`` optionally returns ``(busy_w, idle_w)``.
    Returns per-device stats keyed by device name.
    """
    if trace.device_ids is None:
        raise ConfigurationError(
            "replay_fleet needs a fleet trace (per-request devices); "
            "use replay_trace for single-device traces"
        )
    results: Dict[str, ReplayStats] = {}
    for device, sub_trace in trace.split_by_device().items():
        if len(sub_trace) == 0:
            continue
        busy_w, idle_w = (0.0, 0.0)
        if power_for is not None:
            busy_w, idle_w = power_for(device)
        results[device] = replay_trace(
            sub_trace,
            latency_fn_for(device),
            max_batch=max_batch,
            slo=slo,
            power_w=busy_w,
            idle_power_w=idle_w,
            max_queue=max_queue,
        )
    return results


def merge_stats(results: Dict[str, ReplayStats]) -> Dict[str, float]:
    """Fleet-level aggregate of per-device replay stats (status views)."""
    if not results:
        return {}
    total = sum(stats.requests for stats in results.values())
    completed = sum(stats.completed for stats in results.values())
    misses = sum(stats.deadline_misses for stats in results.values())
    energy = sum(stats.energy_total_j for stats in results.values())
    return {
        "requests": float(total),
        "completed": float(completed),
        "deadline_miss_rate": misses / total if total else 0.0,
        "worst_p99_latency_s": max(
            stats.p99_latency_s for stats in results.values()
        ),
        "energy_per_request_j": energy / completed if completed else 0.0,
        "devices": float(len(results)),
    }
