"""Serving-load experiment: tuning under replayed traffic vs steady state.

The claim behind :mod:`repro.traffic`: a deployment configuration picked
by the steady-state inference objective (one batched call in isolation)
is not the configuration that best survives *load* — queueing turns a
latency-optimal small batch into an unbounded backlog during a diurnal
peak or a flash crowd.  This experiment tunes the same architecture both
ways on the same device and seed, then replays the same trace through
both winners: the load-tuned configuration must meet the SLO strictly
better on every family.
"""

from __future__ import annotations

from ..core import InferenceTuningServer
from ..hardware import Emulator, get_device
from ..objectives import InferenceObjective, TrafficSLOObjective
from ..storage import TrialDatabase
from ..traffic import SLOSpec, build_trace, replay_trace
from ..workloads import get_workload
from .runner import ExperimentContext, ExperimentResult

#: The served architecture: measured FLOPs/parameters of the scaled-down
#: numpy models (the emulator maps these onto realistic magnitudes).
ARCH_FLOPS = 200.0
ARCH_PARAMS = 12_000

#: Scenarios replayed per trace family; long enough that peaks dominate
#: the percentiles.
SCENARIOS = {
    "diurnal": "diurnal:rate=35,peak=6,duration={duration},seed={seed}",
    "flash": "flash:rate=30,mult=10,duration={duration},seed={seed}",
}


def traffic_slo_comparison(ctx: ExperimentContext) -> ExperimentResult:
    """Load-tuned vs steady-state-tuned deployments under replayed load."""
    result = ExperimentResult(
        experiment_id="traffic_slo",
        title="SLO-aware tuning under serving load vs steady state",
        columns=["family", "tuning", "batch", "cores", "p99_ms",
                 "miss_pct", "j_per_req", "slo_score"],
    )
    slo = SLOSpec(deadline_s=0.5)
    duration = 40
    emulator = Emulator()
    spec = get_device(ctx.device)
    space = get_workload("IC").inference_space(ctx.device)

    steady_pick = InferenceTuningServer(
        device=ctx.device,
        objective=InferenceObjective("energy"),
        emulator=emulator,
        database=TrialDatabase(),
        seed=ctx.seed,
    ).tune("traffic-arch", ARCH_FLOPS, ARCH_PARAMS, space)[0]

    for family, template in SCENARIOS.items():
        scenario = template.format(duration=duration, seed=ctx.seed)
        objective = TrafficSLOObjective(
            "deadline", scenario=scenario, slo=slo
        )
        load_pick = InferenceTuningServer(
            device=ctx.device,
            objective=objective,
            emulator=emulator,
            database=TrialDatabase(),
            seed=ctx.seed,
            traffic=scenario,
            slo=slo,
        ).tune("traffic-arch", ARCH_FLOPS, ARCH_PARAMS, space)[0]

        trace = build_trace(scenario)
        for tuning, pick in (("steady", steady_pick), ("load", load_pick)):
            configuration = pick.configuration
            cores = int(configuration.get("cores", 1))
            frequency = configuration.get("frequency_ghz")

            def latency_fn(size: int) -> float:
                return emulator.measure_inference(
                    forward_flops_per_sample=ARCH_FLOPS,
                    parameter_count=ARCH_PARAMS,
                    batch_size=size,
                    device=spec,
                    cores=cores,
                    frequency_ghz=frequency,
                ).batch_latency_s

            stats = replay_trace(
                trace,
                latency_fn,
                max_batch=int(configuration["inference_batch_size"]),
                slo=slo,
                idle_power_w=spec.idle_power_w,
            )
            result.add_row(
                family=family,
                tuning=tuning,
                batch=int(configuration["inference_batch_size"]),
                cores=cores,
                p99_ms=stats.p99_latency_s * 1000.0,
                miss_pct=stats.deadline_miss_rate * 100.0,
                j_per_req=stats.energy_per_request_j,
                slo_score=objective.score_stats(stats),
            )
    result.note(
        f"deadline SLO {slo.deadline_s}s; both tunings share device "
        f"{ctx.device}, seed {ctx.seed} and the steady-state pick"
    )
    return result
