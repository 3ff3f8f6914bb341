"""The replay engine, SLO objectives, and the load-aware tuning path.

Ends with the PR's acceptance experiment in miniature: tuning under a
replayed trace (diurnal and flash) picks a deployment that strictly beats
the steady-state pick when both are scored under load, bit-identically
across two independent runs.
"""

import numpy as np
import pytest

from repro.core import InferenceTuningServer
from repro.errors import ConfigurationError
from repro.hardware import Emulator, get_device
from repro.objectives import (
    TRAFFIC_METRICS,
    InferenceObjective,
    TrafficSLOObjective,
)
from repro.storage import TrialDatabase
from repro.traffic import (
    ReplayStats,
    SLOSpec,
    build_trace,
    merge_stats,
    record_replay,
    replay_fleet,
    replay_trace,
    traffic_stats,
)
from repro.workloads import get_workload
from tests.test_nn_step_cost import count_calls

LIGHT = build_trace("poisson:rate=20,duration=20,seed=1")


def flat_latency(value):
    return lambda batch: value


class TestReplayEngine:
    def test_light_load_every_request_completes(self):
        stats = replay_trace(LIGHT, flat_latency(0.001), max_batch=4)
        assert stats.completed == stats.requests == len(LIGHT)
        assert stats.shed == 0 and not stats.diverged
        assert stats.deadline_misses == 0
        # Under light load nothing queues: latency ~= the service time.
        assert stats.p99_latency_s < 0.01
        assert stats.mean_queue_depth < 2.0

    def test_replay_is_deterministic(self):
        first = replay_trace(LIGHT, flat_latency(0.002), max_batch=4)
        second = replay_trace(LIGHT, flat_latency(0.002), max_batch=4)
        assert first.to_dict() == second.to_dict()

    def test_overload_sheds_gracefully(self):
        # 20 req/s against 1 s/call and no batching: hopeless backlog.
        stats = replay_trace(LIGHT, flat_latency(1.0), max_batch=1)
        assert stats.diverged
        assert stats.shed > 0
        assert stats.completed + stats.shed == stats.requests
        # Shed requests count as deadline misses even with no SLO set.
        assert stats.deadline_misses >= stats.shed
        assert stats.deadline_miss_rate > 0

    def test_batching_rescues_overload(self):
        # Same per-call latency, but batches of 64 amortise it away.
        latency = lambda batch: 0.08 + 0.001 * batch
        small = replay_trace(LIGHT, latency, max_batch=1)
        large = replay_trace(LIGHT, latency, max_batch=64)
        assert small.diverged and not large.diverged
        assert large.p99_latency_s < 1.0

    def test_deadline_misses_counted_against_slo(self):
        slo = SLOSpec(deadline_s=0.0005)
        stats = replay_trace(LIGHT, flat_latency(0.001), max_batch=1, slo=slo)
        assert stats.deadline_misses == stats.requests  # all exceed 0.5ms
        assert stats.deadline_miss_rate == 1.0

    def test_energy_includes_idle_draw(self):
        busy_only = replay_trace(
            LIGHT, flat_latency(0.001), max_batch=4, power_w=2.0
        )
        with_idle = replay_trace(
            LIGHT, flat_latency(0.001), max_batch=4,
            power_w=2.0, idle_power_w=1.0,
        )
        assert with_idle.energy_total_j > busy_only.energy_total_j
        expected_idle = with_idle.horizon_s - with_idle.busy_s
        assert with_idle.energy_total_j == pytest.approx(
            busy_only.energy_total_j + expected_idle, rel=1e-9
        )

    def test_no_cross_model_batching(self):
        trace = build_trace("multi:rate=100,models=2,duration=10,seed=4")
        stats = replay_trace(trace, flat_latency(0.001), max_batch=32)
        assert set(stats.per_model) == {"model-0", "model-1"}
        assert sum(stats.per_model.values()) == stats.requests
        # Two interleaved streams cap the achievable mean batch well
        # below the configured 32 (a batch never spans models).
        assert 1.0 <= stats.mean_batch < 32.0

    def test_latency_fn_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            replay_trace(LIGHT, flat_latency(0.0), max_batch=2)

    def test_per_model_latency_functions(self):
        trace = build_trace("multi:rate=50,models=2,duration=10,seed=4")
        stats = replay_trace(
            trace, [flat_latency(0.001), flat_latency(0.002)], max_batch=4
        )
        assert stats.completed == stats.requests
        with pytest.raises(ConfigurationError, match="latency"):
            replay_trace(trace, [flat_latency(0.001)], max_batch=4)

    def test_replay_makes_a_pinned_number_of_calls(self):
        """The replay loop stays a tight numpy loop: counted (as in
        ``tests/test_nn_step_cost.py``), not timed, 9 calls into
        ``repro`` and 8,025 into numpy (Python 3.11, numpy 2.4) for 9,939
        requests in 2,003 batches — about four per batch, nearly all of
        them the queue-depth ``searchsorted``.  Lower the pin when replay
        gets cheaper; never raise it to make a change pass."""
        trace = build_trace("poisson:rate=5000,duration=2,seed=1")
        latency = lambda batch: 0.0005 + 0.0001 * batch
        run = lambda: replay_trace(trace, latency, max_batch=64)
        run()
        counts = count_calls(run)
        assert counts == count_calls(run)
        assert counts["repro"] + counts["numpy"] <= 8034, counts


class TestFleetReplay:
    def test_per_device_stats_and_merge(self):
        trace = build_trace(
            "fleet:rate=60,devices=armv7+i7nuc,duration=20,seed=2"
        )
        results = replay_fleet(
            trace,
            latency_fn_for=lambda device: flat_latency(
                0.002 if device == "i7nuc" else 0.004
            ),
            max_batch=8,
        )
        assert set(results) == {"armv7", "i7nuc"}
        merged = merge_stats(results)
        assert merged["requests"] == float(len(trace))
        assert merged["devices"] == 2.0
        assert merged["worst_p99_latency_s"] >= max(
            stats.p99_latency_s for stats in results.values()
        )

    def test_single_device_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="fleet"):
            replay_fleet(LIGHT, latency_fn_for=lambda d: flat_latency(0.001))


class TestSLOObjective:
    def test_metric_validation(self):
        with pytest.raises(ConfigurationError, match="metric"):
            TrafficSLOObjective("p42")

    def test_name_embeds_scenario_and_slo(self):
        objective = TrafficSLOObjective(
            "deadline",
            scenario="flash:duration=30,rate=30,seed=3",
            slo=SLOSpec(deadline_s=0.5),
        )
        assert "flash:duration=30,rate=30,seed=3" in objective.name
        assert "deadline=0.5" in objective.name
        # Distinct scenarios must never share a historical-cache key.
        other = TrafficSLOObjective(
            "deadline", scenario="poisson:duration=30,rate=30,seed=3",
            slo=SLOSpec(deadline_s=0.5),
        )
        assert objective.name != other.name

    @pytest.mark.parametrize("metric", TRAFFIC_METRICS)
    def test_diverged_always_loses_to_stable(self, metric):
        objective = TrafficSLOObjective(metric)
        stable = replay_trace(LIGHT, flat_latency(0.01), max_batch=16)
        diverged = replay_trace(LIGHT, flat_latency(1.0), max_batch=1)
        assert diverged.diverged and not stable.diverged
        assert objective.score_stats(diverged) > objective.score_stats(stable)

    def test_deadline_metric_ranks_by_miss_rate(self):
        objective = TrafficSLOObjective("deadline")

        def stats_with(miss_rate, p99):
            return ReplayStats(
                trace="t", requests=100, completed=100, shed=0,
                diverged=False, mean_latency_s=p99, p50_latency_s=p99,
                p95_latency_s=p99, p99_latency_s=p99, max_latency_s=p99,
                deadline_misses=int(miss_rate * 100),
                deadline_miss_rate=miss_rate, throughput_rps=10.0,
                energy_per_request_j=1.0, energy_total_j=100.0,
                busy_s=1.0, horizon_s=10.0, utilisation=0.1,
                mean_queue_depth=0.0, max_queue_depth=1, batches=100,
                mean_batch=1.0,
            )

        # Fewer misses wins even with a much worse p99 ...
        assert objective.score_stats(
            stats_with(0.01, p99=100.0)
        ) < objective.score_stats(stats_with(0.20, p99=0.001))
        # ... and p99 is the tie-breaker at equal miss rates.
        assert objective.score_stats(
            stats_with(0.05, p99=0.1)
        ) < objective.score_stats(stats_with(0.05, p99=0.2))


class TestPersistentCounters:
    def test_record_replay_accumulates(self):
        database = TrialDatabase()
        slo = SLOSpec(deadline_s=0.0005)
        stats = replay_trace(LIGHT, flat_latency(0.001), max_batch=1, slo=slo)
        record_replay(database, stats, slo)
        record_replay(database, stats, slo)
        counters = traffic_stats(database)
        assert counters["replays"] == 2.0
        assert counters["requests_replayed"] == 2.0 * stats.requests
        assert counters["slo_violations.deadline"] == pytest.approx(
            2.0 * stats.deadline_misses
        )
        # Nothing shed, nothing diverged, no storm: keys stay absent.
        assert "requests_shed" not in counters
        assert "replays_diverged" not in counters


ARCH_FLOPS = 200.0
ARCH_PARAMS = 12_000


def tune_under(traffic, metric="deadline", slo=None, seed=3):
    server = InferenceTuningServer(
        device="armv7",
        objective=TrafficSLOObjective(
            metric,
            scenario=traffic if isinstance(traffic, str) else "",
            slo=slo,
        ),
        emulator=Emulator(),
        database=TrialDatabase(),
        seed=seed,
        traffic=traffic,
        slo=slo,
    )
    space = get_workload("IC").inference_space("armv7")
    return server, server.tune("arch", ARCH_FLOPS, ARCH_PARAMS, space)


class TestLoadAwareTuning:
    def test_under_load_records_replays(self):
        slo = SLOSpec(deadline_s=0.5)
        server, (recommendation, records) = tune_under(
            "flash:rate=30,mult=8,duration=30,seed=3", slo=slo
        )
        assert server.under_load
        assert records and all(r.replay is not None for r in records)
        assert not recommendation.cache_hit
        # Derived measurements are per-request: batch_size=1 so the p99
        # *is* the per-sample latency the combined objective consumes.
        assert recommendation.measurement.batch_size == 1
        counters = traffic_stats(server.database)
        assert counters["replays"] == len(records)

    def test_cache_hit_reproduces_fresh_measurement(self):
        slo = SLOSpec(deadline_s=0.5)
        server, (fresh, _) = tune_under(
            "flash:rate=30,mult=8,duration=30,seed=3", slo=slo
        )
        cached = server.cached("arch")
        assert cached is not None and cached.cache_hit
        assert cached.configuration == fresh.configuration
        assert (
            cached.measurement.latency_per_sample_s
            == fresh.measurement.latency_per_sample_s
        )
        assert (
            cached.measurement.energy_per_sample_j
            == fresh.measurement.energy_per_sample_j
        )

    def test_scenarios_do_not_share_cache_entries(self):
        database = TrialDatabase()
        space = get_workload("IC").inference_space("armv7")
        for scenario in (
            "flash:rate=30,mult=8,duration=30,seed=3",
            "poisson:rate=30,duration=30,seed=3",
        ):
            server = InferenceTuningServer(
                device="armv7",
                objective=TrafficSLOObjective("p99", scenario=scenario),
                emulator=Emulator(),
                database=database,
                seed=3,
                traffic=scenario,
            )
            recommendation, records = server.tune(
                "arch", ARCH_FLOPS, ARCH_PARAMS, space
            )
            assert not recommendation.cache_hit  # second scenario no hit
            assert records

    @pytest.mark.parametrize(
        "scenario",
        [
            "diurnal:rate=35,peak=6,duration=40,seed=3",
            "flash:rate=30,mult=10,duration=40,seed=3",
        ],
    )
    def test_slo_tuned_beats_steady_tuned_under_load(self, scenario):
        """The acceptance experiment in miniature: score both tuning
        styles' picks under the *same* replayed load; the load-aware pick
        must win strictly, and bit-identically across two runs."""
        slo = SLOSpec(deadline_s=0.5)
        objective = TrafficSLOObjective("deadline", scenario=scenario,
                                        slo=slo)
        space = get_workload("IC").inference_space("armv7")
        emulator = Emulator()
        spec = get_device("armv7")
        trace = build_trace(scenario)

        def deployment_score(configuration):
            cores = int(configuration.get("cores", 1))
            frequency = configuration.get("frequency_ghz")

            def latency_fn(size):
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
            return objective.score_stats(stats)

        def run_once():
            steady = InferenceTuningServer(
                device="armv7", objective=InferenceObjective("energy"),
                emulator=emulator, database=TrialDatabase(), seed=3,
            ).tune("arch", ARCH_FLOPS, ARCH_PARAMS, space)[0]
            loaded = InferenceTuningServer(
                device="armv7", objective=objective, emulator=emulator,
                database=TrialDatabase(), seed=3, traffic=scenario, slo=slo,
            ).tune("arch", ARCH_FLOPS, ARCH_PARAMS, space)[0]
            return (
                steady.configuration,
                loaded.configuration,
                deployment_score(steady.configuration),
                deployment_score(loaded.configuration),
            )

        first = run_once()
        second = run_once()
        assert first == second  # bit-identical across two runs
        steady_config, loaded_config, steady_score, loaded_score = first
        assert loaded_config != steady_config
        assert loaded_score < steady_score  # strictly better under load
