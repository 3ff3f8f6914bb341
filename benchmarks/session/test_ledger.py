"""Self-tests of the session benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/session/test_ledger.py -q

Arithmetic of the span ledger and of the host correction, the contract
between ``BENCHMARK.json`` and the harness, and a 3 s smoke of every
workload's set-up / sessions / tear-down through the real command line.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import host  # noqa: E402
import ledger  # noqa: E402
from ledger import Span  # noqa: E402


# -- span ledger ---------------------------------------------------------------
def test_self_time_is_duration_minus_same_thread_children():
    spans = [
        Span(1, ledger.ROOT, 0.0, 10.0, None, "s", 1, False),
        Span(2, "a", 1.0, 5.0, 1, "s", 1, False),
        Span(3, "b", 2.0, 3.0, 2, "s", 1, False),
        Span(4, "a", 6.0, 9.0, 1, "s", 1, False),
        # A helper thread's span: same session, no parent on its stack,
        # overlapping the root in time without shrinking it.
        Span(5, "b", 0.0, 8.0, None, "s", 2, False),
    ]
    rows = ledger.summarize(spans)
    assert rows["a"].calls == 2
    assert rows["a"].total_s == pytest.approx(7.0)
    assert rows["a"].self_s == pytest.approx(6.0)
    assert rows["b"].self_s == pytest.approx(9.0)
    assert rows[ledger.ROOT].self_s == pytest.approx(3.0)
    assert ledger.coverage(rows) == pytest.approx(0.7)


def test_rows_of_the_session_thread_sum_to_the_root():
    tracer = ledger.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = tracer.wrap(leaf, "leaf")

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap(middle, "middle")
    leaf()  # disabled: not recorded
    with tracer.root("s1"):
        middle()
        with tracer.span("nap", wait=True):
            time.sleep(0.001)
    assert {span.session for span in tracer.spans} == {"s1"}
    rows = ledger.summarize(tracer.spans)
    assert rows["leaf"].calls == 2 and rows["middle"].calls == 1
    assert rows["nap"].wait
    assert sum(row.self_s for row in rows.values()) == pytest.approx(
        rows[ledger.ROOT].total_s, rel=1e-9
    )
    assert 0.5 < ledger.coverage(rows) < 1.0


def test_install_swaps_and_restores_public_functions():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core import model_server
    from repro.nn import trainer
    from repro.search.bohb import BOHBScheduler

    before = (model_server.train_model, trainer.train_model,
              model_server.ModelTuningServer.integrate)
    tracer = ledger.Tracer()
    uninstall = ledger.install(tracer)
    try:
        assert model_server.train_model is trainer.train_model
        assert model_server.train_model is not before[0]
        assert "next_trial" in vars(BOHBScheduler)
    finally:
        uninstall()
    assert (model_server.train_model, trainer.train_model,
            model_server.ModelTuningServer.integrate) == before
    assert "next_trial" not in vars(BOHBScheduler)


def test_layer_metrics_name_every_per_layer_metric():
    computed = set(ledger.layer_metrics({}, {}, 1))
    outside = {
        "datasets.cache_hit_ratio", "artifacts.disk_bytes",
        "service.queue.job.wait_s", "service.queue.job.run_s",
        "service.coordinator.wave.count",
        "service.coordinator.wave.latency_s",
        "service.coordinator.off_cpu_s", "service.worker.idle_s",
        "fleet.registry.federation.hits",
        "fleet.registry.federation.misses",
        "trace.overhead_ratio", "platform.overhead_ratio",
        "host.speed_factor", "host.probe_cv",
    }
    names = [name for name, _, _ in ledger.PER_LAYER]
    assert len(names) == len(set(names))
    assert computed | outside == set(names)


# -- host correction -----------------------------------------------------------------
def test_only_the_busy_share_is_scaled():
    # 1 s on the CPU, 1 s asleep, host 2x slower than the reference.
    assert host.correct(2.0, 1.0, 0.0, 2.0) == pytest.approx(1.5)
    # All sleep: nothing to correct.
    assert host.correct(2.0, 0.0, 0.0, 2.0) == pytest.approx(2.0)
    # Two workers busy throughout on two CPUs: the whole interval scales.
    assert host.correct(2.0, 4.0, 0.0, 2.0, parallel=2) == pytest.approx(1.0)
    # Two processes taking turns, 1 s each: half the interval is sleep.
    assert host.correct(2.0, 2.0, 0.0, 2.0, parallel=2) == pytest.approx(1.5)


def test_stolen_time_is_taken_out_of_the_busy_share():
    # 1.6 s executing + 0.4 s stolen = the whole 2 s interval.
    assert host.correct(2.0, 1.6, 0.4, 1.0) == pytest.approx(1.6)
    # Same, on a host 1.25x slower: 1.6 / 1.25.
    assert host.correct(2.0, 1.6, 0.4, 1.25) == pytest.approx(1.28)
    # 1 s asleep stays; of the busy second 0.2 s was stolen.
    assert host.correct(2.0, 0.8, 0.2, 1.0) == pytest.approx(1.8)
    # Steal beyond the time the session was not executing hit the other,
    # idle CPU: a fully busy single process was delayed by 0.4 s at most.
    assert host.correct(2.0, 1.6, 0.9, 1.0) == pytest.approx(1.6)


def test_sampler_measures_and_accounts_for_itself():
    sampler = host.SpeedSampler(seed=5, period_s=0.005)
    try:
        sampler.start()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
        interval = sampler.stop()
    finally:
        sampler.close()
    assert interval.samples >= 5
    assert 0.2 < interval.factor < 20.0
    assert 0.0 < interval.probe_cpu_s <= interval.probe_wall_s * 1.5
    with pytest.raises(host.SessionTimeout):
        sampler = host.SpeedSampler(seed=5, period_s=0.005)
        try:
            sampler.start(timeout_s=0.02)
            while True:
                sum(range(1000))
        finally:
            sampler.close()


# -- contract and smoke ----------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(run.NAMES)
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]
    ] == list(ledger.PER_LAYER)
    assert {m["name"] for m in benchmark["end_to_end"]} == {
        "session_wall_s", "session_cpu_s", "setup_s", "peak_rss_mb",
    }


def _run(*arguments):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload",
    ["bare_conv", "bare_recurrent", "service_cold", "fleet_memo"],
)
def test_smoke_runs_clean(workload):
    code, summary = _run("--workload", workload, "--seconds", "3")
    assert code == 0 and summary["correct"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    assert set(summary["metrics"]) == {
        "session_wall_s", "session_cpu_s", "setup_s", "peak_rss_mb",
    }
    assert not os.path.exists(os.path.join(ROOT, ".session_bench"))


def test_corrupt_reference_fails_every_session():
    code, summary = _run(
        "--workload", "bare_recurrent", "--seconds", "3",
        "--corrupt-reference",
    )
    assert code != 0 and not summary["correct"]
    assert summary["failed"] == summary["attempted"] >= 1
