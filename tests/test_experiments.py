"""Tests for the experiment harness (the experiments that need no tuning
run; those are exercised end to end by benchmarks/)."""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentContext,
    edgetune_capabilities,
    figure_01_counters,
    figure_02_model_hparams,
    figure_04_gpus,
    figure_05_cpu_cores,
    figure_06_pipeline,
    figure_10_search_flow,
    figure_15_emulation_error,
    render_table,
    save_table,
    table_01_workloads,
    table_02_features,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(seed=7)


class TestRegistry:
    def test_all_paper_targets_present(self):
        paper_targets = {
            "table1", "table2", "fig01", "fig02", "fig03", "fig04",
            "fig05", "fig06", "fig10", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17",
        }
        ablations = {"ablation_onefold", "ablation_cache", "ablation_eta",
                     "ablation_warmstart"}
        extensions = {"traffic_slo"}
        assert set(ALL_EXPERIMENTS) == paper_targets | ablations | extensions

    def test_context_targets(self):
        assert ExperimentContext().target_for("IC") == 0.8


class TestFastExperiments:
    def test_table1_rows(self, ctx):
        result = table_01_workloads(ctx)
        assert len(result.rows) == 4
        assert result.column("id") == ["IC", "SR", "NLP", "OD"]

    def test_table2_edgetune_row_derived(self, ctx):
        capabilities = edgetune_capabilities()
        assert all(capabilities.values())
        result = table_02_features(ctx)
        assert len(result.rows) == 8  # 7 related systems + EdgeTune

    def test_fig01_counter_structure(self, ctx):
        result = figure_01_counters(ctx)
        assert len(result.rows) == 22
        cpu = [r for r in result.rows if r["category"] == "cpu"]
        assert all(0.8 <= r["ratio"] <= 1.3 for r in cpu)

    def test_fig02_monotone(self, ctx):
        result = figure_02_model_hparams(ctx)
        throughput = result.column("inference_throughput_sps")
        assert throughput == sorted(throughput, reverse=True)

    def test_fig04_degradation(self, ctx):
        result = figure_04_gpus(ctx)
        small = {r["gpus"]: r for r in result.rows if r["batch"] == 32}
        assert small[8]["runtime_m"] > small[1]["runtime_m"]

    def test_fig05_energy_tradeoff(self, ctx):
        result = figure_05_cpu_cores(ctx)
        single = {r["cores"]: r for r in result.rows if r["batch"] == 1}
        assert single[4]["energy_per_img_j"] > single[1]["energy_per_img_j"]

    def test_fig06_containment(self, ctx):
        result = figure_06_pipeline(ctx)
        stalls = [r for r in result.rows if r["label"].startswith("stall:")]
        assert not stalls

    def test_fig10_three_algorithms(self, ctx):
        result = figure_10_search_flow(ctx)
        assert {r["algorithm"] for r in result.rows} == {
            "grid", "random", "bohb"
        }

    def test_fig15_error_bounded(self, ctx):
        result = figure_15_emulation_error(ctx)
        rows = {r["metric"]: r for r in result.rows}
        assert rows["throughput"]["p50"] <= 25.0
        assert rows["energy"]["p50"] <= 25.0


class TestReporting:
    def test_render_contains_all_rows(self, ctx):
        result = table_01_workloads(ctx)
        text = render_table(result)
        for workload_id in ("IC", "SR", "NLP", "OD"):
            assert workload_id in text
        assert result.title in text

    def test_save_writes_file(self, ctx, tmp_path):
        result = table_01_workloads(ctx)
        path = save_table(result, tmp_path)
        with open(path) as handle:
            assert "table1" in handle.read()

    def test_result_helpers(self, ctx):
        result = table_01_workloads(ctx)
        assert result.column("model")[0] == "resnet"
        result.note("extra")
        assert "extra" in result.notes
