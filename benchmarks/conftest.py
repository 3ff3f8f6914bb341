"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure, saves the rendered
rows and asserts the paper's qualitative claims about the shape of the
data.  The rows go to a temporary directory, so a run leaves the
committed tables alone; ``--out DIR`` saves them under ``DIR`` instead
(``--out benchmarks/results`` regenerates the committed ones).

Environment knobs:

* ``REPRO_SEED=<int>`` — change the experiment seed (default 7).
"""

import os
import sys
import warnings

import pytest

from repro.experiments import ExperimentContext, render_table, save_table

# The numpy engine occasionally overflows on deliberately-diverging
# configurations (e.g. huge learning rates the tuner must learn to avoid);
# that is expected behaviour, not noise worth surfacing per-benchmark.
warnings.filterwarnings("ignore", category=RuntimeWarning)


_CAPTURE_MANAGER = None


def pytest_addoption(parser):
    parser.addoption(
        "--out", metavar="DIR", default=None,
        help="save the rendered tables under DIR (default: a temporary "
             "directory)",
    )


@pytest.fixture(scope="session", autouse=True)
def _grab_capture_manager(request):
    """Remember pytest's capture manager so reproduced tables can be
    echoed to the real terminal/output even on passing tests."""
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin(
        "capturemanager"
    )


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext(
        seed=int(os.environ.get("REPRO_SEED", "7")),
        samples=500,
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> str:
    out = request.config.getoption("--out")
    if out is None:
        return str(tmp_path_factory.mktemp("results"))
    os.makedirs(out, exist_ok=True)
    return out


def run_experiment(benchmark, experiment, ctx, results_dir):
    """Run one experiment exactly once under pytest-benchmark timing,
    persist its table, and return the result for assertions."""
    result = benchmark.pedantic(
        experiment, args=(ctx,), iterations=1, rounds=1
    )
    path = save_table(result, results_dir)

    def emit() -> None:
        print()
        print(render_table(result))
        print(f"[saved to {path}]")

    # Echo the reproduced rows past pytest's capture so the benchmark
    # run's output contains every regenerated table.
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            emit()
    else:
        emit()
    return result
