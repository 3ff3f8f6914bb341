"""Gate a ``BENCH_nn.json`` produced by ``run_perf.py`` against the
committed baseline.

Two independent checks:

1. **Speedup floors** (machine independent): the fast backend must stay
   meaningfully ahead of the ``np.add.at`` reference on the kernels this
   PR vectorized.  Floors are set below the measured speedups (~2x on
   the conv workloads at paper-native scale) to absorb scheduler noise
   without letting a real regression through.

2. **Absolute tolerance band** (same-machine CI cache): each fast-path
   median may not degrade by more than ``--max-slowdown`` (default 2x)
   against ``baseline.json``.  The band is deliberately wide because CI
   machines vary; the speedup floors are the sharp check.

Exits non-zero with a per-metric report on any violation.

Usage::

    python benchmarks/perf/check_regression.py \
        [--current BENCH_nn.json] [--baseline benchmarks/perf/baseline.json] \
        [--max-slowdown 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys

#: Minimum acceptable fast/reference speedup per metric.  Only the
#: kernels the vectorization targets are gated; NLP (pure RNN, no conv)
#: is reported but never gated.
SPEEDUP_FLOORS = {
    "micro.conv1d.backward": 1.5,
    "micro.conv2d.backward": 1.5,
    # The reference 1-D pool backward is an indexed assignment, not an
    # add.at scatter, and at this bandwidth-bound size (64x32x4096) the
    # fast path's flat-index assignment moves the same bytes: parity is
    # the expected reading.  Its win is per-call overhead at session
    # shapes (no index grids rebuilt per step), which the report-only
    # ``session_step.*`` rows and tests/test_nn_step_cost.py watch.  So
    # gate the forward (one-pass reduction vs two) and hold the backward
    # near parity.
    "micro.maxpool1d.forward": 1.5,
    "micro.maxpool1d.backward": 0.8,
    "micro.maxpool2d.backward": 1.2,
    "e2e.SR": 1.5,
    "e2e.IC": 1.5,
    # Artifact cache, end-to-end: warm-resume must at least halve the
    # retrain cost over a BOHB bracket (analytic work ratio is 1.92x),
    # and an exact-memo replay of a finished session must be far faster
    # than retraining.
    "artifact.IC": 1.5,
    "artifact.IC_memo": 2.0,
    # Asynchronous scheduling: virtual-time makespan of a 64-wide IC
    # bracket list-scheduled over 8 workers with one slowed 5x.  ASHA
    # (no rung barriers) must finish >= 1.3x faster than the
    # wave-synchronous path, which stalls at every barrier until the
    # straggler catches up.  Deterministic — the simulation is exact, so
    # this floor has no noise margin to absorb.
    "scheduler.asha": 1.3,
}

#: Minimum absolute throughput per metric (machine dependent only in the
#: extreme: the floors sit an order of magnitude below a laptop-class
#: measurement).  The traffic replay engine must stay a tight numpy loop
#: — 50k simulated requests/sec keeps per-candidate trace replays
#: cheaper than the steady-state evaluation they replace.
ABSOLUTE_FLOORS = {
    "traffic.replay": ("requests_per_sec", 50_000.0),
    # Equal-quality clause of the asha gate: the best score ASHA finds
    # must stay within ~10% of the synchronous bracket's (quality is
    # wave-best/asha-best on lower-is-better scores; promotion trial ids
    # differ between the schedulers, which reseeds model init, so the
    # gate is a ratio floor rather than bit-equality).
    "scheduler.asha": ("quality", 0.9),
}


def _metrics(report: dict):
    for name, entry in report.get("micro", {}).items():
        yield f"micro.{name}", entry
    for name, entry in report.get("e2e", {}).items():
        yield f"e2e.{name}", entry
    for name, entry in report.get("artifact", {}).items():
        yield f"artifact.{name}", entry
    for name, entry in report.get("scheduler", {}).items():
        yield f"scheduler.{name}", entry
    for name, entry in report.get("traffic", {}).items():
        yield f"traffic.{name}", entry


#: Floors are calibrated at full scale; smoke runs use smaller batches
#: and a single end-to-end round, so the ratio estimate is noisier and
#: the fixed per-call overheads weigh more.  Relax rather than skip: a
#: real regression (fast path slower than add.at) still trips the gate.
SMOKE_FLOOR_RELAX = 0.6


def check(current: dict, baseline: dict, max_slowdown: float) -> list:
    failures = []
    current_metrics = dict(_metrics(current))

    relax = 1.0 if current.get("scale") == "full" else SMOKE_FLOOR_RELAX
    for name, floor in SPEEDUP_FLOORS.items():
        floor = floor * relax
        entry = current_metrics.get(name)
        if entry is None:
            failures.append(f"{name}: missing from current report")
            continue
        if entry["speedup"] < floor:
            failures.append(
                f"{name}: fast/reference speedup {entry['speedup']:.2f}x "
                f"below floor {floor:.2f}x"
            )

    for name, (key, floor) in ABSOLUTE_FLOORS.items():
        floor = floor * relax
        entry = current_metrics.get(name)
        if entry is None:
            failures.append(f"{name}: missing from current report")
            continue
        if entry[key] < floor:
            failures.append(
                f"{name}: {key} {entry[key]:,.0f} below floor {floor:,.0f}"
            )

    # Absolute medians are only comparable like-for-like: a smoke run
    # (smaller batches/sample counts) against the committed full-scale
    # baseline would fail or pass on workload size, not on regressions.
    # The machine-independent speedup floors above still gate smoke runs.
    if current.get("scale") != baseline.get("scale"):
        print(
            f"note: scale mismatch (current={current.get('scale')!r}, "
            f"baseline={baseline.get('scale')!r}) — absolute tolerance "
            "band skipped, speedup floors still enforced"
        )
        return failures

    for name, base_entry in _metrics(baseline):
        entry = current_metrics.get(name)
        if entry is None:
            failures.append(f"{name}: present in baseline, missing now")
            continue
        if "fast_ms" in base_entry:
            ratio = entry["fast_ms"] / base_entry["fast_ms"]
            if ratio > max_slowdown:
                failures.append(
                    f"{name}: fast path {entry['fast_ms']:.2f}ms is "
                    f"{ratio:.2f}x the baseline "
                    f"{base_entry['fast_ms']:.2f}ms "
                    f"(allowed {max_slowdown:.1f}x)"
                )
        elif "fast_trials_per_sec" in base_entry:
            ratio = (
                base_entry["fast_trials_per_sec"]
                / entry["fast_trials_per_sec"]
            )
            if ratio > max_slowdown:
                failures.append(
                    f"{name}: {entry['fast_trials_per_sec']:.3f} trials/s "
                    f"is {ratio:.2f}x slower than baseline "
                    f"{base_entry['fast_trials_per_sec']:.3f} trials/s "
                    f"(allowed {max_slowdown:.1f}x)"
                )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", default="BENCH_nn.json")
    parser.add_argument(
        "--baseline", default="benchmarks/perf/baseline.json"
    )
    parser.add_argument("--max-slowdown", type=float, default=2.0)
    args = parser.parse_args()

    with open(args.current) as handle:
        current = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    failures = check(current, baseline, args.max_slowdown)
    if failures:
        print(f"perf regression check FAILED ({len(failures)} violations):")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    count = len(dict(_metrics(current)))
    print(f"perf regression check passed ({count} metrics within bounds)")


if __name__ == "__main__":
    main()
