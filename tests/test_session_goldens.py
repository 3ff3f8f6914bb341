"""Whole-session goldens: one trial, one training loop, the same bits.

``EdgeTune(seed=7, device="armv7")`` sessions of the four workloads, each
77 trials, recorded while the in-process driver still trained
shape-compatible trials as lanes of one stacked run (at least one stacked
group formed on each of SR, IC and OD; NLP's recurrent family never
stacked).  Every trial now trains alone, so a golden that still holds says
the serial loop reproduces every stacked lane bit for bit — and the
inline service coordinator, which has always run trials one at a time,
reproduces the same session.

``digest`` hashes the session benchmark's fingerprint
(``benchmarks/session/workloads.py``), virtual-timeline fields included;
the readable fields beside it say what moved when it does not match.
"""

import hashlib
import json

import pytest

from repro import EdgeTune
from repro.service import SessionCoordinator, SessionSpec, SessionStore
from repro.storage import TrialDatabase

GOLDENS = {
    "NLP": dict(
        samples=100,
        best={"gpus": 4, "stride": 25, "train_batch_size": 501},
        best_score=2.3010258808078605,
        runtime_s=1075.40989590397,
        digest="b7e903fdc9afe536a4694972bb46eaec"
               "57a523a778076101bc87248eb043998b",
    ),
    "SR": dict(
        samples=20,
        best={"embedding_dim": 32, "gpus": 7, "train_batch_size": 276},
        best_score=577.1445247388659,
        runtime_s=3126.706776094695,
        digest="8bb12dafe00cb38490b97d78de6fbf41"
               "cfb2a29751becb33036797ce2f4e19c5",
    ),
    "IC": dict(
        samples=80,
        best={"gpus": 8, "num_layers": 18, "train_batch_size": 209},
        best_score=170.51114147801422,
        runtime_s=3627.0588914583036,
        digest="a155d460a8862d664d1c48a5f7ad9109"
               "3e3d80c828cbb1da523e54679cec79c0",
    ),
    "OD": dict(
        samples=40,
        best={"dropout": 0.353054889447061, "gpus": 8,
              "train_batch_size": 399},
        best_score=295.889830808757,
        runtime_s=1377.4073344450496,
        digest="a37d6cadb11e7f04eb698375465be694"
               "3361c586265c76d2247fe7e0747d3ea0",
    ),
}


def fingerprint(result):
    """The session benchmark's fingerprint, virtual fields included."""
    return (
        [(t.trial_id, t.score, t.accuracy) for t in result.trials],
        sorted(result.best_configuration.items()),
        result.best_accuracy,
        result.best_score,
        sum(t.training.energy_j for t in result.trials),
        [t.stall_s for t in result.trials],
        result.tuning_runtime_s,
        result.tuning_energy_j,
        result.stall_s,
    )


def digest(result):
    text = json.dumps(fingerprint(result), default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


def bare(workload, samples):
    with TrialDatabase() as database:
        return EdgeTune(
            workload=workload, device="armv7", seed=7, samples=samples,
            database=database,
        ).tune()


def inline(workload, samples):
    with TrialDatabase() as database:
        session_id = SessionStore(database).create(SessionSpec(
            workload=workload, device="armv7", seed=7, samples=samples,
        ))
        return SessionCoordinator(database, session_id).run()


@pytest.mark.parametrize("run", [bare, inline])
@pytest.mark.parametrize("workload", sorted(GOLDENS))
def test_session_matches_its_golden(workload, run):
    golden = GOLDENS[workload]
    result = run(workload, golden["samples"])
    assert len(result.trials) == 77
    assert dict(result.best_configuration) == golden["best"]
    assert result.best_score == golden["best_score"]
    assert result.tuning_runtime_s == golden["runtime_s"]
    assert digest(result) == golden["digest"]
