"""The Inference Tuning Server (paper §3.4, Algorithm 1 lines 11-18).

Given an architecture (identified by its FLOP/parameter footprint), the
server searches the inference parameter space — inference batch size, CPU
cores, CPU frequency — on an *emulated* edge device, and returns the
configuration optimising the user's inference objective.

Two properties from the paper are reproduced faithfully:

* **historical look-up** — results are cached in the persistent database
  keyed by architecture/device/objective, so an architecture is never
  re-tuned (§3.4);
* **simulation cost accounting** — the server runs on the tuning host's
  CPUs; each candidate costs simulation time there (not edge-device
  time), which is what lets the whole job hide inside one training trial
  (§3.3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import (
    Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..errors import TuningError
from ..hardware import Emulator, get_device
from ..objectives import WORST_SCORE, InferenceObjective
from ..rng import SeedLike, derive_seed, ensure_seed
from ..search import build_searcher
from ..space import Configuration, ParameterSpace
from ..storage import StoredInferenceResult, TrialDatabase
from ..telemetry import InferenceMeasurement
from ..traffic import (
    ReplayStats,
    SLOSpec,
    Trace,
    TraceSpec,
    parse_scenario,
    record_replay,
    replay_trace,
)
from .results import InferenceRecommendation

#: Fixed simulation setup cost per candidate configuration, seconds of
#: tuning-server CPU time (model (re)shaping, device model setup).
SIM_SETUP_S = 0.3

#: Simulation cost per evaluated sample, seconds (forward passes replayed
#: on one server core).
SIM_PER_SAMPLE_S = 0.005

#: Number of batched inference calls evaluated per candidate.
EVAL_CALLS = 3

#: Power drawn by the inference server's share of the tuning host, W
#: (a few active server cores; the server is CPU-only, §3.2).
INFERENCE_SERVER_POWER_W = 35.0

#: Simulation cost per replayed request when scoring a candidate under
#: traffic load, seconds of tuning-server CPU time.  Replay is a tight
#: numpy loop (about four numpy calls per dispatched batch), so a trace
#: costs far less than the per-sample forward passes of the steady-state
#: path.
SIM_PER_REQUEST_S = 2e-5


@dataclass
class InferenceTrialRecord:
    """One evaluated inference configuration."""

    configuration: Dict[str, Any]
    measurement: InferenceMeasurement
    score: float
    sim_cost_s: float
    #: Populated only when the candidate was scored under traffic load.
    replay: Optional[ReplayStats] = None


class InferenceTuningServer:
    """Tunes inference hyper/system parameters for given architectures."""

    def __init__(
        self,
        device: str = "armv7",
        objective: Optional[InferenceObjective] = None,
        algorithm: str = "grid",
        num_trials: int = 32,
        grid_resolution: int = 4,
        emulator: Optional[Emulator] = None,
        database: Optional[TrialDatabase] = None,
        seed: SeedLike = None,
        use_cache: bool = True,
        traffic: Optional[Union[str, TraceSpec]] = None,
        slo: Optional[SLOSpec] = None,
    ):
        self.device = get_device(device).name
        self.objective = objective or InferenceObjective("energy")
        self.algorithm = algorithm
        self.num_trials = num_trials
        self.grid_resolution = grid_resolution
        self.emulator = emulator or Emulator()
        self.database = database or TrialDatabase()
        self.seed = ensure_seed(seed)
        #: §3.4's historical look-up; disabled only by ablation studies.
        self.use_cache = use_cache
        #: Serving-load scenario: when set, every candidate is scored by
        #: replaying this trace instead of a single steady-state call.
        self.traffic_spec: Optional[TraceSpec] = (
            parse_scenario(traffic) if isinstance(traffic, str) else traffic
        )
        self.slo = slo or SLOSpec()
        self._trace: Optional[Trace] = None

    @property
    def under_load(self) -> bool:
        """Candidates are scored against a replayed trace."""
        return self.traffic_spec is not None

    def _traffic_trace(self) -> Trace:
        """The replay trace, built once per server (deterministic)."""
        if self._trace is None:
            assert self.traffic_spec is not None
            self._trace = self.traffic_spec.build()
        return self._trace

    # -- cache ------------------------------------------------------------
    def cached(
        self,
        architecture_key: str,
        unstored: Mapping[str, InferenceRecommendation] = {},
    ) -> Optional[InferenceRecommendation]:
        """The historical look-up's answer for ``architecture_key``, or
        ``None``.  ``unstored`` holds searches :meth:`store` has not kept
        yet (a merge batch's, stored in its transaction): a key there is
        answered as the cache will answer it once stored, bit for bit,
        without reading the database."""
        if not self.use_cache:
            return None
        fresh = unstored.get(architecture_key)
        if fresh is not None:
            stored = self._stored(architecture_key, fresh)
            # What the row's JSON column gives back.
            stored.configuration = json.loads(json.dumps(
                stored.configuration, sort_keys=True, default=repr
            ))
        else:
            stored = self.database.lookup_inference(
                architecture_key, self.device, self.objective.name
            )
            if stored is None:
                return None
        measurement = InferenceMeasurement(
            batch_latency_s=stored.batch_latency_s,
            throughput_sps=stored.throughput_sps,
            energy_per_sample_j=stored.energy_per_sample_j,
            power_w=stored.power_w,
            working_set_bytes=0,
            device=self.device,
            # Load-derived measurements are per-request (p99 latency,
            # energy per request), stored with batch_size=1 so a cache
            # hit reproduces the fresh path's scores bit-for-bit.
            batch_size=1 if self.under_load else int(
                stored.configuration.get("inference_batch_size", 1)
            ),
            cores=int(stored.configuration.get("cores", 1)),
        )
        return InferenceRecommendation(
            configuration=stored.configuration,
            measurement=measurement,
            device=self.device,
            objective=self.objective.name,
            tuning_runtime_s=0.0,  # cache hits cost (effectively) nothing
            tuning_energy_j=0.0,
            cache_hit=True,
        )

    def _stored(
        self, architecture_key: str, recommendation: InferenceRecommendation
    ) -> StoredInferenceResult:
        """The cache row that keeps ``recommendation``."""
        measurement = recommendation.measurement
        return StoredInferenceResult(
            architecture_key=architecture_key,
            device=self.device,
            objective=self.objective.name,
            configuration=recommendation.configuration,
            batch_latency_s=measurement.batch_latency_s,
            throughput_sps=measurement.throughput_sps,
            energy_per_sample_j=measurement.energy_per_sample_j,
            power_w=measurement.power_w,
            tuning_runtime_s=recommendation.tuning_runtime_s,
            tuning_energy_j=recommendation.tuning_energy_j,
        )

    def store(
        self,
        architecture_key: str,
        recommendation: InferenceRecommendation,
        records: Sequence[InferenceTrialRecord] = (),
    ) -> None:
        """Keep a :meth:`search`'s outcome: its cache row, and its traffic
        replays (``records``) folded into the persistent counters."""
        self.database.store_inference(
            self._stored(architecture_key, recommendation)
        )
        for record in records:
            if record.replay is not None:
                record_replay(self.database, record.replay, self.slo)

    # -- tuning ---------------------------------------------------------------
    def _candidates(self, space: ParameterSpace) -> List[Configuration]:
        if self.algorithm == "grid":
            return space.grid(self.grid_resolution)
        searcher = build_searcher(
            self.algorithm, space, seed=derive_seed(self.seed, "inf-search")
        )
        configurations: List[Configuration] = []
        for _ in range(self.num_trials):
            configuration = searcher.suggest()
            if configuration is None:
                break
            configurations.append(configuration)
        return configurations

    def _replay_candidate(
        self,
        forward_flops_per_sample: float,
        parameter_count: int,
        batch: int,
        cores: int,
        frequency: Optional[float],
        steady: InferenceMeasurement,
    ) -> Tuple[InferenceMeasurement, ReplayStats, float, float]:
        """Score one candidate by replaying the traffic trace through it.

        Returns ``(derived_measurement, stats, score, sim_cost_s)``.  The
        derived measurement expresses the deployment per *request* —
        ``batch_latency_s`` is the replayed p99, ``energy_per_sample_j``
        the energy per served request (idle draw included), with
        ``batch_size=1`` so ``latency_per_sample_s`` equals the p99 — the
        form the combined tuning objective and the historical cache both
        consume.
        """
        trace = self._traffic_trace()
        spec = get_device(self.device)

        def latency_fn(size: int) -> float:
            return self.emulator.measure_inference(
                forward_flops_per_sample=forward_flops_per_sample,
                parameter_count=parameter_count,
                batch_size=size,
                device=spec,
                cores=cores,
                frequency_ghz=frequency,
            ).batch_latency_s

        stats = replay_trace(
            trace,
            latency_fn,
            max_batch=batch,
            slo=self.slo,
            power_w=steady.power_w,
            idle_power_w=spec.idle_power_w,
        )

        def finite(value: float, fallback: float) -> float:
            return value if math.isfinite(value) else fallback

        derived = InferenceMeasurement(
            batch_latency_s=finite(stats.p99_latency_s, WORST_SCORE),
            throughput_sps=finite(stats.throughput_rps, 0.0),
            energy_per_sample_j=finite(
                stats.energy_per_request_j, WORST_SCORE
            ),
            power_w=steady.power_w,
            working_set_bytes=0,
            device=self.device,
            batch_size=1,
            cores=cores,
        )
        if hasattr(self.objective, "score_stats"):
            score = self.objective.score_stats(stats)
        else:
            score = self.objective.score(derived)
        sim_cost = SIM_SETUP_S + SIM_PER_REQUEST_S * stats.requests
        return derived, stats, score, sim_cost

    def tune(
        self,
        architecture_key: str,
        forward_flops_per_sample: float,
        parameter_count: int,
        space: ParameterSpace,
    ) -> Tuple[InferenceRecommendation, List[InferenceTrialRecord]]:
        """Tune inference parameters for one architecture: the historical
        cache's answer, else a :meth:`search`, stored.

        Returns the recommendation plus the per-candidate records (the
        latter feed benchmark analyses; most callers ignore them).
        """
        cached = self.cached(architecture_key)
        if cached is not None:
            return cached, []
        recommendation, records = self.search(
            forward_flops_per_sample, parameter_count, space
        )
        self.store(architecture_key, recommendation, records)
        return recommendation, records

    def search(
        self,
        forward_flops_per_sample: float,
        parameter_count: int,
        space: ParameterSpace,
    ) -> Tuple[InferenceRecommendation, List[InferenceTrialRecord]]:
        """Search the inference space for one architecture, touching no
        database (:meth:`store` keeps the outcome); the recommendation
        plus the per-candidate records."""
        records: List[InferenceTrialRecord] = []
        best: Optional[InferenceTrialRecord] = None
        total_sim_s = 0.0
        for configuration in self._candidates(space):
            batch = int(configuration["inference_batch_size"])
            cores = int(configuration.get("cores", 1))
            frequency = configuration.get("frequency_ghz")
            measurement = self.emulator.measure_inference(
                forward_flops_per_sample=forward_flops_per_sample,
                parameter_count=parameter_count,
                batch_size=batch,
                device=self.device,
                cores=cores,
                frequency_ghz=frequency,
            )
            replay: Optional[ReplayStats] = None
            if self.under_load:
                measurement, replay, score, sim_cost = self._replay_candidate(
                    forward_flops_per_sample,
                    parameter_count,
                    batch,
                    cores,
                    frequency,
                    measurement,
                )
            else:
                score = self.objective.score(measurement)
                sim_cost = SIM_SETUP_S + SIM_PER_SAMPLE_S * batch * EVAL_CALLS
            total_sim_s += sim_cost
            record = InferenceTrialRecord(
                configuration=configuration.to_dict(),
                measurement=measurement,
                score=score,
                sim_cost_s=sim_cost,
                replay=replay,
            )
            records.append(record)
            if best is None or score < best.score:
                best = record
        if best is None:
            raise TuningError(
                "inference search produced no candidate configurations"
            )
        tuning_energy = total_sim_s * INFERENCE_SERVER_POWER_W
        recommendation = InferenceRecommendation(
            configuration=best.configuration,
            measurement=best.measurement,
            device=self.device,
            objective=self.objective.name,
            tuning_runtime_s=total_sim_s,
            tuning_energy_j=tuning_energy,
            cache_hit=False,
        )
        return recommendation, records


def architecture_key_of(
    model_name: str, forward_flops_per_sample: float, parameter_count: int
) -> str:
    """Canonical cache key for the historical look-up (§3.4).

    Inference performance depends only on the *structure* the device
    executes — captured exactly by the per-sample FLOPs and the parameter
    count.  Keying on those (rather than raw hyperparameter values) makes
    reuse automatic for parameters that do not change the structure, e.g.
    YOLO's dropout rate: the paper's "results can be reused for different
    parameters as long as they do not affect the architecture".
    """
    return json.dumps(
        {
            "family": model_name,
            "flops": int(forward_flops_per_sample),
            "params": int(parameter_count),
        },
        sort_keys=True,
    )
