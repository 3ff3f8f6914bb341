"""The tuning advisor: knowledge base + recommendation server.

EdgeTune's contract (§3.1) is to *hand users deployment recommendations*;
§3.4's historical look-up makes repeated tuning cheap.  This package
extends both ideas across sessions:

* :mod:`repro.advisor.signature` — workload signatures and the distance
  used to match unseen workloads to their nearest tuned neighbour;
* :mod:`repro.advisor.kb` — the knowledge base over
  :class:`~repro.storage.TrialDatabase`'s ``recommendations`` table,
  populated when a service session finalizes (or by ``advisor index``);
* :mod:`repro.advisor.server` — the ``ask``/``stats``/``index``/``ping``
  verbs over :mod:`repro.wire`'s frame server, with an LRU cache and
  per-client rate limits;
* :mod:`repro.advisor.client` / :mod:`repro.advisor.loadgen` — the
  matching client and a multi-threaded throughput benchmark.

CLI: ``python -m repro advisor serve|ask|index|bench``.
"""

from ..wire import TokenBucket
from .client import AdvisorClient
from .kb import Advice, KnowledgeBase, inference_recommendation_of
from .loadgen import LoadReport, run_load
from .resilience import CircuitBreaker
from .server import AdvisorServer, LRUCache
from .signature import signature_distance, signature_for, workload_signature

__all__ = [
    "CircuitBreaker",
    "Advice",
    "KnowledgeBase",
    "inference_recommendation_of",
    "AdvisorServer",
    "LRUCache",
    "TokenBucket",
    "AdvisorClient",
    "LoadReport",
    "run_load",
    "workload_signature",
    "signature_for",
    "signature_distance",
]
