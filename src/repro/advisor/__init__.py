"""Placeholder for the deleted recommendation advisor (ROADMAP item 8).

``benchmarks/session/workloads.py``, which is frozen, still runs ``import
repro.advisor`` when it preloads the service path's modules; that import
is the only reason this module exists, and nothing in ``repro`` uses it.
A session's deployment recommendation is its ``InferenceRecommendation``,
and the historical look-up is the ``inference_results`` cache.  The
ROADMAP item "Spans and counters move in-tree" (4(ii)) deletes it
together with the frozen fixture.
"""
