"""Placeholder for the deleted trial-stacking driver (DESIGN.md §9).

``benchmarks/session/ledger.py``'s frozen ``TARGETS`` still names these two
functions; that is the only reason they exist, nothing in ``repro`` calls
them, and their ledger rows read 0.  ROADMAP item 1(ii) deletes them
together with ``TARGETS``.
"""


def evaluate_task_groups(*args, **kwargs):
    """Never called: see :func:`repro.core.model_server.evaluate_trial`."""
    raise NotImplementedError("trial stacking was removed")


def evaluate_trial_batch(*args, **kwargs):
    """Never called: see :func:`repro.core.model_server.evaluate_trial`."""
    raise NotImplementedError("trial stacking was removed")
