"""Placeholder for the deleted stacked trainer (DESIGN.md §9).

``benchmarks/session/ledger.py``'s frozen ``TARGETS`` still names this
module's ``train_model_batch``; that is the only reason it exists, nothing
in ``repro`` calls it, and its ledger row reads 0.  ROADMAP item 1(ii)
deletes it together with ``TARGETS``.
"""


def train_model_batch(*args, **kwargs):
    """Never called: trials train one at a time (:func:`repro.nn.train_model`)."""
    raise NotImplementedError("trial stacking was removed; use train_model")
