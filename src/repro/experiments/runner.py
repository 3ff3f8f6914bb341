"""Shared experiment context and result containers.

Every figure/table of the paper's evaluation has a function in this
package returning an :class:`ExperimentResult`; the ``benchmarks/`` tree
wraps them in pytest-benchmark targets and writes the rendered tables to
``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Accuracy targets per workload used by the tuning-run experiments
#: (the paper tunes "to reach at least 80 %"; the harder synthetic
#: detection/NLP tasks get proportionally scaled targets).
ACCURACY_TARGETS = {"IC": 0.8, "SR": 0.7, "NLP": 0.6, "OD": 0.5}


@dataclass(frozen=True)
class ExperimentContext:
    """Knobs shared by all experiments."""

    seed: int = 7
    samples: int = 600
    device: str = "armv7"

    @property
    def comparison_samples(self) -> int:
        """Sample count for the system-comparison experiments (Fig 14/17).

        These comparisons are calibration-sensitive: shrinking the dataset
        changes which accuracy targets are reachable and flips outcomes,
        so they always run at full scale.
        """
        return max(500, self.samples)

    def target_for(self, workload_id: str) -> float:
        return ACCURACY_TARGETS[workload_id]


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows of named values plus metadata."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def note(self, text: str) -> None:
        self.notes.append(text)
