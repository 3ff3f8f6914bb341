"""Measurement records, aggregation helpers, and service meters."""

from .meters import MeterRegistry
from .metrics import (
    InferenceMeasurement,
    MetricSummary,
    TrainingMeasurement,
    percent_error,
)

__all__ = [
    "TrainingMeasurement",
    "InferenceMeasurement",
    "MetricSummary",
    "percent_error",
    "MeterRegistry",
]
