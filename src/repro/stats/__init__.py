"""Measurement containers: execution breakdowns, diff and fault statistics."""
from repro.stats.breakdown import Breakdown
from repro.stats.diff_stats import DiffStats
from repro.stats.fault_stats import AccessFaultStats
from repro.stats.run_result import RunResult

__all__ = ["AccessFaultStats", "Breakdown", "DiffStats", "RunResult"]
