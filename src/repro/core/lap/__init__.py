"""Lock Acquirer Prediction (LAP), Section 2 of the paper.

LAP combines three low-level predictors — the manager's FIFO *waiting
queue*, the *virtual queue* of acquire notices sent ahead of real acquires,
and *lock transfer affinity* (history of ownership transfers) — to compute
the *update set*: the processors a releaser eagerly pushes merged diffs to.
"""
from repro.core.lap.state import LockPredictionState
from repro.core.lap.affinity import AffinityMatrix
from repro.core.lap.predictor import AFFINITY_THRESHOLD, LapPredictor
from repro.core.lap.stats import LapStats, VARIANTS

__all__ = [
    "AFFINITY_THRESHOLD",
    "LockPredictionState",
    "AffinityMatrix",
    "LapPredictor",
    "LapStats",
    "VARIANTS",
]
