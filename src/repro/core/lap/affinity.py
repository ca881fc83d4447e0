"""Lock transfer affinity (Section 2.1).

``aff(l, p, q)`` counts past ownership transfers of lock ``l`` from processor
``p`` to processor ``q``.  The *affinity set* ``A_l(p)`` contains every
processor whose affinity is at least 60 % greater than the average affinity
``p`` has for the other processors (``LapPredictor`` uses the paper's
``AFFINITY_THRESHOLD``, which the paper calls "admittedly arbitrary").
"""
from __future__ import annotations

from typing import List

import numpy as np


class AffinityMatrix:
    """Transfer-count matrix for one lock variable."""

    def __init__(self, num_procs: int) -> None:
        self.num_procs = num_procs
        self._counts = np.zeros((num_procs, num_procs), dtype=np.int64)

    def record_transfer(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self._counts[src, dst] += 1

    def affinity(self, src: int, dst: int) -> int:
        return int(self._counts[src, dst])

    def row(self, src: int) -> np.ndarray:
        return self._counts[src]

    def affinity_set(self, src: int, threshold: float) -> List[int]:
        """Processors with affinity > (1 + threshold) * mean, best first."""
        # called on every lock grant (manager + shadow predictors): work on
        # a plain list, no numpy temporaries for a 16-element row
        row = self._counts[src].tolist()
        row[src] = 0
        total = sum(row)
        if self.num_procs <= 1 or total == 0:
            return []
        mean = total / (self.num_procs - 1)
        cut = (1.0 + threshold) * mean
        candidates = [q for q, v in enumerate(row)
                      if q != src and v >= cut and v > 0]
        candidates.sort(key=lambda q: (-row[q], q))
        return candidates

    def positive_set(self, src: int) -> List[int]:
        """Processors with any past transfer from ``src``, best first."""
        row = self._counts[src].tolist()
        candidates = [q for q, v in enumerate(row) if q != src and v > 0]
        candidates.sort(key=lambda q: (-row[q], q))
        return candidates
