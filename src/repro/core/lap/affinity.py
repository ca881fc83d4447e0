"""Lock transfer affinity (Section 2.1).

``aff(l, p, q)`` counts past ownership transfers of lock ``l`` from processor
``p`` to processor ``q``.  The *affinity set* ``A_l(p)`` contains every
processor whose affinity is at least 60 % greater than the average affinity
``p`` has for the other processors (``LapPredictor`` uses the paper's
``AFFINITY_THRESHOLD``, which the paper calls "admittedly arbitrary").
"""
from __future__ import annotations

from typing import List


class AffinityMatrix:
    """Transfer-count matrix for one lock variable.

    Rows are plain Python lists: every lock grant reads one row of 16 or
    so counts, which a list serves without NumPy temporaries or a
    ``tolist()`` per call.  The diagonal stays zero (a processor never
    transfers a lock to itself).
    """

    def __init__(self, num_procs: int) -> None:
        self.num_procs = num_procs
        #: ``rows[src][dst]``: transfers from ``src`` to ``dst``
        self.rows: List[List[int]] = [[0] * num_procs
                                      for _ in range(num_procs)]

    def record_transfer(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.rows[src][dst] += 1

    def affinity(self, src: int, dst: int) -> int:
        return self.rows[src][dst]

    def affinity_set(self, src: int, threshold: float) -> List[int]:
        """Processors with affinity > (1 + threshold) * mean, best first."""
        row = self.rows[src]
        total = sum(row)
        if self.num_procs <= 1 or total == 0:
            return []
        cut = (1.0 + threshold) * (total / (self.num_procs - 1))
        candidates = [q for q, v in enumerate(row)
                      if q != src and v >= cut and v > 0]
        # a stable sort of ascending ids by descending count: ties stay in
        # id order
        candidates.sort(key=row.__getitem__, reverse=True)
        return candidates

    def positive_set(self, src: int) -> List[int]:
        """Processors with any past transfer from ``src``, best first."""
        row = self.rows[src]
        candidates = [q for q, v in enumerate(row) if q != src and v > 0]
        candidates.sort(key=row.__getitem__, reverse=True)
        return candidates
