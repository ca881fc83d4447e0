"""The LAP combination algorithm (Section 2.2 of the paper).

Computes the update set ``U_l(p)`` — the processors likely to acquire lock
``l`` next after processor ``p`` — of a user-chosen size:

1. if the waiting queue is non-empty, the update set is exactly its head;
2. otherwise include the affinity set ``A_l(p)``;
3. if incomplete, include processors in the intersection of the virtual
   queue and the processors with positive affinity;
4. if still incomplete, insert remaining virtual-queue processors in order,
   then remaining processors by decreasing affinity.
"""
from __future__ import annotations

from typing import Dict, List

from repro.core.lap.state import LockPredictionState

#: the paper's affinity-set threshold: a processor joins ``A_l(p)`` when its
#: lock-transfer affinity exceeds the mean by more than 60 %
AFFINITY_THRESHOLD = 0.60


class LapPredictor:
    def __init__(self, update_set_size: int) -> None:
        if update_set_size < 1:
            raise ValueError("update set size must be >= 1")
        self.size = update_set_size

    def predict(self, state: LockPredictionState, releaser: int) -> List[int]:
        """Update set for ``releaser``'s next release of this lock."""
        if state.waiting_queue:
            return [state.waiting_queue[0]]
        return self._combine(
            state, releaser,
            state.affinity.affinity_set(releaser, AFFINITY_THRESHOLD))

    def _combine(self, state: LockPredictionState, releaser: int,
                 aset: List[int]) -> List[int]:
        """Steps 2-4 of the combination, given the affinity set ``aset``
        (distinct, never ``releaser``); the positive-affinity set is
        computed only if step 2 falls short."""
        size = self.size
        upset = aset[:size]
        if len(upset) >= size:
            return upset
        positive = state.affinity.positive_set(releaser)
        members = set(positive)
        vq = state.virtual_queue
        for candidates in ([q for q in vq if q in members], vq, positive):
            for q in candidates:
                if q != releaser and q not in upset:
                    upset.append(q)
                    if len(upset) >= size:
                        return upset
        return upset

    def _first(self, candidates: List[int], releaser: int) -> List[int]:
        """The first ``size`` distinct candidates other than ``releaser``."""
        out: List[int] = []
        for q in candidates:
            if q != releaser and q not in out:
                out.append(q)
            if len(out) >= self.size:
                break
        return out

    def score(self, state: LockPredictionState,
              owner: int) -> Dict[str, List[int]]:
        """All four Table 3 predictions for the new ``owner``, keyed by
        :data:`repro.core.lap.stats.VARIANTS` (what ``LapStats`` scores).

        One pass: a non-empty waiting queue decides all four, otherwise
        the affinity set is computed once for ``lap`` and
        ``waitq_affinity``.  Each entry equals what the variant's own
        ``predict*`` method returns; the lists are shared and read-only.
        """
        wq = state.waiting_queue
        if wq:
            head = [wq[0]]
            return {"lap": head, "waitq": head, "waitq_affinity": head,
                    "waitq_virtualq": head}
        aset = state.affinity.affinity_set(owner, AFFINITY_THRESHOLD)
        return {"lap": self._combine(state, owner, aset),
                "waitq": [],
                "waitq_affinity": aset[:self.size],
                "waitq_virtualq": self._first(state.virtual_queue, owner)}

    # ---- low-level technique variants (Table 3 columns) -------------------

    def predict_waitq(self, state: LockPredictionState, releaser: int) -> List[int]:
        return [state.waiting_queue[0]] if state.waiting_queue else []

    def predict_waitq_affinity(self, state: LockPredictionState,
                               releaser: int) -> List[int]:
        if state.waiting_queue:
            return [state.waiting_queue[0]]
        return state.affinity.affinity_set(
            releaser, AFFINITY_THRESHOLD)[:self.size]

    def predict_waitq_virtualq(self, state: LockPredictionState,
                               releaser: int) -> List[int]:
        if state.waiting_queue:
            return [state.waiting_queue[0]]
        return self._first(state.virtual_queue, releaser)
