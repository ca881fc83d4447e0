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
        upset: List[int] = []

        def fill(candidates: List[int]) -> bool:
            for q in candidates:
                if q != releaser and q not in upset:
                    upset.append(q)
                    if len(upset) >= self.size:
                        return True
            return False

        if fill(state.affinity.affinity_set(releaser, AFFINITY_THRESHOLD)):
            return upset
        positive = set(state.affinity.positive_set(releaser))
        if fill([q for q in state.virtual_queue if q in positive]):
            return upset
        if fill(list(state.virtual_queue)):
            return upset
        fill(state.affinity.positive_set(releaser))
        return upset

    def score(self, state: LockPredictionState,
              owner: int) -> Dict[str, List[int]]:
        """All four Table 3 predictions for the new ``owner``, keyed by
        :data:`repro.core.lap.stats.VARIANTS` (what ``LapStats`` scores)."""
        return {"lap": self.predict(state, owner),
                "waitq": self.predict_waitq(state, owner),
                "waitq_affinity": self.predict_waitq_affinity(state, owner),
                "waitq_virtualq": self.predict_waitq_virtualq(state, owner)}

    # ---- low-level technique variants (Table 3 columns) -------------------

    def predict_waitq(self, state: LockPredictionState, releaser: int) -> List[int]:
        return [state.waiting_queue[0]] if state.waiting_queue else []

    def predict_waitq_affinity(self, state: LockPredictionState,
                               releaser: int) -> List[int]:
        if state.waiting_queue:
            return [state.waiting_queue[0]]
        out: List[int] = []
        for q in state.affinity.affinity_set(releaser, AFFINITY_THRESHOLD):
            if q != releaser and q not in out:
                out.append(q)
            if len(out) >= self.size:
                break
        return out

    def predict_waitq_virtualq(self, state: LockPredictionState,
                               releaser: int) -> List[int]:
        if state.waiting_queue:
            return [state.waiting_queue[0]]
        out: List[int] = []
        for q in state.virtual_queue:
            if q != releaser and q not in out:
                out.append(q)
            if len(out) >= self.size:
                break
        return out
