"""LAP success-rate accounting (Table 3).

The paper defines, per lock variable::

    success(l) = (# lock events where the next acquirer was in the update
                  set predicted at the previous grant)
                 / (# lock acquires - # acquires whose last owner is the
                    acquirer itself)

Predictions are recorded when the manager *grants* the lock (that is when it
computes the new owner's update set) and scored when the *next* grant of the
same lock reveals the true next acquirer.  Shadow predictions for the
low-level technique variants are recorded at the same instant, so the four
Table 3 columns are measured on identical event streams.

This class is the only LAP scorer: Table 3, ``repro explain`` and the
sweep aggregates all read its per-lock tallies from ``RunResult.lap_stats``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

VARIANTS = ("lap", "waitq", "waitq_affinity", "waitq_virtualq")


@dataclass
class LockVarStats:
    lock_id: int
    acquires: int = 0
    #: grants where the acquirer equals the last owner (excluded events)
    same_owner: int = 0
    #: scored transfer events (denominator)
    scored: int = 0
    hits: Dict[str, int] = field(
        default_factory=lambda: {v: 0 for v in VARIANTS}
    )
    #: pending predictions made at the previous grant
    _pending: Optional[Dict[str, List[int]]] = None

    def success_rate(self, variant: str) -> Optional[float]:
        if self.scored == 0:
            return None
        return self.hits[variant] / self.scored


class LapStats:
    def __init__(self, num_locks: int) -> None:
        self.per_lock: List[LockVarStats] = [
            LockVarStats(lid) for lid in range(num_locks)
        ]

    def record_grant(self, lock_id: int, acquirer: int,
                     last_owner: Optional[int],
                     predictions: Dict[str, List[int]]) -> None:
        """Score the previous grant's predictions and stash the new ones."""
        s = self.per_lock[lock_id]
        s.acquires += 1
        if last_owner is not None:
            if last_owner == acquirer:
                s.same_owner += 1
            else:
                s.scored += 1
                pending = s._pending or {}
                for variant in VARIANTS:
                    if acquirer in pending.get(variant, ()):  # hit
                        s.hits[variant] += 1
        s._pending = predictions

    # ---- reporting ---------------------------------------------------------

    def total_acquires(self) -> int:
        return sum(s.acquires for s in self.per_lock)

    def overall_rates(self) -> Dict[str, Optional[float]]:
        """Event-weighted success rates over every lock variable."""
        return self.group_rates(list(range(len(self.per_lock))))

    def group_rates(self, lock_ids: List[int]) -> Dict[str, Optional[float]]:
        """Event-weighted average success rates over a group of lock vars."""
        out: Dict[str, Optional[float]] = {}
        scored = sum(self.per_lock[lid].scored for lid in lock_ids)
        for variant in VARIANTS:
            if scored == 0:
                out[variant] = None
            else:
                hits = sum(self.per_lock[lid].hits[variant]
                           for lid in lock_ids)
                out[variant] = hits / scored
        out["events"] = sum(self.per_lock[lid].acquires for lid in lock_ids)
        return out
