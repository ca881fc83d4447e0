"""AEC lock management (manager side, Section 3.2 of the paper).

Each lock has a statically assigned manager node.  The manager keeps the
lock's waiting/virtual queues and affinity matrix (the LAP inputs), the
history of pages modified under the lock (with their last modifiers), and
the coverage of the last releaser's merged diffs.  On every *grant* it
computes the new owner's update set with LAP and records shadow predictions
for the Table 3 statistics.

History and coverage belong to one barrier step.  Lock requests and
releases carry their sender's step, and a lock's step state resets on the
first message of a newer step — a post-barrier request can reach the
manager before the manager's own barrier completion does, and a release
retransmitted over a lossy network can arrive after it.

All manager logic is non-blocking: it is called from interrupt service
routines and only mutates state / returns messages to send.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.lap.predictor import LapPredictor
from repro.core.lap.state import LockPredictionState

Predictions = Dict[str, List[int]]


@dataclass
class GrantInfo:
    """Payload of an ``aec.lock_grant`` message."""

    lock_id: int
    acquire_counter: int
    last_owner: Optional[int]
    #: acquire counter the last owner held (stamps its merged diffs)
    last_owner_counter: int
    in_update_set: bool
    #: pages to invalidate: (page, last modifier inside the lock's CS)
    invalidate: List[Tuple[int, int]]
    #: the new owner's update set for its future release
    update_set: List[int]
    #: pages the last releaser's eager push covered (only populated when
    #: ``in_update_set``); lets an acquirer whose push was lost in a faulty
    #: network recover page-by-page via ``aec.cs_diff_req`` instead of
    #: reading stale memory
    covered: List[int] = field(default_factory=list)


class ManagedLock:
    """Manager-side state of one lock."""

    def __init__(self, lock_id: int, num_procs: int) -> None:
        self.pred = LockPredictionState(lock_id, num_procs)
        #: page -> last modifier inside the lock's CS (current barrier step)
        self.history: Dict[int, int] = {}
        #: pages covered by the last releaser's merged diffs
        self.coverage: Set[int] = set()
        #: update set handed to the current holder at its grant
        self.holder_update_set: List[int] = []
        #: update set the last owner had when it released
        self.last_owner_update_set: List[int] = []
        #: acquire counter the last owner was granted with
        self.last_owner_counter: int = 0
        #: barrier step that ``history`` and ``coverage`` belong to
        self.step: int = 0

    def at_step(self, step: int) -> bool:
        """Enter barrier step ``step`` if it is newer; False for a message
        from an older step."""
        if step > self.step:
            self.step = step
            self.reset_step_state()
        return step == self.step

    def reset_step_state(self) -> None:
        """A barrier completed: lock-protected data is globally consistent
        among valid copies, so per-step diff history is obsolete.  Update
        sets are also cleared: eagerly pushed diffs do not survive barriers
        (receivers discard them), so post-barrier grants must not claim the
        acquirer was updated."""
        self.history.clear()
        self.coverage.clear()
        self.holder_update_set = []
        self.last_owner_update_set = []


class AECLockManager:
    """The lock-manager role of one node (manages locks hashed to it)."""

    def __init__(self, node_id: int, num_procs: int, predictor: LapPredictor,
                 use_lap: bool) -> None:
        self.node_id = node_id
        self.num_procs = num_procs
        self.predictor = predictor
        self.use_lap = use_lap
        self.locks: Dict[int, ManagedLock] = {}

    def lock(self, lock_id: int) -> ManagedLock:
        ml = self.locks.get(lock_id)
        if ml is None:
            ml = ManagedLock(lock_id, self.num_procs)
            self.locks[lock_id] = ml
        return ml

    def reset_step_state(self, step: int) -> None:
        """Barrier step ``step`` began (idempotent per lock)."""
        for ml in self.locks.values():
            ml.at_step(step)

    # ---- events --------------------------------------------------------------

    def request(self, lock_id: int, requester: int, step: int = 0
                ) -> Optional[Tuple[GrantInfo, Predictions]]:
        """A lock request arrived; returns a grant or queues the requester."""
        ml = self.lock(lock_id)
        ml.at_step(step)
        if ml.pred.holder is not None:
            ml.pred.waiting_queue.append(requester)
            return None
        return self._grant(ml, requester)

    def release(self, lock_id: int, releaser: int, covered_pages: List[int],
                modified_pages: List[int], step: int = 0
                ) -> Optional[Tuple[int, GrantInfo, Predictions]]:
        """Ownership given up; returns (next owner, grant, predictions) if
        someone is waiting.  A release from an older step only hands the
        token on: its history is gone from every session."""
        ml = self.lock(lock_id)
        ml.pred.record_release(releaser)
        if ml.at_step(step):
            for pg in modified_pages:
                ml.history[pg] = releaser
            ml.coverage = set(covered_pages)
        ml.last_owner_update_set = ml.holder_update_set
        ml.holder_update_set = []
        if ml.pred.waiting_queue:
            nxt = ml.pred.waiting_queue.popleft()
            grant, predictions = self._grant(ml, nxt)
            return nxt, grant, predictions
        return None

    def peer_dead(self, dead: int
                  ) -> Tuple[List[Tuple[int, GrantInfo, Predictions]],
                             int, int]:
        """Reconfigure every managed lock around a permanently dead node.

        Crash recovery (DESIGN.md §13): purge the dead node from waiting /
        virtual queues, and when it *held* a token, regenerate the token
        from manager state — treat the death as a release that reported
        nothing (its un-pushed critical-section work is lost with it, so
        its diff history and coverage must not survive either: a grant
        claiming the dead node's push covered the acquirer, or an
        invalidate list naming it as the modifier to fetch from, would
        send survivors into a void).

        Returns (grants to send to unblocked waiters, tokens regenerated,
        waiters purged).
        """
        from collections import deque

        grants: List[Tuple[int, GrantInfo, Predictions]] = []
        regenerated = 0
        purged = 0
        for lock_id, ml in sorted(self.locks.items()):
            q = ml.pred.waiting_queue
            if dead in q:
                purged += sum(1 for p in q if p == dead)
                ml.pred.waiting_queue = deque(p for p in q if p != dead)
            if dead in ml.pred.virtual_queue:
                ml.pred.virtual_queue = [p for p in ml.pred.virtual_queue
                                         if p != dead]
            for pg in [pg for pg, m in ml.history.items() if m == dead]:
                del ml.history[pg]
            if ml.pred.last_owner == dead:
                ml.last_owner_update_set = []
                ml.coverage = set()
            if ml.pred.holder == dead:
                ml.holder_update_set = []
                result = self.release(lock_id, dead, [], [], ml.step)
                # the release above re-points last_owner at the dead node;
                # scrub the same hazards it would reintroduce
                ml.coverage = set()
                ml.last_owner_update_set = []
                regenerated += 1
                if result is not None:
                    grants.append(result)
        return grants, regenerated, purged

    # ---- internals -------------------------------------------------------------

    def _grant(self, ml: ManagedLock,
               new_owner: int) -> Tuple[GrantInfo, Predictions]:
        prev_owner = ml.pred.last_owner
        in_upset = (prev_owner is not None
                    and new_owner in ml.last_owner_update_set)
        invalidate = self._invalidate_list(ml, new_owner, in_upset)
        last_owner_counter = ml.last_owner_counter
        ml.pred.record_grant(new_owner)
        ml.last_owner_counter = ml.pred.acquire_counter
        predictions = self.predictor.score(ml.pred, new_owner)
        update_set = predictions["lap"] if self.use_lap else []
        ml.holder_update_set = update_set
        grant = GrantInfo(
            lock_id=ml.pred.lock_id,
            acquire_counter=ml.pred.acquire_counter,
            last_owner=prev_owner,
            last_owner_counter=last_owner_counter,
            in_update_set=in_upset,
            invalidate=invalidate,
            update_set=update_set,
            covered=sorted(ml.coverage) if in_upset else [],
        )
        return grant, predictions

    def _invalidate_list(self, ml: ManagedLock, new_owner: int,
                         in_upset: bool) -> List[Tuple[int, int]]:
        """Pages the new owner must invalidate, with their last modifiers.

        In-update-set acquirers already receive the last releaser's merged
        diffs, so only history pages *not covered* by those diffs need
        invalidating; others get the full history.  Pages last modified by
        the new owner itself are current locally and are skipped.
        """
        out: List[Tuple[int, int]] = []
        for pg, modifier in ml.history.items():
            if modifier == new_owner:
                continue
            if in_upset and pg in ml.coverage:
                continue
            out.append((pg, modifier))
        return out
