"""Per-node AEC page state and per-lock diff bookkeeping."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.diff import Diff
from repro.memory.write_notice import WriteNotice
from repro.protocols.lazy import LazyPageMeta


@dataclass
class AECPageMeta(LazyPageMeta):
    """AEC-specific coherence state of one page at one node.

    ``twin`` (inherited) tracks modifications since the last diff point.
    The twin serves *either* outside-of-CS tracking or inside-CS tracking;
    ``inside_lock`` says which.  ``frozen`` and ``applied`` (inherited)
    hold the outside-of-CS diffs: our own per-epoch diffs, each stamped
    ``(epoch, sequence)``, and the per-writer fetch floors.
    """

    #: lock whose critical section the current twin is tracking (None =
    #: the twin tracks outside-of-CS modifications)
    inside_lock: Optional[int] = None
    #: barrier step of the oldest write not yet frozen into a diff (-1 =
    #: clean); freezing stamps the diff with this epoch, so lazily created
    #: diffs spanning several steps order *conservatively* (they lose
    #: against any genuinely newer write — correct for race-free programs)
    dirty_since_step: int = -1
    #: write notices received and not yet resolved (page is invalid), in
    #: arrival order; a dict keyed by notice (values unused), so the
    #: barrier's "already pending?" test is a hash lookup, not a list scan
    pending_notices: Dict[WriteNotice, None] = field(default_factory=dict)
    #: where to fetch lock-protected history on a fault inside a CS:
    #: (lock_id, last_modifier_node)
    cs_diff_source: Optional[Tuple[int, int]] = None
    #: the local copy missed lock-protected updates distributed at a barrier
    #: and must be refetched from its home on the next fault
    needs_refetch: bool = False


@dataclass
class PendingUpdate:
    """Eagerly pushed merged diffs buffered at a predicted acquirer."""

    lock_id: int
    acquire_counter: int
    sender: int
    diffs: Dict[int, Diff]  # page -> merged diff
    #: pages already applied (valid at receipt or applied during acquire)
    applied: set = field(default_factory=set)
    #: open ``lap.window`` span handle (0 when span tracing is off)
    span: int = 0

    @property
    def unused_bytes(self) -> int:
        """Bytes of pushed diffs that were never applied here."""
        return sum(d.size_bytes for pn, d in self.diffs.items()
                   if pn not in self.applied)


@dataclass
class LockSessionState:
    """State a node keeps per lock it interacts with."""

    #: accumulated merged diff history this node holds for the lock
    diff_store: Dict[int, Diff] = field(default_factory=dict)
    #: pages modified inside the CS during the *current* holding session
    current_cs_mods: set = field(default_factory=set)
    #: pages modified inside this lock's CS during the current barrier step
    step_mods: set = field(default_factory=set)
    #: acquire counter of the grant we hold / last held
    acquire_counter: int = 0
    #: node we should lazily fetch per-page history from (grant info)
    last_owner: Optional[int] = None
    #: update set handed to us at the grant (whom we push diffs to)
    update_set: List[int] = field(default_factory=list)
    #: distinct writers seen in each page's diff history under this lock
    #: (ADSM-style variants gate eager pushes on single-writer data)
    writers: Dict[int, set] = field(default_factory=dict)
    #: we owned this lock at least once during the current barrier step
    owned_this_step: bool = False
