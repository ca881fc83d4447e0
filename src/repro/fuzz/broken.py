"""A deliberately broken AEC variant used as fuzzing ground truth.

The fuzz campaign needs a protocol that is *known* to violate lazy release
consistency so the checker/oracle/shrinker pipeline can be validated
end to end: if a campaign over ``aec-broken`` reports everything clean,
the campaign is broken, not the protocol.  The defect is the one studied
by the PR-3 checker tests — a single post-grant diff apply silently
skipped — chosen because that apply path has no fault-time healing, so
the loss must surface as a stale read in a later critical section.
"""
from __future__ import annotations

from repro.core.aec.protocol import AECNode

#: registry key for the broken variant
BROKEN_PROTOCOL = "aec-broken"


class BrokenAECNode(AECNode):
    """AEC with one post-grant diff apply silently skipped.

    The skipped apply is the in-update-set diff applied right after a lock
    grant (category ``synch`` with the lock already held) — the only apply
    path with no fault-time healing, so its loss MUST surface as a stale
    read inside the next critical section.
    """

    name = BROKEN_PROTOCOL

    def __init__(self, world, node_id):
        super().__init__(world, node_id)
        world.broken_skips = getattr(world, "broken_skips", [])

    def _apply_cs_diff(self, pn, diff, category, hidden_behind=None):
        if (not self.world.broken_skips and diff.nwords
                and category == "synch" and self.locks_held):
            self.world.broken_skips.append((self.node_id, pn))
            return
        yield from super()._apply_cs_diff(pn, diff, category, hidden_behind)

