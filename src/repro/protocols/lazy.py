"""The lazy-diff path shared by TreadMarks and AEC.

Data that no lock grant carries is kept coherent the way lazy release
consistency does it (paper §3): a writer freezes its modifications of a
page into read-only diffs stamped in a global order and announces them
with write notices only; a node that faults on the page pulls the diffs
above its per-writer floor from every writer named in its notices and
applies them in ``(stamp, writer)`` order, word stamps arbitrating.

The protocols differ only in when and how they freeze and stamp
(TreadMarks drops the twin and takes a Lamport stamp, AEC refreshes the
twin and takes an epoch-major stamp) and in how they recover from a lost
writer; keeping, serving and pulling the frozen diffs live here once.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Generator, Iterable, List

from repro.engine.events import Send
from repro.memory.diff import Diff, wire_bytes
from repro.network.message import Message
from repro.protocols.base import PageMeta, PeerLostError, ProtocolNode

#: a frozen diff's stamp, the order of ``LazyPageMeta.frozen``
_STAMP = attrgetter("acquire_counter")
#: the global apply order of pulled diffs: stamp, ties by writer
APPLY_ORDER = attrgetter("acquire_counter", "origin")


@dataclass
class LazyPageMeta(PageMeta):
    """A page's lazy-diff history at one node."""

    #: this node's own frozen diffs of the page, sorted by stamp; read-only,
    #: so replies serve the stored objects by reference
    frozen: List[Diff] = field(default_factory=list)
    #: newest stamp applied per writer: the floor of the next pull (the
    #: inherited ``word_stamps`` arbitrate per word, since diffs of
    #: different writers can arrive out of stamp order across faults)
    applied: Dict[int, int] = field(default_factory=dict)


class LazyDiffNode(ProtocolNode):
    """A protocol node that keeps, serves and pulls frozen diffs."""

    page_meta_factory = LazyPageMeta
    #: message kind of this protocol's diff request (``{"pn", "floor"}``)
    diff_req_kind: str
    #: newest stamp this node has issued or pulled: TreadMarks' Lamport
    #: clock, which stamps its intervals and diffs (AEC stamps by epoch
    #: and never reads it)
    lamport = 0

    def _commit_frozen(self, meta: LazyPageMeta, diff: Diff) -> None:
        """Keep a freshly stamped diff of our own, frozen, and stamp our
        words so that older diffs arriving later cannot overwrite them.
        Stamps only grow, so ``frozen`` stays sorted."""
        if diff.empty:
            return
        meta.frozen.append(diff.freeze())
        self.stamp_words(meta, diff.offsets, diff.acquire_counter)

    def _frozen_reply(self, msg: Message, meta: LazyPageMeta) -> Send:
        """The reply to a diff request: our frozen diffs of the page newer
        than the requester's floor, by reference."""
        frozen = meta.frozen
        diffs = frozen[bisect_right(frozen, msg.payload["floor"], key=_STAMP):]
        return Send(msg.payload["requester"],
                    self._reply(msg, {"diffs": diffs}, wire_bytes(diffs) or 4),
                    "ipc")

    def _pull_diffs(self, pn: int, meta: LazyPageMeta, writers: Iterable[int]
                    ) -> Generator:
        """Fetch every writer's frozen diffs of ``pn`` above its floor (one
        ``page.fetch`` span per writer), then apply them all in global
        order, raising the floors and the clock.

        A writer only serves diffs above the floor it was sent, so every
        diff pulled is new.
        """
        applied = meta.applied
        collected: List[Diff] = []
        for w in writers:
            span = self.span_begin("page.fetch", f"page{pn}.diffs", page=pn,
                                   writer=w)
            try:
                reply = yield from self._request(
                    w, self.diff_req_kind,
                    {"pn": pn, "floor": applied.get(w, -1)},
                    nbytes=12, category="data")
            except PeerLostError:
                # the writer was declared dead: the fetch ends here
                self.span_end(span)
                raise
            self.span_end(span)
            collected.extend(reply["diffs"])
            self.fault_stats.remote_resolutions += 1
        collected.sort(key=APPLY_ORDER)
        for diff in collected:
            yield from self.apply_diff_stamped(pn, diff)
            stamp = diff.acquire_counter
            applied[diff.origin] = stamp
            if stamp > self.lamport:
                self.lamport = stamp
