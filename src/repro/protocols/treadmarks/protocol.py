"""The TreadMarks (lazy release consistency) protocol engine."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.engine.events import Delay, Send
from repro.memory.diff import Diff, create_diff, wire_bytes
from repro.network.message import Message
from repro.protocols.base import World
from repro.protocols.lazy import APPLY_ORDER, LazyDiffNode, LazyPageMeta
from repro.protocols.treadmarks.interval import (IntervalLog, IntervalRecord,
                                                batch_element_count)

_WRITER = itemgetter(0)


@dataclass
class TMPageMeta(LazyPageMeta):
    """TreadMarks per-page state at one node (``frozen`` and ``applied``
    are the lazily created diffs; ``word_stamps`` make their merge
    order-independent, the order real TreadMarks' per-interval diffs
    enforce structurally)."""

    #: unresolved write notices: (writer, interval index, stamp)
    pending: List[Tuple[int, int, int]] = field(default_factory=list)
    #: twin has modifications not yet frozen into a diff
    dirty: bool = False


class TreadMarksNode(LazyDiffNode):
    name = "tmk"
    page_meta_factory = TMPageMeta
    reply_kind = "tmk.reply"
    diff_req_kind = "tmk.diff_req"
    #: LAP is not part of TreadMarks: notices and grants only feed the
    #: shadow statistics kept for the robustness ablation
    notice_kind = "tmk.notice"
    #: piggyback the granter's own diffs on lock grants (see LazyHybridNode)
    lazy_hybrid = False

    def __init__(self, world: World, node_id: int) -> None:
        super().__init__(world, node_id)
        P = self.machine.num_procs
        self.vc: List[int] = [0] * P
        #: pages modified during the currently open interval
        self.interval_mods: Set[int] = set()
        self.log = IntervalLog(P)
        # ---- lock state
        #: queued successor per held/owned lock: (requester, vc, holding?)
        self.tm_successors: Dict[int, Deque[Tuple[int, List[int]]]] = {}
        #: token ownership: we are the last granted owner of these locks
        self.tm_owned: Set[int] = set()
        #: manager side: last known requester (tail of the distributed queue)
        self.tm_tail: Dict[int, Optional[int]] = {}
        # ---- barrier state
        self._bar_arrivals: Dict[int, Tuple[List[int], List[IntervalRecord]]] = {}
        #: our vector clock as of the last records shipment to the manager
        self._mgr_seen_vc: List[int] = [0] * P
        self._lap_predictor = self._make_predictor()
        self._handlers.update({
            "tmk.lock_req": self._on_lock_req,
            "tmk.lock_fwd": self._on_lock_fwd,
            "tmk.lock_grant": self._on_lock_grant,
            "tmk.granted": self._on_granted,
            "tmk.notice": self._on_notice,
            "tmk.diff_req": self._on_diff_req,
            "tmk.page_req": self._on_page_req,
            self.reply_kind: self._on_reply,
            "tmk.bar_arrive": self._on_bar_arrive,
            "tmk.bar_release": self._on_bar_release,
        })

    # ------------------------------------------------------------ intervals

    def _close_interval(self) -> Optional[IntervalRecord]:
        """Close the open interval if it modified anything; log the record."""
        if not self.interval_mods:
            return None
        self.lamport += 1
        rec = IntervalRecord(self.node_id, self.vc[self.node_id],
                             self.lamport, tuple(sorted(self.interval_mods)))
        self.vc[self.node_id] += 1
        # write-protect the modified pages: writes in the *next* interval
        # must fault again so they are attributed to that interval's notices
        for pn in self.interval_mods:
            self.write_protect(pn)
        self.interval_mods.clear()
        self.log.add(rec)
        return rec

    def _absorb_records(self, records: List[IntervalRecord]) -> int:
        """Merge received interval records; invalidate the named pages.

        Returns the number of records that were new.
        """
        fresh = 0
        pages = self.pages
        for rec in records:
            if rec.stamp > self.lamport:
                self.lamport = rec.stamp
            if not self.log.add(rec):
                continue
            fresh += 1
            self.vc[rec.writer] = max(self.vc[rec.writer], rec.index + 1)
            if rec.writer == self.node_id:
                continue
            for pn in rec.pages:
                meta: TMPageMeta = pages[pn]
                if meta.applied.get(rec.writer, -1) >= rec.stamp:
                    continue
                # record the notice even without a local copy: the custodian
                # serving a later cold fault may itself be stale mid-interval
                meta.pending.append((rec.writer, rec.index, rec.stamp))
                if meta.valid:
                    self.invalidate(pn)
        return fresh

    # ---------------------------------------------------------------- faults

    def handle_read_fault(self, pn: int) -> Generator:
        return self._make_valid(pn)

    def handle_write_fault(self, pn: int) -> Generator:
        meta: TMPageMeta = self.pages[pn]
        while not meta.valid:
            # _make_valid revalidates; an invalidation racing the twin copy
            # below re-clears the flag and the caller's write loop refaults
            yield from self._make_valid(pn)
        if meta.twin is None:
            yield from self.make_twin(pn, "data")
        meta.dirty = True
        self.interval_mods.add(pn)
        meta.writable = True
        self.hw.page_protection_changed(pn)

    def _make_valid(self, pn: int) -> Generator:
        meta: TMPageMeta = self.pages[pn]
        if not self.store.has(pn):
            # cold: fetch the page from its custodian (node 0 hosts the
            # initial copy of every page, as in centrally-initialized
            # SPLASH-2 runs)
            if self.node_id == 0:
                self.store.ensure(pn)
            else:
                reply = yield from self.fetch_page(pn, 0, "tmk.page_req")
                for w, stamp in reply["applied"].items():
                    if stamp > meta.applied.get(w, -1):
                        meta.applied[w] = stamp
                for notice in reply["pending"]:
                    if notice not in meta.pending:
                        meta.pending.append(notice)
                self.fault_stats.remote_resolutions += 1
        # pull the diffs of every writer with unresolved notices
        writers = set(map(_WRITER, meta.pending))
        writers.discard(self.node_id)
        yield from self._pull_diffs(pn, meta, sorted(writers))
        meta.pending.clear()
        meta.valid = True
        meta.ever_valid = True

    def _twin_guards(self, pn: int, meta: TMPageMeta, stamp: int) -> bool:
        # unfrozen local writes were never served to anyone, so no remote
        # diff can legitimately supersede them
        return meta.dirty

    # ------------------------------------------------------- diff servicing

    def _freeze_page_diff(self, pn: int, category: str) -> Generator:
        """Lazily create the diff for our unfrozen modifications of ``pn``.

        The diff is encoded once, before the creation ``Delay``: only this
        node's application writes the page, and it cannot run during the
        delay (either it is the one paying it, or it waits while an ISR
        runs), so the page cannot change in between.  Replies and
        lazy-hybrid grants share the committed diff by reference.
        """
        meta: TMPageMeta = self.pages[pn]
        if not meta.dirty or meta.twin is None:
            return
        diff = create_diff(pn, meta.twin, self.store.page(pn),
                           origin=self.node_id)
        cycles = self.machine.diff_create_cycles(diff.nwords)
        yield Delay(cycles, category)
        if meta.twin is None:
            # a diff request's ISR froze the page during our delay
            return
        self.lamport += 1
        diff.acquire_counter = self.lamport
        # TreadMarks exposes diff creation: nothing is hidden
        self.world.diff_stats.record_create(diff.size_bytes, cycles, 0.0)
        self._commit_frozen(meta, diff)
        # the twin is discarded and the page write-protected; the next local
        # write re-twins (standard TreadMarks behaviour after a diff)
        meta.twin = None
        meta.dirty = False
        self.write_protect(pn)

    def _on_diff_req(self, msg: Message):
        pn = msg.payload["pn"]
        meta: TMPageMeta = self.pages[pn]
        if meta.dirty:
            # unfrozen modifications: freeze them first, in the ISR (the
            # only case that needs a generator frame)
            return self._freeze_and_serve(msg, pn, meta)
        return self._diff_reply(msg, meta)

    def _freeze_and_serve(self, msg: Message, pn: int,
                          meta: TMPageMeta) -> Generator:
        yield from self._freeze_page_diff(pn, "ipc")
        yield from self._diff_reply(msg, meta)

    def _diff_reply(self, msg: Message, meta: TMPageMeta
                    ) -> Tuple[Delay, Send]:
        """The list-walk delay and the reply of a diff request."""
        reply = self._frozen_reply(msg, meta)
        ndiffs = len(reply.message.payload["diffs"])
        return (Delay(self.machine.list_cycles(max(ndiffs, 1)), "ipc"),
                reply)

    def _on_page_req(self, msg: Message) -> Tuple[Delay, Send]:
        pn = msg.payload["pn"]
        meta: TMPageMeta = self.pages[pn]
        return self._page_reply(msg, pn, {"applied": dict(meta.applied),
                                          "pending": list(meta.pending)},
                                len(meta.pending))

    # ------------------------------------------------------------------ locks

    def acquire(self, lock_id: int) -> Generator:
        grant, wait_span = yield from self._wait_grant(
            lock_id, self.sync.lock_manager(lock_id),
            Message("tmk.lock_req", {"lock": lock_id,
                                     "requester": self.node_id,
                                     "vc": list(self.vc)},
                    4 + 4 * len(self.vc)))
        records: List[IntervalRecord] = grant["records"]
        if records:
            yield Delay(self.machine.list_cycles(
                batch_element_count(records)), "synch")
        self._absorb_records(records)
        for w, v in enumerate(grant["vc"]):
            self.vc[w] = max(self.vc[w], v)
        # Lazy Hybrid: apply the piggybacked diffs to *invalidated* pages
        # and revalidate those whose pending notices they fully cover
        # (saving the fault + fetch); valid pages are current already, and
        # touching them would risk replaying stale cached data over words
        # whose stamps we cannot compare
        for diff in sorted(grant.get("diffs", ()), key=APPLY_ORDER):
            pn = diff.page_number
            meta: TMPageMeta = self.pages[pn]
            if meta.valid or not self.store.has(pn):
                continue
            if diff.acquire_counter <= meta.applied.get(diff.origin, -1):
                continue
            yield from self.apply_diff_stamped(pn, diff)
            meta.applied[diff.origin] = diff.acquire_counter
            if diff.acquire_counter > self.lamport:
                self.lamport = diff.acquire_counter
        if grant.get("diffs"):
            for diff in grant["diffs"]:
                meta = self.pages[diff.page_number]
                if meta.valid or not self.store.has(diff.page_number):
                    continue
                if all(s <= meta.applied.get(w, -1)
                       for (w, _i, s) in meta.pending):
                    meta.pending.clear()
                    meta.valid = True
        self._begin_hold(lock_id, wait_span)
        self.tm_owned.add(lock_id)

    def release(self, lock_id: int) -> Generator:
        if lock_id not in self.locks_held:
            raise RuntimeError(f"node {self.node_id}: release of unheld lock")
        self._end_hold(lock_id)
        queue = self.tm_successors.get(lock_id)
        if queue:
            requester, req_vc = queue.popleft()
            yield from self._grant_lock(lock_id, requester, req_vc, "synch")

    def _grant_lock(self, lock_id: int, requester: int, req_vc: List[int],
                    category: str) -> Generator:
        """Close our interval and hand the lock token to ``requester``."""
        self._close_interval()
        records = self.log.newer_than(req_vc)
        nbytes = 4 * (2 + len(self.vc)) + 4 * batch_element_count(records)
        yield Delay(self.machine.list_cycles(max(len(records), 1)), category)
        piggyback: List[Diff] = []
        if self.lazy_hybrid:
            # Lazy Hybrid (Dwarkadas et al.): piggyback our *own* frozen
            # diffs for the pages we are sending write notices about.  Our
            # frozen list is complete by construction, so the acquirer may
            # soundly advance its per-writer fetch floor — piggybacking
            # cached third-party diffs would advance floors over gaps and
            # corrupt later fetches.
            pages: Set[int] = set()
            for rec in records:
                if rec.writer == self.node_id:
                    pages.update(rec.pages)
            for pn in sorted(pages):
                meta = self.pages[pn]
                if meta.dirty:
                    yield from self._freeze_page_diff(pn, category)
                piggyback.extend(meta.frozen)
            nbytes += wire_bytes(piggyback)
        yield Send(requester, Message("tmk.lock_grant", {
            "lock": lock_id,
            "records": records,
            "vc": list(self.vc),
            "diffs": piggyback,
        }, nbytes), category)
        self.tm_owned.discard(lock_id)
        # async: tell the manager who owns the token now (statistics + LAP
        # shadow bookkeeping; routing uses the distributed queue, not this)
        yield Send(self.sync.lock_manager(lock_id), Message("tmk.granted", {
            "lock": lock_id, "from": self.node_id, "to": requester,
        }, 8), category)

    # ---- manager role

    def _on_lock_req(self, msg: Message):
        lock_id = msg.payload["lock"]
        requester = msg.payload["requester"]
        yield Delay(self.machine.list_cycles(2), "ipc")
        tail = self.tm_tail.get(lock_id)
        self.tm_tail[lock_id] = requester
        shadow = self.lap_state(lock_id)
        shadow.waiting_queue.append(requester)
        if tail is None:
            # first acquire ever: the manager grants an empty token
            self._record_shadow_grant(lock_id, requester)
            yield Send(requester, Message("tmk.lock_grant", {
                "lock": lock_id, "records": [], "vc": [0] * len(self.vc),
            }, 8), "ipc")
        else:
            yield Send(tail, Message("tmk.lock_fwd", {
                "lock": lock_id, "requester": requester,
                "vc": msg.payload["vc"],
            }, 8 + 4 * len(self.vc)), "ipc")

    def _on_lock_fwd(self, msg: Message):
        lock_id = msg.payload["lock"]
        requester = msg.payload["requester"]
        req_vc = msg.payload["vc"]
        yield Delay(self.machine.list_cycles(1), "ipc")
        if lock_id in self.locks_held or lock_id not in self.tm_owned:
            # busy, or the token is still on its way to us
            self.tm_successors.setdefault(lock_id, deque()).append(
                (requester, req_vc))
        else:
            yield from self._grant_lock(lock_id, requester, req_vc, "ipc")

    def _on_granted(self, msg: Message):
        """Manager-side bookkeeping when a token moves (LAP shadow stats)."""
        lock_id = msg.payload["lock"]
        new_owner = msg.payload["to"]
        yield Delay(self.machine.list_cycles(1), "ipc")
        self._record_shadow_grant(lock_id, new_owner)

    def _record_shadow_grant(self, lock_id: int, new_owner: int) -> None:
        shadow = self.lap_state(lock_id)
        if shadow.holder is not None:
            # TM managers never see releases; a new grant implies one
            shadow.record_release(shadow.holder)
        prev_owner = shadow.last_owner
        try:
            shadow.waiting_queue.remove(new_owner)
        except ValueError:
            pass
        shadow.record_grant(new_owner)
        self._score_grant(lock_id, new_owner, prev_owner,
                          self._lap_predictor.score(shadow, new_owner))

    # ---------------------------------------------------------------- barriers

    def barrier(self, barrier_id: int) -> Generator:
        if self.locks_held:
            raise RuntimeError(
                f"node {self.node_id}: barrier while holding {self.locks_held}")
        self._close_interval()
        mgr = self.sync.barrier_manager(barrier_id)
        # ship the manager our own intervals closed since the last barrier
        # (every record reaches the manager through its writer)
        own = [] if self.node_id == mgr else [
            r for r in self.log.newer_than(self._mgr_seen_vc)
            if r.writer == self.node_id
        ]
        self._mgr_seen_vc = list(self.vc)
        payload = {"node": self.node_id, "vc": list(self.vc),
                   "records": own}
        n = batch_element_count(own) + len(self.vc)
        yield Delay(self.machine.list_cycles(max(n, 1)), "synch")
        reply, bar_span = yield from self._wait_barrier(
            mgr, Message("tmk.bar_arrive", payload, 4 * max(n, 1)),
            f"barrier{barrier_id}", barrier=barrier_id)
        self.span_end(bar_span)
        records = reply["records"]
        if records:
            yield Delay(self.machine.list_cycles(
                batch_element_count(records)), "synch")
        self._absorb_records(records)
        for w, v in enumerate(reply["vc"]):
            self.vc[w] = max(self.vc[w], v)

    def _on_bar_arrive(self, msg: Message):
        p = msg.payload
        node, vc, records = p["node"], p["vc"], p["records"]
        yield Delay(self.machine.list_cycles(
            max(batch_element_count(records) + len(vc), 1)), "ipc")
        self._bar_arrivals[node] = (vc, records)
        if len(self._bar_arrivals) < self.machine.num_procs:
            return
        # everyone arrived: merge and broadcast tailored notice sets
        for _node, (_vc, recs) in sorted(self._bar_arrivals.items()):
            self._absorb_records(recs)
        merged_vc = list(self.vc)
        for _node, (vc_i, _recs) in self._bar_arrivals.items():
            for w, v in enumerate(vc_i):
                merged_vc[w] = max(merged_vc[w], v)
        self.world.note_barrier_complete()
        arrivals = dict(self._bar_arrivals)
        self._bar_arrivals = {}
        for node_i, (vc_i, _recs) in sorted(arrivals.items()):
            records_i = self.log.newer_than(vc_i)
            n = batch_element_count(records_i) + len(merged_vc)
            yield Send(node_i, Message("tmk.bar_release", {
                "records": records_i, "vc": merged_vc,
            }, 4 * max(n, 1)), "ipc")


class LazyHybridNode(TreadMarksNode):
    """TreadMarks with the Lazy Hybrid protocol of Dwarkadas et al. (the
    paper's related work): lock grants piggyback the granter's own diffs
    for the pages they carry write notices about."""

    name = "tmk-lh"
    lazy_hybrid = True
