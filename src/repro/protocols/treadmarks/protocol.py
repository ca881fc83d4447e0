"""The TreadMarks (lazy release consistency) protocol engine."""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from repro.core.lap.predictor import LapPredictor
from repro.core.lap.state import LockPredictionState
from repro.core.lap.stats import LapStats
from repro.engine.events import Delay, Resolve, Send, Wait
from repro.engine.future import Future
from repro.memory.diff import Diff, create_diff
from repro.network.message import Message
from repro.protocols.base import PageMeta, ProtocolNode, World
from repro.protocols.treadmarks.interval import IntervalLog, IntervalRecord

_COUNTER = attrgetter("acquire_counter")


@dataclass
class TMPageMeta(PageMeta):
    """TreadMarks per-page state at one node."""

    #: unresolved write notices: (writer, interval index, stamp)
    pending: List[Tuple[int, int, int]] = field(default_factory=list)
    #: newest diff stamp applied, per writer (skip re-fetch/re-apply)
    applied: Dict[int, int] = field(default_factory=dict)
    #: frozen (lazily created) diffs we serve for this page, sorted by
    #: acquire_counter; read-only and served by reference, never copied
    frozen: List[Diff] = field(default_factory=list)
    #: twin has modifications not yet frozen into a diff
    dirty: bool = False
    #: per-word stamp of the newest applied diff (order-independent merge:
    #: lazily frozen diffs can arrive out of happens-before order across
    #: faults, so application must be max-stamp-wins per word — the order
    #: real TreadMarks' per-interval diffs enforce structurally)
    word_stamps: Optional[np.ndarray] = None


class TreadMarksNode(ProtocolNode):
    name = "tmk"
    page_meta_factory = TMPageMeta

    def __init__(self, world: World, node_id: int) -> None:
        super().__init__(world, node_id)
        P = self.machine.num_procs
        cfg = world.config
        self.lazy_hybrid = cfg.tm_lazy_hybrid
        self.vc: List[int] = [0] * P
        self.lamport = 0
        #: pages modified during the currently open interval
        self.interval_mods: Set[int] = set()
        self.log = IntervalLog(P)
        # ---- lock state
        #: locks this node currently holds
        self.tm_holding: Set[int] = set()
        #: queued successor per held/owned lock: (requester, vc, holding?)
        self.tm_successors: Dict[int, Deque[Tuple[int, List[int]]]] = {}
        #: token ownership: we are the last granted owner of these locks
        self.tm_owned: Set[int] = set()
        #: manager side: last known requester (tail of the distributed queue)
        self.tm_tail: Dict[int, Optional[int]] = {}
        self._grant_futs: Dict[int, Future] = {}
        # ---- barrier state
        self._bar_fut: Optional[Future] = None
        self._bar_arrivals: Dict[int, Tuple[List[int], List[IntervalRecord]]] = {}
        #: our vector clock as of the last records shipment to the manager
        self._mgr_seen_vc: List[int] = [0] * P
        # ---- LAP shadow statistics (ablation: LAP robustness under TM)
        self._lap_shadow: Dict[int, LockPredictionState] = {}
        self._lap_predictor = LapPredictor(cfg.update_set_size,
                                           cfg.affinity_threshold)
        if node_id == 0 and world.lap_stats is None:
            world.lap_stats = LapStats(self.sync.num_locks)
        # ---- request/reply plumbing
        self._replies: Dict[Tuple[int, int], Future] = {}
        self._req_seq = 0
        # ---- observability: open lock-hold span handles
        self._hold_spans: Dict[int, int] = {}
        self._handlers = {
            "tmk.lock_req": self._on_lock_req,
            "tmk.lock_fwd": self._on_lock_fwd,
            "tmk.lock_grant": self._on_lock_grant,
            "tmk.granted": self._on_granted,
            "tmk.notice": self._on_notice,
            "tmk.diff_req": self._on_diff_req,
            "tmk.page_req": self._on_page_req,
            "tmk.reply": self._on_reply,
            "tmk.bar_arrive": self._on_bar_arrive,
            "tmk.bar_release": self._on_bar_release,
        }

    # ------------------------------------------------------------- plumbing

    def _next_req(self) -> Tuple[int, int]:
        self._req_seq += 1
        return (self.node_id, self._req_seq)

    def _request(self, dst: int, kind: str, payload: dict, nbytes: int,
                 category: str) -> Generator:
        rid = self._next_req()
        fut = self.new_future(kind)
        self._replies[rid] = fut
        payload = dict(payload, req_id=rid, requester=self.node_id)
        yield Send(dst, Message(kind, payload, nbytes), category)
        reply = yield Wait(fut, category)
        return reply

    def _reply(self, msg: Message, payload: dict, nbytes: int) -> Message:
        return Message("tmk.reply",
                       dict(payload, req_id=msg.payload["req_id"]), nbytes)

    def _on_reply(self, msg: Message):
        fut = self._replies.pop(msg.payload["req_id"])
        yield Resolve(fut, msg.payload)

    def _bump_lamport(self, stamp: int) -> None:
        self.lamport = max(self.lamport, stamp)

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
            meta: TMPageMeta = self.page(pn)
            if meta.writable:
                meta.writable = False
                self.hw.page_protection_changed(pn)
        self.interval_mods.clear()
        self.log.add(rec)
        return rec

    def _absorb_records(self, records: List[IntervalRecord]) -> int:
        """Merge received interval records; invalidate the named pages.

        Returns the number of records that were new.
        """
        fresh = 0
        for rec in records:
            self._bump_lamport(rec.stamp)
            if not self.log.add(rec):
                continue
            fresh += 1
            self.vc[rec.writer] = max(self.vc[rec.writer], rec.index + 1)
            if rec.writer == self.node_id:
                continue
            for pn in rec.pages:
                meta: TMPageMeta = self.page(pn)
                if meta.applied.get(rec.writer, -1) >= rec.stamp:
                    continue
                # record the notice even without a local copy: the custodian
                # serving a later cold fault may itself be stale mid-interval
                meta.pending.append((rec.writer, rec.index, rec.stamp))
                if meta.valid:
                    meta.valid = False
                    meta.writable = False
                    self.hw.page_protection_changed(pn)
        return fresh

    # ---------------------------------------------------------------- faults

    def handle_read_fault(self, pn: int) -> Generator:
        yield from self._make_valid(pn)

    def handle_write_fault(self, pn: int) -> Generator:
        meta: TMPageMeta = self.page(pn)
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
        meta: TMPageMeta = self.page(pn)
        if not self.store.has(pn):
            # cold: fetch the page from its custodian (node 0 hosts the
            # initial copy of every page, as in centrally-initialized
            # SPLASH-2 runs)
            if self.node_id == 0:
                self.store.ensure(pn)
            else:
                fetch_span = self.span_begin("page.fetch", f"page{pn}.fetch",
                                             page=pn, home=0)
                reply = yield from self._request(
                    0, "tmk.page_req", {"pn": pn},
                    nbytes=8, category="data")
                self.span_end(fetch_span)
                self.store.ensure(pn, reply["content"])
                self.hw.page_updated(self.page_addr(pn), self.page_words())
                checker = self.world.checker
                if checker.enabled:
                    checker.note_transfer("page", dst=self.node_id, page=pn,
                                          origin=0, time=self.now())
                for w, stamp in reply["applied"].items():
                    if stamp > meta.applied.get(w, -1):
                        meta.applied[w] = stamp
                if reply["word_stamps"] is not None:
                    meta.word_stamps = reply["word_stamps"].copy()
                for notice in reply["pending"]:
                    if notice not in meta.pending:
                        meta.pending.append(notice)
                self.fault_stats.remote_resolutions += 1
        # fetch diffs from every writer with unresolved notices
        writers = sorted({w for (w, _i, _s) in meta.pending
                          if w != self.node_id})
        collected: List[Diff] = []
        for w in writers:
            floor = meta.applied.get(w, -1)
            reply = yield from self._request(
                w, "tmk.diff_req", {"pn": pn, "floor": floor},
                nbytes=12, category="data")
            collected.extend(reply["diffs"])
            self.fault_stats.remote_resolutions += 1
        # apply in global stamp order (lazy-release-consistent merge)
        collected.sort(key=lambda d: (d.acquire_counter, d.origin))
        for diff in collected:
            if diff.acquire_counter <= meta.applied.get(diff.origin, -1):
                continue
            yield from self._apply_diff_stamped(pn, diff)
            meta.applied[diff.origin] = diff.acquire_counter
            self._bump_lamport(diff.acquire_counter)
        meta.pending.clear()
        meta.valid = True
        meta.ever_valid = True

    def _word_stamps(self, meta: TMPageMeta) -> np.ndarray:
        if meta.word_stamps is None:
            meta.word_stamps = np.full(self.page_words(), -1, dtype=np.int64)
        return meta.word_stamps

    def _apply_diff_stamped(self, pn: int, diff: Diff) -> Generator:
        """Apply a diff with per-word max-stamp-wins semantics."""
        meta: TMPageMeta = self.page(pn)
        page = self.store.page(pn)
        offsets = diff.offsets
        cycles = self.machine.diff_apply_cycles(max(len(offsets), 1))
        yield Delay(cycles, "data")
        stamps = self._word_stamps(meta)
        counter = diff.acquire_counter
        twin = meta.twin
        # never clobber unfrozen local writes: they were never served to
        # anyone, so no remote diff can legitimately supersede them
        guard = twin is not None and meta.dirty
        if len(offsets) == 1:
            # scalar path: most diffs are a single word
            off = offsets[0]
            updated = counter > stamps[off] and (
                not guard or page[off] == twin[off])
            if updated:
                value = diff.values[0]
                page[off] = value
                stamps[off] = counter
                if twin is not None:
                    twin[off] = value
        else:
            mask = counter > stamps[offsets]
            if guard:
                mask &= page[offsets] == twin[offsets]
            offs = offsets[mask]
            updated = len(offs) > 0
            if updated:
                values = diff.values[mask]
                page[offs] = values
                stamps[offs] = counter
                if twin is not None:
                    twin[offs] = values
        if updated:
            self.hw.page_updated(self.page_addr(pn), self.page_words())
        checker = self.world.checker
        if checker.enabled:
            checker.note_transfer("diff", dst=self.node_id, page=pn,
                                  origin=diff.origin, time=self.now())
        self.world.diff_stats.record_apply(cycles, 0.0)

    # ------------------------------------------------------- diff servicing

    def _freeze_page_diff(self, pn: int, category: str) -> Generator:
        """Lazily create the diff for our unfrozen modifications of ``pn``.

        The diff is encoded once, before the creation ``Delay``: only this
        node's application writes the page, and it cannot run during the
        delay (either it is the one paying it, or it waits while an ISR
        runs), so the page cannot change in between.  A frozen diff is
        immutable — its arrays are made read-only — because replies and
        lazy-hybrid grants share it by reference instead of copying it.
        """
        meta: TMPageMeta = self.page(pn)
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
        diff.offsets.flags.writeable = False
        diff.values.flags.writeable = False
        # TreadMarks exposes diff creation: nothing is hidden
        self.world.diff_stats.record_create(diff.size_bytes, cycles, 0.0)
        if not diff.empty:
            # stamps come from a fresh ++lamport and Lamport time never
            # decreases, so ``frozen`` stays sorted by acquire_counter
            meta.frozen.append(diff)
            # stamp our own words: a stale remote diff arriving later must
            # not overwrite what we just froze
            stamps = self._word_stamps(meta)
            stamps[diff.offsets] = np.maximum(stamps[diff.offsets],
                                              diff.acquire_counter)
        # the twin is discarded and the page write-protected; the next local
        # write re-twins (standard TreadMarks behaviour after a diff)
        meta.twin = None
        meta.dirty = False
        if meta.writable:
            meta.writable = False
            self.hw.page_protection_changed(pn)

    def _on_diff_req(self, msg: Message):
        pn = msg.payload["pn"]
        floor = msg.payload["floor"]
        meta: TMPageMeta = self.page(pn)
        yield from self._freeze_page_diff(pn, "ipc")
        frozen = meta.frozen
        diffs = frozen[bisect_right(frozen, floor, key=_COUNTER):]
        nbytes = sum(d.size_bytes + 8 for d in diffs) or 4
        yield Delay(self.machine.list_cycles(max(len(diffs), 1)), "ipc")
        yield Send(msg.payload["requester"],
                   self._reply(msg, {"diffs": diffs}, nbytes), "ipc")

    def _on_page_req(self, msg: Message):
        pn = msg.payload["pn"]
        if not self.store.has(pn):
            raise RuntimeError(f"custodian lacks page {pn}")
        meta: TMPageMeta = self.page(pn)
        content = self.store.page(pn).copy()
        yield Delay(self.machine.mem_access_cycles(self.page_words()), "ipc")
        stamps = None if meta.word_stamps is None else meta.word_stamps.copy()
        yield Send(msg.payload["requester"],
                   self._reply(msg, {
                       "content": content,
                       "applied": dict(meta.applied),
                       "pending": list(meta.pending),
                       "word_stamps": stamps,
                   }, self.machine.page_bytes + 8 * len(meta.pending)),
                   "ipc")

    # ------------------------------------------------------------------ locks

    def acquire_notice(self, lock_id: int) -> Generator:
        """LAP is not part of TreadMarks; notices only feed the shadow
        statistics kept for the robustness ablation."""
        mgr = self.sync.lock_manager(lock_id)
        yield Send(mgr, Message("tmk.notice",
                                {"lock": lock_id, "proc": self.node_id}, 4),
                   "busy")

    def acquire(self, lock_id: int) -> Generator:
        mgr = self.sync.lock_manager(lock_id)
        fut = self.new_future(f"tmgrant{lock_id}")
        self._grant_futs[lock_id] = fut
        wait_span = self.span_begin("lock.wait", f"lock{lock_id}.wait",
                                    lock=lock_id)
        yield Send(mgr, Message("tmk.lock_req",
                                {"lock": lock_id, "requester": self.node_id,
                                 "vc": list(self.vc)}, 4 + 4 * len(self.vc)),
                   "synch")
        grant = yield Wait(fut, "synch")
        self._grant_futs.pop(lock_id, None)
        records: List[IntervalRecord] = grant["records"]
        if records:
            yield Delay(self.machine.list_cycles(
                sum(r.element_count for r in records)), "synch")
        self._absorb_records(records)
        for w, v in enumerate(grant["vc"]):
            self.vc[w] = max(self.vc[w], v)
        # Lazy Hybrid: apply the piggybacked diffs to *invalidated* pages
        # and revalidate those whose pending notices they fully cover
        # (saving the fault + fetch); valid pages are current already, and
        # touching them would risk replaying stale cached data over words
        # whose stamps we cannot compare
        for diff in sorted(grant.get("diffs", ()),
                           key=lambda d: (d.acquire_counter, d.origin)):
            pn = diff.page_number
            meta: TMPageMeta = self.page(pn)
            if meta.valid or not self.store.has(pn):
                continue
            if diff.acquire_counter <= meta.applied.get(diff.origin, -1):
                continue
            yield from self._apply_diff_stamped(pn, diff)
            meta.applied[diff.origin] = diff.acquire_counter
            self._bump_lamport(diff.acquire_counter)
        if grant.get("diffs"):
            for diff in grant["diffs"]:
                meta = self.page(diff.page_number)
                if meta.valid or not self.store.has(diff.page_number):
                    continue
                if all(s <= meta.applied.get(w, -1)
                       for (w, _i, s) in meta.pending):
                    meta.pending.clear()
                    meta.valid = True
        self.span_end(wait_span, lock=lock_id)
        self._hold_spans[lock_id] = self.span_begin(
            "lock.hold", f"lock{lock_id}.hold", lock=lock_id)
        self.tm_holding.add(lock_id)
        self.tm_owned.add(lock_id)
        self.locks_held.add(lock_id)

    def release(self, lock_id: int) -> Generator:
        if lock_id not in self.tm_holding:
            raise RuntimeError(f"node {self.node_id}: release of unheld lock")
        self.span_end(self._hold_spans.pop(lock_id, 0))
        self.tm_holding.discard(lock_id)
        self.locks_held.discard(lock_id)
        queue = self.tm_successors.get(lock_id)
        if queue:
            requester, req_vc = queue.popleft()
            yield from self._grant_lock(lock_id, requester, req_vc, "synch")

    def _grant_lock(self, lock_id: int, requester: int, req_vc: List[int],
                    category: str) -> Generator:
        """Close our interval and hand the lock token to ``requester``."""
        self._close_interval()
        records = self.log.newer_than(req_vc)
        nbytes = 4 * (2 + len(self.vc)) + 4 * sum(
            r.element_count for r in records)
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
                meta = self.page(pn)
                if meta.dirty:
                    yield from self._freeze_page_diff(pn, category)
                piggyback.extend(meta.frozen)
            nbytes += sum(d.size_bytes + 8 for d in piggyback)
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

    def _shadow(self, lock_id: int) -> LockPredictionState:
        st = self._lap_shadow.get(lock_id)
        if st is None:
            st = LockPredictionState(lock_id, self.machine.num_procs)
            self._lap_shadow[lock_id] = st
        return st

    def _on_lock_req(self, msg: Message):
        lock_id = msg.payload["lock"]
        requester = msg.payload["requester"]
        yield Delay(self.machine.list_cycles(2), "ipc")
        tail = self.tm_tail.get(lock_id)
        self.tm_tail[lock_id] = requester
        shadow = self._shadow(lock_id)
        shadow.waiting_queue.append(requester)
        if tail is None:
            # first acquire ever: the manager grants an empty token
            self._record_shadow_grant(lock_id, requester)
            self.world.count_acquire(lock_id)
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
        if lock_id in self.tm_holding or not self._lock_idle(lock_id):
            self.tm_successors.setdefault(lock_id, deque()).append(
                (requester, req_vc))
        else:
            yield from self._grant_lock(lock_id, requester, req_vc, "ipc")

    def _lock_idle(self, lock_id: int) -> bool:
        """True when we hold the token and are not in the critical section."""
        return lock_id in self.tm_owned

    def _on_lock_grant(self, msg: Message):
        lock_id = msg.payload["lock"]
        fut = self._grant_futs.get(lock_id)
        if fut is None:
            raise RuntimeError(f"unexpected TM grant for lock {lock_id}")
        yield Resolve(fut, msg.payload)

    def _on_granted(self, msg: Message):
        """Manager-side bookkeeping when a token moves (LAP shadow stats)."""
        lock_id = msg.payload["lock"]
        new_owner = msg.payload["to"]
        yield Delay(self.machine.list_cycles(1), "ipc")
        self.world.count_acquire(lock_id)
        self._record_shadow_grant(lock_id, new_owner)

    def _on_notice(self, msg: Message):
        self._shadow(msg.payload["lock"]).add_notice(msg.payload["proc"])
        yield Delay(self.machine.list_cycles(1), "ipc")

    def _record_shadow_grant(self, lock_id: int, new_owner: int) -> None:
        shadow = self._shadow(lock_id)
        if shadow.holder is not None:
            # TM managers never see releases; a new grant implies one
            shadow.record_release(shadow.holder)
        prev_owner = shadow.last_owner
        try:
            shadow.waiting_queue.remove(new_owner)
        except ValueError:
            pass
        shadow.record_grant(new_owner)
        if self.world.lap_stats is not None:
            predictions = {
                "lap": self._lap_predictor.predict(shadow, new_owner),
                "waitq": self._lap_predictor.predict_waitq(shadow, new_owner),
                "waitq_affinity": self._lap_predictor.predict_waitq_affinity(
                    shadow, new_owner),
                "waitq_virtualq": self._lap_predictor.predict_waitq_virtualq(
                    shadow, new_owner),
            }
            self.world.lap_stats.record_grant(lock_id, new_owner, prev_owner,
                                              predictions)

    # ---------------------------------------------------------------- barriers

    def barrier(self, barrier_id: int) -> Generator:
        if self.tm_holding:
            raise RuntimeError(
                f"node {self.node_id}: barrier while holding {self.tm_holding}")
        self._close_interval()
        fut = self.new_future(f"tmbar{barrier_id}")
        self._bar_fut = fut
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
        n = sum(r.element_count for r in own) + len(self.vc)
        yield Delay(self.machine.list_cycles(max(n, 1)), "synch")
        bar_span = self.span_begin("barrier", f"barrier{barrier_id}",
                                   barrier=barrier_id)
        yield Send(mgr, Message("tmk.bar_arrive", payload, 4 * max(n, 1)),
                   "synch")
        reply = yield Wait(fut, "synch")
        self._bar_fut = None
        self.span_end(bar_span)
        records = reply["records"]
        if records:
            yield Delay(self.machine.list_cycles(
                sum(r.element_count for r in records)), "synch")
        self._absorb_records(records)
        for w, v in enumerate(reply["vc"]):
            self.vc[w] = max(self.vc[w], v)

    def _on_bar_arrive(self, msg: Message):
        p = msg.payload
        node, vc, records = p["node"], p["vc"], p["records"]
        yield Delay(self.machine.list_cycles(
            max(sum(r.element_count for r in records) + len(vc), 1)), "ipc")
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
            n = sum(r.element_count for r in records_i) + len(merged_vc)
            yield Send(node_i, Message("tmk.bar_release", {
                "records": records_i, "vc": merged_vc,
            }, 4 * max(n, 1)), "ipc")

    def _on_bar_release(self, msg: Message):
        fut = self._bar_fut
        if fut is None:
            raise RuntimeError(
                f"node {self.node_id}: bar_release outside a barrier")
        yield Resolve(fut, msg.payload)
