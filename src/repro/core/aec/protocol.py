"""The Affinity Entry Consistency protocol engine (Section 3 of the paper).

One ``AECNode`` per simulated processor.  Program-side operations
(``acquire``/``release``/``barrier``/faults) are generators driven by the
node's program task; manager roles (lock managers, the barrier manager on
node 0) and all servicing run in interrupt service routines.

Key protocol behaviours implemented here, in the paper's terms:

* lock acquirers overlap applying buffered update-set diffs and creating
  outside-of-CS diffs with the wait for the manager's reply (Section 3.2);
* lock releasers create diffs of pages modified inside the critical section,
  merge them with the diffs received from the last owner, and eagerly push
  the merged diffs to their LAP-predicted update set;
* barrier-protected (outside-of-CS) data is kept coherent with write notices
  and on-demand diff fetches; diff creation at barriers is overlapped with
  the barrier wait and filtered to pages other processors actually use;
* every page has a home node (reassigned each barrier step) that helps
  processors without a valid copy reconstruct pages on access faults.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from repro.core.aec.barrier_manager import (AECBarrierManager, ArrivalInfo,
                                            BarrierInstructions)
from repro.core.aec.lock_manager import AECLockManager, GrantInfo
from repro.core.aec.state import AECPageMeta, LockSessionState, PendingUpdate
from repro.core.lap.state import LockPredictionState
from repro.engine.events import Delay, Resolve, Send, Wait
from repro.engine.future import Future
from repro.memory.diff import Diff, merge_diffs, wire_bytes
from repro.memory.write_notice import WriteNotice
from repro.network.message import Message
from repro.protocols.base import PeerLostError, World
from repro.protocols.lazy import LazyDiffNode
from repro.recovery.aec import AECReconfiguration

#: how long an acquirer waits for an eagerly-pushed update set (faulty
#: network only) before degrading to a LAP miss and fetching on demand
UPSET_WAIT_TIMEOUT_CYCLES = 100_000


class AECNode(AECReconfiguration, LazyDiffNode):
    name = "aec"
    page_meta_factory = AECPageMeta
    reply_kind = "aec.reply"
    diff_req_kind = "aec.wn_diff_req"
    notice_kind = "aec.notice"
    #: releasers push merged diffs to their LAP-predicted update set
    use_lap = True

    def __init__(self, world: World, node_id: int) -> None:
        super().__init__(world, node_id)
        self.lock_mgr = AECLockManager(node_id, self.machine.num_procs,
                                       self._make_predictor(),
                                       self.use_lap)
        self.bar_mgr = (AECBarrierManager(self.machine.num_procs,
                                          self.layout.total_pages)
                        if node_id == 0 else None)

        # ---- program-side state
        self.step = 0
        self.lock_stack: List[int] = []
        #: lock -> this node's session state; indexing creates the entry,
        #: ``get`` and ``in`` never do
        self.sessions: Dict[int, LockSessionState] = defaultdict(
            LockSessionState)
        self.pending_updates: Dict[int, PendingUpdate] = {}
        #: (lock, sender, counter) the acquirer is blocked on, with future
        self._upset_expect: Optional[Tuple[int, int, int, Future]] = None
        self.outside_mod_set: Set[int] = set()      # modified outside, this step
        self.outside_dirty_set: Set[int] = set()    # twins with unfrozen mods
        self.accessed_step: Set[int] = set()
        self.gained_valid: Set[int] = set()
        self.lost_valid: Set[int] = set()
        self.others_accessed_prev: Set[int] = set()
        self.requests_seen: Dict[int, int] = {}
        self.homes: Dict[int, int] = {}
        #: pages whose ``cs_diff_source`` ``_await_cs_diffs`` set this step
        self._cs_sourced: Set[int] = set()
        # ---- barrier exchange bookkeeping
        self._bar_instr: Optional[BarrierInstructions] = None
        self._bar_recv_diffs = 0
        self._bar_recv_wns = 0
        #: src -> [bar_diffs, bar_wn] received this exchange phase; lets a
        #: crash reconfiguration credit exactly what a dead node still owed
        self._bar_recv_from: Dict[int, List[int]] = {}
        self._bar_sends_done = False
        self._bar_done_sent = False
        #: dead manager node -> adoptive manager (node 0), set by the
        #: crash reconfiguration (DESIGN.md §13.3)
        self._mgr_remap: Dict[int, int] = {}
        self._freeze_seq = 0

        self._handlers.update({
            "aec.lock_req": self._on_lock_req,
            "aec.lock_grant": self._on_lock_grant,
            "aec.lock_release": self._on_lock_release,
            "aec.notice": self._on_notice,
            "aec.upset_diffs": self._on_upset_diffs,
            "aec.cs_diff_req": self._on_cs_diff_req,
            "aec.wn_diff_req": self._on_wn_diff_req,
            "aec.page_req": self._on_page_req,
            self.reply_kind: self._on_reply,
            "aec.bar_arrive": self._on_bar_arrive,
            "aec.bar_lists": self._on_bar_lists,
            "aec.bar_diffs": self._on_bar_diffs,
            "aec.bar_wn": self._on_bar_wn,
            "aec.bar_done": self._on_bar_done,
            "aec.bar_complete": self._on_bar_complete,
        })

    # ===================================================== helpers

    def _lock_home(self, lock_id: int) -> int:
        """The lock's manager node, following crash-recovery re-homing."""
        mgr = self.sync.lock_manager(lock_id)
        if self._mgr_remap:
            return self._mgr_remap.get(mgr, mgr)
        return mgr

    def _discard_update(self, pu: PendingUpdate, reason: str) -> None:
        """Account a buffered eager push that is (partly) thrown away."""
        stats = self.world.diff_stats
        stats.diffs_wasted += len(pu.diffs) - len(pu.applied)
        unused = pu.unused_bytes
        if unused:
            stats.record_waste(reason, unused)
        if pu.span:
            # may run in ISR context: stamp with the global simulated time
            self.spans.end(pu.span, self.sim.now, outcome=reason)
            pu.span = 0

    def _list_delay(self, nelements: int, category: str) -> Delay:
        return Delay(self.machine.list_cycles(max(nelements, 1)), category)

    def invalidate(self, pn: int) -> bool:
        # the barrier manager folds lost copies into the copysets (a node
        # that lost validity still holds a stale copy)
        if not super().invalidate(pn):
            return False
        self.lost_valid.add(pn)
        self.gained_valid.discard(pn)
        return True

    def _push_filter(self, lock_id: int, sess: LockSessionState,
                     pn: int) -> bool:
        """Whether page ``pn``'s merged diff joins the eager push (hook for
        adaptive variants; AEC pushes everything)."""
        return True

    # ===================================================== access tracking

    # both note the pages and hand back the substrate's access generator
    # itself (no pass-through frame per access, DESIGN §11.9)

    def read(self, addr: int, nwords: int) -> Generator:
        self.accessed_step.update(self.layout.pages_of_range(addr, nwords))
        return super().read(addr, nwords)

    def write(self, addr: int, values: np.ndarray) -> Generator:
        self.accessed_step.update(
            self.layout.pages_of_range(addr, len(values)))
        return super().write(addr, values)

    # ===================================================== outside-diff engine

    def _outside_stamp(self, epoch: int) -> int:
        """Epoch-major stamp for a frozen outside diff: orders diffs of
        different writers by barrier step, and a node's own freezes by
        sequence within the step."""
        self._freeze_seq += 1
        return (max(epoch, 0) << 24) | self._freeze_seq

    def _freeze_outside_diff(self, pn: int, category: str,
                             hidden_behind: Optional[Future] = None
                             ) -> Generator:
        """Freeze the diff of a page modified outside CSs and write-protect.

        The twin is refreshed to the current contents ("reutilized"), so
        each frozen diff holds exactly one epoch's worth of modifications —
        write-notice holders fetch the epochs they are missing on faults
        (DESIGN §11.11).
        """
        meta: AECPageMeta = self.pages[pn]
        if pn in self.outside_dirty_set and meta.twin is not None:
            diff = yield from self.create_diff_timed(pn, category, hidden_behind)
            diff.acquire_counter = self._outside_stamp(meta.dirty_since_step)
            self._commit_frozen(meta, diff)
            meta.twin[:] = self.store.page(pn)
            meta.dirty_since_step = -1
            self.outside_dirty_set.discard(pn)
        self.write_protect(pn)

    def _apply_cs_diff(self, pn: int, diff: Diff, category: str,
                       hidden_behind: Optional[Future] = None) -> Generator:
        """Apply a lock-protected (merged) diff and stamp its words as
        current-step data.

        Words can legally move between the outside-of-CS and lock-protected
        domains across barriers (e.g. initialized at start-up, then managed
        under a lock).  Without the stamp, a stale *outside* diff resolved
        later from an old write notice would overwrite the newer
        lock-protected value.
        """
        yield from self.apply_diff_timed(diff, category, hidden_behind)
        if diff.nwords:
            self.stamp_words(self.pages[pn], diff.offsets, self.step << 24)

    def _twin_guards(self, pn: int, meta: AECPageMeta, stamp: int) -> bool:
        # don't clobber words we modified locally in this epoch or later
        # and have not frozen yet; a diff from a genuinely newer barrier
        # step still wins (its writer synchronized with our value first)
        return (pn in self.outside_dirty_set
                and stamp < ((meta.dirty_since_step + 1) << 24))

    # ===================================================== fault handling

    def handle_read_fault(self, pn: int) -> Generator:
        return self._make_valid(pn)

    def handle_write_fault(self, pn: int) -> Generator:
        meta: AECPageMeta = self.pages[pn]
        if not meta.valid:
            yield from self._make_valid(pn)
        if self.lock_stack:
            lock = self.lock_stack[-1]
            sess = self.sessions[lock]
            if meta.twin is not None and meta.inside_lock is None:
                # modified outside before entering the CS: the outside diff
                # must be created now and the twin eliminated (Section 3.4)
                yield from self._freeze_outside_diff(pn, "data")
                meta.twin = None
            if meta.twin is None:
                yield from self.make_twin(pn, "data")
            meta.inside_lock = lock
            sess.current_cs_mods.add(pn)
        else:
            if meta.inside_lock is not None:
                meta.inside_lock = None
                meta.twin = None  # post-release twin was dropped; re-twin
            if meta.twin is None:
                yield from self.make_twin(pn, "data")
            self.outside_mod_set.add(pn)
            self.outside_dirty_set.add(pn)
            if meta.dirty_since_step < 0:
                meta.dirty_since_step = self.step
        meta.valid = True
        meta.writable = True
        self.hw.page_protection_changed(pn)

    def _buffered_update_diff(self, pn: int) -> Optional[Tuple[int, Diff]]:
        """A diff for ``pn`` buffered because we are in someone's update set."""
        for lock in reversed(self.lock_stack):
            pu = self.pending_updates.get(lock)
            if pu and pn in pu.diffs and pn not in pu.applied:
                sess = self.sessions.get(lock)
                if sess and sess.last_owner == pu.sender:
                    return lock, pu.diffs[pn]
        return None

    def _make_valid(self, pn: int) -> Generator:
        """Bring the local copy of ``pn`` up to date (fault resolution)."""
        meta: AECPageMeta = self.pages[pn]
        had_copy = self.store.has(pn)
        notices = list(meta.pending_notices)
        refetch = (not had_copy or meta.needs_refetch
                   or (meta.cs_diff_source is None and not notices
                       and self._buffered_update_diff(pn) is None))
        if refetch:
            # capture any local unfrozen modifications first: the refetched
            # content would otherwise silently revert them
            if pn in self.outside_dirty_set and meta.twin is not None:
                yield from self._freeze_outside_diff(pn, "data")
            # ask the page's home for the page (plus any write notices the
            # home knows we will need)
            home = self.homes.get(pn, 0)
            if home == self.node_id:
                self.store.ensure(pn)
            else:
                # the home may die mid-fetch: follow the recovery
                # reassignment (node 0 adopts orphans, so the default
                # route always has a copy)
                reply = yield from self.fetch_page(
                    pn, home, "aec.page_req",
                    retarget=lambda _old, pn=pn: self.homes.get(pn, 0))
                if meta.twin is not None:
                    meta.twin[:] = reply["content"]
                for wn in reply["notices"]:
                    if wn not in notices and wn.writer != self.node_id:
                        notices.append(wn)
                # restore our own frozen modifications the home's copy may
                # not have seen (word stamps arbitrate)
                for own in meta.frozen:
                    yield from self.apply_diff_stamped(pn, own)
                self.fault_stats.remote_resolutions += 1
        # lock-protected history
        buffered = self._buffered_update_diff(pn)
        if buffered is not None:
            lock, diff = buffered
            yield from self._apply_cs_diff(pn, diff, "data")
            self.pending_updates[lock].applied.add(pn)
            self._absorb_lock_diff(lock, diff)
            self.fault_stats.local_resolutions += 1
        elif meta.cs_diff_source is not None:
            lock, modifier = meta.cs_diff_source
            if modifier != self.node_id:
                span = self.span_begin("page.fetch", f"page{pn}.cs_diffs",
                                       page=pn, writer=modifier, lock=lock)
                try:
                    reply = yield from self._request(
                        modifier, "aec.cs_diff_req", {"lock": lock, "pn": pn},
                        nbytes=12, category="data")
                except PeerLostError:
                    # the modifier died with its diff history; the page's
                    # home (possibly reassigned) holds the freshest
                    # surviving copy — fall back to a full refetch
                    self.span_end(span)
                    meta.cs_diff_source = None
                    meta.needs_refetch = True
                    yield from self._make_valid(pn)
                    return
                self.span_end(span)
                for d in reply["diffs"]:
                    yield from self._apply_cs_diff(pn, d, "data")
                    self._absorb_lock_diff(lock, d)
                self.fault_stats.remote_resolutions += 1
            meta.cs_diff_source = None
        # outside-of-CS history: pull the missing epochs from every writer
        # named in our write notices
        writers = sorted({wn.writer for wn in notices
                          if wn.writer != self.node_id})
        try:
            yield from self._pull_diffs(pn, meta, writers)
        except PeerLostError:
            # a writer died with its frozen diffs: refetch from the home
            meta.pending_notices.clear()
            meta.needs_refetch = True
            yield from self._make_valid(pn)
            return
        self._mark_current(pn, meta)

    def _mark_current(self, pn: int, meta: AECPageMeta) -> None:
        """The local copy of ``pn`` is up to date: drop its recovery state
        and report the gained validity at the next barrier."""
        meta.pending_notices.clear()
        meta.cs_diff_source = None
        meta.needs_refetch = False
        meta.valid = True
        meta.ever_valid = True
        self.gained_valid.add(pn)
        self.lost_valid.discard(pn)

    def _absorb_lock_diff(self, lock: int, diff: Diff) -> None:
        """Fold a fetched/buffered CS diff into our per-lock history.

        Received CS diffs are frozen and shared (DESIGN §11.10): a page
        with no history keeps the received diff itself."""
        sess = self.sessions[lock]
        pn = diff.page_number
        if diff.origin >= 0:
            sess.writers.setdefault(pn, set()).add(diff.origin)
        old = sess.diff_store.get(pn)
        if old is not None and old.nwords:
            diff = merge_diffs(old, diff).freeze()
        sess.diff_store[pn] = diff

    # ===================================================== locks (program side)

    def acquire(self, lock_id: int) -> Generator:
        # the header carries the barrier step: a manager must never serve
        # one step's request from another step's history
        grant, wait_span = yield from self._wait_grant(
            lock_id, self._lock_home(lock_id),
            Message("aec.lock_req", {"lock": lock_id,
                                     "requester": self.node_id,
                                     "step": self.step}, 4),
            overlap=lambda fut: self._acquire_overlap(lock_id, fut))
        sess = self.sessions[lock_id]
        sess.acquire_counter = grant.acquire_counter
        sess.last_owner = grant.last_owner
        sess.owned_this_step = True
        sess.update_set = grant.update_set
        self.lock_stack.append(lock_id)
        self._begin_hold(lock_id, wait_span, in_upset=grant.in_update_set)

        if grant.last_owner is None or grant.last_owner == self.node_id:
            # trivial reacquire: no diffs to apply, nothing to invalidate;
            # anything still buffered predates our tenure and is garbage
            stale = self.pending_updates.pop(lock_id, None)
            if stale is not None:
                self._discard_update(stale, "stale")
            return

        if grant.in_update_set:
            # the last releaser pushed its merged diffs at us; make sure they
            # arrived (they were sent before the release message we just saw
            # the effect of, but the direct message may still be in flight)
            pu = self.pending_updates.get(lock_id)
            if (pu is None or pu.sender != grant.last_owner
                    or pu.acquire_counter != grant.last_owner_counter):
                wait_fut = self.new_future(f"upset{lock_id}")
                self._upset_expect = (lock_id, grant.last_owner,
                                      grant.last_owner_counter, wait_fut)
                if self.sim.transport is not None:
                    # faulty network: the push is best-effort and may be
                    # gone — bound the wait, then recover via the fallback
                    self._arm_upset_timeout(wait_fut)
                yield Wait(wait_fut, "synch")
                self._upset_expect = None
                pu = self.pending_updates.get(lock_id)
                if pu is not None and (
                        pu.sender != grant.last_owner
                        or pu.acquire_counter != grant.last_owner_counter):
                    pu = None  # something is buffered, but not the push
            if pu is None:
                # the eager push was lost in the network: degrade to a LAP
                # miss instead of reading stale memory (the regular
                # invalidate loop below then handles the uncovered pages)
                yield from self._lap_miss_fallback(lock_id, grant)
            else:
                # apply remaining diffs for valid pages (now exposed)
                for pn in sorted(pu.diffs):
                    if pn in pu.applied or (
                            yield from self._apply_pushed(pu, pn)):
                        self._absorb_lock_diff(lock_id, pu.diffs[pn])
                self.span_end(pu.span, outcome="used", applied=len(pu.applied))
                pu.span = 0
        else:
            # stale buffered updates (if any) are now useless
            pu = self.pending_updates.pop(lock_id, None)
            if pu is not None:
                self._discard_update(pu, "unused")
        # invalidate pages modified inside this CS by other processors
        inval = [(pg, mod) for pg, mod in grant.invalidate]
        if inval:
            yield self._list_delay(len(inval), "synch")
        for pg, modifier in inval:
            pu = self.pending_updates.get(lock_id)
            if pu is not None and pg in pu.applied:
                continue  # already brought current by the pushed diffs
            self._await_cs_diffs(lock_id, pg, modifier)

    def _acquire_overlap(self, lock_id: int, fut: Future) -> Generator:
        """Work hidden behind the wait for the manager's grant (§3.2)."""
        # --- overlap phase 1: apply buffered update-set diffs to valid pages
        pu = self.pending_updates.get(lock_id)
        if pu is not None and pu.acquire_counter <= \
                self.sessions[lock_id].acquire_counter:
            # pushed before (or during) our own last tenure of the lock:
            # necessarily stale — applying it would roll our data back
            self.pending_updates.pop(lock_id, None)
            self._discard_update(pu, "stale")
            pu = None
        if pu is not None:
            for pn in sorted(pu.diffs):
                if fut.done:
                    break
                if pn not in pu.applied:
                    yield from self._apply_pushed(pu, pn, hidden_behind=fut)
        # --- overlap phase 2: create outside diffs until the reply arrives
        for pn in sorted(self.outside_dirty_set.copy()):
            if fut.done:
                break
            yield from self._freeze_outside_diff(pn, "synch", hidden_behind=fut)

    def _apply_pushed(self, pu: PendingUpdate, pn: int,
                      hidden_behind: Optional[Future] = None) -> Generator:
        """Apply a pushed merged diff if we hold a valid copy of its page
        (invalid pages apply it at fault time); returns whether it did."""
        meta: AECPageMeta = self.pages[pn]
        if not (meta.valid and self.store.has(pn)):
            return False
        yield from self._apply_cs_diff(pn, pu.diffs[pn], "synch",
                                       hidden_behind=hidden_behind)
        if meta.twin is not None:
            pu.diffs[pn].apply(meta.twin)
        pu.applied.add(pn)
        return True

    def _await_cs_diffs(self, lock_id: int, pg: int, modifier: int) -> None:
        """Invalidate ``pg`` (its next fault fetches ``modifier``'s diffs)
        and stop reporting/serving it from this lock's session.

        The grant told us another processor modified the page after our
        last tenure and we don't hold its diffs (only the lazy
        ``cs_diff_source`` pointer).  Until a fault refetches and absorbs
        that history, our stored record is incomplete — keeping it would
        let our (higher-counter) session win the release coverage or the
        barrier's per-page reconciliation with stale words.
        """
        self.invalidate(pg)
        self.pages[pg].cs_diff_source = (lock_id, modifier)
        self._cs_sourced.add(pg)
        sess = self.sessions[lock_id]
        sess.diff_store.pop(pg, None)
        sess.step_mods.discard(pg)
        sess.writers.pop(pg, None)

    def _arm_upset_timeout(self, fut: Future) -> None:
        """Bound the wait for an eagerly-pushed update set (faulty mode).

        The push is sent best-effort; if it was dropped, only this timer
        unblocks the acquirer.  Both this and the push-arrival path guard on
        ``fut.done``, so whichever fires second is a no-op.
        """
        deadline = self.now() + UPSET_WAIT_TIMEOUT_CYCLES

        def expire() -> None:
            if not fut.done:
                fut.resolve(None, self.sim.now)

        self.sim.schedule_call(deadline, expire)

    def _lap_miss_fallback(self, lock_id: int, grant: GrantInfo) -> Generator:
        """The pushed update set never arrived: recover as if LAP had missed.

        Every page the lost push covered is invalidated and marked to fetch
        the last owner's merged CS diffs on demand (``aec.cs_diff_req``).
        The last owner retains those diffs until the next barrier and cannot
        reach it while we hold the lock, so the fetch is always serviceable;
        memory ends up word-identical to the push having arrived, at the
        price of the LAP benefit for this acquire.
        """
        transport = self.sim.transport
        if transport is not None:
            transport.stats.lap_fallbacks += 1
        stale = self.pending_updates.pop(lock_id, None)
        if stale is not None:
            self._discard_update(stale, "unused")
        if grant.covered:
            yield self._list_delay(len(grant.covered), "synch")
        for pg in grant.covered:
            self._await_cs_diffs(lock_id, pg, grant.last_owner)

    def release(self, lock_id: int) -> Generator:
        if not self.lock_stack or self.lock_stack[-1] != lock_id:
            raise RuntimeError(
                f"node {self.node_id}: release of {lock_id} but stack is "
                f"{self.lock_stack}"
            )
        sess = self.sessions[lock_id]
        # 1. create diffs for pages modified inside the CS (not overlappable:
        #    the next acquirer must not see stale data)
        for pn in sorted(sess.current_cs_mods):
            meta: AECPageMeta = self.pages[pn]
            if meta.twin is None:
                raise RuntimeError(f"inside-modified page {pn} lost its twin")
            diff = yield from self.create_diff_timed(pn, "synch", None)
            diff.acquire_counter = sess.acquire_counter
            old = sess.diff_store.get(pn)
            if old is None or not old.nwords:
                # no history: the fresh diff is the merged diff
                merged = diff
            else:
                # stamped with the fresh diff's counter and origin
                merged = merge_diffs(old, diff)
                # merge cost: list processing over the words merged
                yield self._list_delay(merged.nwords, "synch")
                self.world.diff_stats.record_merge(merged.size_bytes)
            # pushed, stored and served by reference from here on
            sess.diff_store[pn] = merged.freeze()
            sess.writers.setdefault(pn, set()).add(self.node_id)
            sess.step_mods.add(pn)
            meta.twin = None
            meta.inside_lock = None
            self.write_protect(pn)
        sess.current_cs_mods.clear()
        # 2. push the merged diffs to the update set (always send, even when
        #    empty: an in-update-set acquirer blocks until this arrives).
        #    Subclasses may gate individual pages out of the push (ADSM);
        #    the coverage reported to the manager must match what was
        #    actually pushed, so non-pushed pages still get invalidated.
        #    Every member gets the same frozen diffs (DESIGN §11.10).
        pushed = {pn: d for pn, d in sess.diff_store.items()
                  if self._push_filter(lock_id, sess, pn)}
        nbytes = wire_bytes(pushed.values()) or 4
        payload = {
            "lock": lock_id,
            "counter": sess.acquire_counter,
            "sender": self.node_id,
            "diffs": pushed,
        }
        for q in sess.update_set:
            self.world.diff_stats.record_push(nbytes)
            yield Send(q, Message("aec.upset_diffs", payload, nbytes),
                       "synch")
        # 3. tell the manager we are giving up ownership
        covered = sorted(pushed)
        modified = sorted(sess.step_mods)
        payload = {
            "lock": lock_id,
            "releaser": self.node_id,
            "step": self.step,
            "covered": covered,
            "modified": modified,
        }
        yield Send(self._lock_home(lock_id),
                   Message("aec.lock_release", payload,
                           4 * (len(covered) + len(modified))),
                   "synch")
        # 4. unprotect pages modified outside and not inside this CS: their
        #    speculative outside diffs are kept (semantically equivalent to
        #    the paper's discard-and-reuse-twin; see DESIGN.md)
        self.lock_stack.pop()
        self._end_hold(lock_id, pushed_to=len(sess.update_set))

    # ===================================================== barriers (program)

    def barrier(self, barrier_id: int) -> Generator:
        if self.lock_stack:
            raise RuntimeError(
                f"node {self.node_id}: barrier while holding locks "
                f"{self.lock_stack}")
        mgr = self.sync.barrier_manager(barrier_id)
        self._bar_instr = None
        self._bar_recv_diffs = 0
        self._bar_recv_wns = 0
        self._bar_recv_from = {}
        self._bar_sends_done = False
        self._bar_done_sent = False
        info = ArrivalInfo(
            node=self.node_id,
            lock_sessions={
                lock: (s.acquire_counter, sorted(s.step_mods),
                       sorted(s.diff_store))
                for lock, s in self.sessions.items() if s.owned_this_step
            },
            outside_mod_pages=sorted(self.outside_mod_set),
            accessed_pages=sorted(self.accessed_step),
            gained_valid=sorted(self.gained_valid),
            lost_valid=sorted(self.lost_valid),
        )
        self.gained_valid.clear()
        self.lost_valid.clear()
        yield self._list_delay(info.element_count, "synch")
        # only pages modified outside can be frozen behind the wait (the
        # set cannot grow while this program is suspended)
        payload, bar_span = yield from self._wait_barrier(
            mgr, Message("aec.bar_arrive", info,
                         4 * max(info.element_count, 1)),
            f"barrier.step{self.step}",
            overlap=self._barrier_overlap if self.outside_mod_set else None,
            step=self.step)
        if bar_span:
            self.span_end(bar_span, step=payload["step"])
        self.step = payload["step"]
        # re-protect pages modified outside so next step's writes are caught
        if self.outside_mod_set:
            yield self._list_delay(len(self.outside_mod_set), "synch")
        self._post_barrier_cleanup()

    def _barrier_overlap(self, fut: Future) -> Generator:
        """Create outside diffs for pages other processors used in the
        previous step and actually requested from us before."""
        for pn in sorted(self.outside_mod_set):
            if fut.done:
                break
            if (pn in self.others_accessed_prev
                    and self.requests_seen.get(pn, 0) > 0):
                yield from self._freeze_outside_diff(
                    pn, "synch", hidden_behind=fut)

    def _post_barrier_cleanup(self) -> None:
        for pn in self.outside_mod_set:
            self.write_protect(pn)
        self.outside_mod_set.clear()
        # per-step lock state is obsolete after a barrier
        for lock, sess in self.sessions.items():
            sess.diff_store.clear()
            sess.step_mods.clear()
            sess.writers.clear()
            sess.owned_this_step = False
        for lock, pu in self.pending_updates.items():
            self._discard_update(pu, "barrier")
        self.pending_updates.clear()
        # only ``_await_cs_diffs`` sets a source: clear the pages it marked
        pages = self.pages
        for pn in self._cs_sourced:
            pages[pn].cs_diff_source = None
        self._cs_sourced.clear()
        self.accessed_step.clear()
        instr = self._bar_instr
        if instr is not None:
            # cumulative union: the filter's purpose is "never create diffs
            # of pages nobody else uses"; phase-structured programs touch
            # shared data several barriers before modifying it again
            self.others_accessed_prev |= instr.others_accessed
            self.homes.update(instr.homes)
        self._bar_instr = None

    # ===================================================== ISR handlers

    # ---- lock manager role

    # the manager role returns tuples of primitives, not generators: its
    # state never reads the time a primitive consumes, so running it before
    # the engine charges the list-processing delay changes nothing
    # (DESIGN §11.10)

    def _on_lock_req(self, msg: Message) -> Tuple:
        return (self._list_delay(self.machine.num_procs, "ipc"),
                *self._manage("req", msg.payload))

    def _on_lock_release(self, msg: Message) -> Tuple:
        p = msg.payload
        return (self._list_delay(len(p["covered"]) + len(p["modified"]),
                                 "ipc"),
                *self._manage("rel", p))

    def _manage(self, op: str, p: Dict[str, Any]) -> Tuple[Send, ...]:
        """Run a lock request (``req``) or release (``rel``) through the
        manager role; returns the grant it produces, if any, as a send."""
        if self._mgr_remap and self._deferred_for_rebuild(op, p):
            return ()  # adopted lock still under rebuild (recovery/aec.py)
        if op == "req":
            dst = p["requester"]
            result = self.lock_mgr.request(p["lock"], dst, p["step"])
            if result is None:
                return ()
            return (self._send_grant(dst, *result),)
        result = self.lock_mgr.release(p["lock"], p["releaser"],
                                       p["covered"], p["modified"],
                                       p["step"])
        if result is None:
            return ()
        return (self._send_grant(*result),)

    def lap_state(self, lock_id: int) -> LockPredictionState:
        return self.lock_mgr.lock(lock_id).pred

    def _send_grant(self, dst: int, grant: GrantInfo, predictions) -> Send:
        """Score the grant and return its send."""
        self._score_grant(grant.lock_id, dst, grant.last_owner, predictions)
        nbytes = 16 + 8 * len(grant.invalidate) + 4 * len(grant.update_set)
        if self.sim.transport is not None:
            # faulty mode only (keeps fault-free timing untouched): the
            # grant also names the pages the push covered, so a lost push
            # can be recovered page-by-page
            nbytes += 4 * len(grant.covered)
        return Send(dst, Message("aec.lock_grant", grant, nbytes), "ipc")

    # ---- lock client side

    def _on_upset_diffs(self, msg: Message) -> Tuple:
        # a tuple of primitives: nothing here reads the time the list
        # processing consumes, and the resolve comes after it
        p = msg.payload
        lock_id, counter, sender = p["lock"], p["counter"], p["sender"]
        delay = Delay(self.machine.list_cycles(len(p["diffs"])), "ipc")
        old = self.pending_updates.get(lock_id)
        if old is not None and old.acquire_counter >= counter:
            # outdated set: discard (the acquire-counter stamp decides)
            stats = self.world.diff_stats
            stats.diffs_wasted += len(p["diffs"])
            wasted = sum(d.size_bytes for d in p["diffs"].values())
            if wasted:
                stats.record_waste("outdated", wasted)
            return (delay,)
        if old is not None:
            self._discard_update(old, "superseded")
        pu = PendingUpdate(
            lock_id=lock_id, acquire_counter=counter, sender=sender,
            diffs=p["diffs"])
        if self.spans is not None:
            # ISR context: stamp with the global simulated time (the node's
            # program clock does not advance inside interrupt handlers)
            pu.span = self.spans.begin(
                self.node_id, "lap.window", f"lock{lock_id}.upset",
                self.sim.now, lock=lock_id, sender=sender,
                pages=len(p["diffs"]))
        self.pending_updates[lock_id] = pu
        expect = self._upset_expect
        if (expect is not None and expect[0] == lock_id
                and expect[1] == sender and expect[2] == counter
                and not expect[3].done):  # may have timed out (faulty mode)
            return (delay, Resolve(expect[3], None))
        return (delay,)

    # ---- diff / page servicing

    def _on_cs_diff_req(self, msg: Message):
        lock_id, pn = msg.payload["lock"], msg.payload["pn"]
        self.requests_seen[pn] = self.requests_seen.get(pn, 0) + 1
        sess = self.sessions.get(lock_id)
        diffs: List[Diff] = []
        if sess is not None and pn in sess.diff_store:
            diffs = [sess.diff_store[pn]]  # frozen: served by reference
        if not diffs:
            raise RuntimeError(
                f"node {self.node_id}: no CS diff history for lock {lock_id} "
                f"page {pn} (requested by node {msg.payload['requester']})")
        nbytes = wire_bytes(diffs)
        yield Delay(self.machine.list_cycles(len(diffs)), "ipc")
        yield Send(msg.payload["requester"],
                   self._reply(msg, {"diffs": diffs}, nbytes), "ipc")

    def _on_wn_diff_req(self, msg: Message):
        pn = msg.payload["pn"]
        self.requests_seen[pn] = self.requests_seen.get(pn, 0) + 1
        meta: AECPageMeta = self.pages[pn]
        if pn in self.outside_dirty_set and meta.twin is not None:
            # unfrozen modifications: freeze them first, in the ISR (the
            # creation cost is exposed, ipc)
            return self._freeze_and_serve(msg, pn, meta)
        return (self._frozen_reply(msg, meta),)

    def _freeze_and_serve(self, msg: Message, pn: int,
                          meta: AECPageMeta) -> Generator:
        yield from self._freeze_outside_diff(pn, "ipc")
        yield self._frozen_reply(msg, meta)

    def _on_page_req(self, msg: Message) -> Tuple[Delay, Send]:
        pn = msg.payload["pn"]
        self.requests_seen[pn] = self.requests_seen.get(pn, 0) + 1
        # the home's pending notices travel with the copy
        notices = list(self.pages[pn].pending_notices)
        return self._page_reply(msg, pn, {"notices": notices}, len(notices))

    # ---- barrier roles

    # the barrier handlers return tuples of primitives, not generators: ISR
    # time is fixed while a handler runs, so nothing they do depends on
    # the time a primitive consumes; a ``Send``'s injection time and a
    # ``Resolve`` keep their places in the tuple (DESIGN §11.11)

    def _on_bar_arrive(self, msg: Message) -> Tuple:
        info: ArrivalInfo = msg.payload
        assert self.bar_mgr is not None, "bar_arrive at non-manager node"
        delay = self._list_delay(info.element_count, "ipc")
        if self.bar_mgr.arrive(info):
            return (delay, *self._bar_broadcast_instructions())
        return (delay,)

    def _bar_broadcast_instructions(self) -> Tuple:
        """Every live node arrived: compute and push the exchange lists."""
        instructions = self.bar_mgr.compute()
        total = 0
        sends = []
        for node, instr in sorted(instructions.items()):
            n = instr.element_count
            total += n
            sends.append(Send(node, Message("aec.bar_lists", instr,
                                            4 * max(n, 1)), "ipc"))
        return (self._list_delay(total, "ipc"), *sends)

    def _on_bar_lists(self, msg: Message) -> Tuple:
        instr: BarrierInstructions = msg.payload
        self._bar_instr = instr
        ops: List[Any] = [self._list_delay(instr.element_count, "ipc")]
        # stale copies that lazy recovery cannot repair: drop recovery state
        # so the next fault refetches the page from its home
        for pn in sorted(instr.stale_pages):
            meta: AECPageMeta = self.pages[pn]
            meta.pending_notices.clear()
            meta.cs_diff_source = None
            meta.needs_refetch = True
            self.invalidate(pn)
        # push CS diffs we are responsible for (frozen, shared)
        for lock, pages, dests in instr.cs_sends:
            sess = self.sessions.get(lock)
            store = sess.diff_store if sess is not None else {}
            diffs = {pn: store[pn] for pn in pages if pn in store}
            nbytes = wire_bytes(diffs.values()) or 8
            for d in dests:
                ops.append(Send(d, Message("aec.bar_diffs",
                                           {"lock": lock, "diffs": diffs},
                                           nbytes), "ipc"))
        # push write notices
        for pn, epoch, dests in instr.wn_sends:
            wn = WriteNotice(pn, self.node_id, epoch)
            for d in dests:
                ops.append(Send(d, Message("aec.bar_wn", {"notices": [wn]},
                                           8), "ipc"))
        self._bar_sends_done = True
        return (*ops, *self._maybe_barrier_done())

    def _on_bar_diffs(self, msg: Message) -> Tuple:
        self._bar_recv_diffs += 1
        self._bar_recv_from.setdefault(msg.src, [0, 0])[0] += 1
        ops = [self._apply_in_isr(pn, diff)
               for pn, diff in sorted(msg.payload["diffs"].items())
               if self.store.has(pn)]
        return (*ops, *self._maybe_barrier_done())

    def _on_bar_wn(self, msg: Message) -> Tuple:
        self._bar_recv_wns += 1
        self._bar_recv_from.setdefault(msg.src, [0, 0])[1] += 1
        notices = msg.payload["notices"]
        for wn in notices:
            pn = wn.page_number
            if wn.writer == self.node_id or not self.store.has(pn):
                continue
            # a notice already pending keeps its place in arrival order
            self.pages[pn].pending_notices[wn] = None
            self.invalidate(pn)
        return (Delay(self.machine.list_cycles(len(notices)), "ipc"),
                *self._maybe_barrier_done())

    def _maybe_barrier_done(self) -> Tuple:
        instr = self._bar_instr
        if (instr is None or self._bar_done_sent or not self._bar_sends_done
                or self._bar_recv_diffs < instr.expect_diff_msgs
                or self._bar_recv_wns < instr.expect_wn_msgs):
            return ()
        self._bar_done_sent = True
        return (Send(0, Message("aec.bar_done", {"node": self.node_id}, 4),
                     "ipc"),)

    def _on_bar_done(self, msg: Message) -> Tuple:
        assert self.bar_mgr is not None
        delay = Delay(self.machine.list_cycles(1), "ipc")
        if self.bar_mgr.node_done(msg.payload["node"]):
            return (delay, *self._bar_finish())
        return (delay,)

    def _bar_finish(self) -> Tuple:
        """Every live node finished the exchange: release the barrier."""
        new_step = self.bar_mgr.complete()
        self.world.note_barrier_complete()
        return tuple([Send(node, Message("aec.bar_complete",
                                         {"step": new_step}, 4), "ipc")
                      for node in sorted(self.bar_mgr.live)])

    def _on_bar_complete(self, msg: Message):
        # enter the new step in the manager role *now* (unless a newer-step
        # request or release got here first and did it already)
        self.lock_mgr.reset_step_state(msg.payload["step"])
        return self._on_bar_release(msg)


class AECNoLapNode(AECNode):
    """AEC without LAP (the paper's Figures 3 and 4 baseline): releasers
    push nothing, so every acquirer fetches the diffs it needs."""

    name = "aec-nolap"
    use_lap = False
