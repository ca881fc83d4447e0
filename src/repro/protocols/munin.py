"""Munin-style eager release consistency (the paper's update-based foil).

Implements the *write-shared* protocol of Munin (Carter, Bennett &
Zwaenepoel) on our substrate: multiple writers diff their modifications
against twins, and at every release (and barrier arrival) the releaser
eagerly pushes its diffs to **all processors sharing the modified pages**,
waiting for acknowledgements before proceeding.  A per-page directory
(pages hashed across nodes) tracks the sharer set and forwards updates.

This is the protocol the paper contrasts AEC with: "AEC leads to much less
communication than in Munin, since updates are only sent to the update set
of the lock releaser, as opposed to all processors that shared the
modified data."

``MuninLapNode`` adds the optimization the paper proposes in Section 1:
updates to pages modified *inside* a critical section are restricted to
the LAP-predicted update set; the remaining sharers are invalidated
(dropped from the copyset) and re-fault lazily if they ever touch the data
again.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.core.lap.state import LockPredictionState
from repro.engine.events import Delay, Resolve, Send, Wait
from repro.engine.future import Future
from repro.memory.diff import Diff, create_diff
from repro.network.message import Message
from repro.protocols.base import PageMeta, ProtocolNode, World


@dataclass
class MuninPageMeta(PageMeta):
    """Munin per-page state: counters a fetch compares across its round
    trip to detect an invalidation or update that raced it."""

    inval_epoch: int = 0
    upd_epoch: int = 0


class MuninNode(ProtocolNode):
    name = "munin"
    page_meta_factory = MuninPageMeta
    reply_kind = "mun.reply"
    notice_kind = "mun.notice"
    #: restrict in-CS updates to the LAP-predicted update set
    use_lap = False

    def __init__(self, world: World, node_id: int) -> None:
        super().__init__(world, node_id)
        self._predictor = self._make_predictor()
        #: update set granted to us per lock (when LAP restriction is on)
        self._update_sets: Dict[int, List[int]] = {}
        #: directory/home role (pages hashed to us): the sharer set; the
        #: home keeps a materialized, always-current copy of its pages
        #: (applied inline on every update, never droppable), so fetches
        #: are always served from current data even after LAP-restricted
        #: updates invalidated arbitrary sharers
        self._sharers: Dict[int, Set[int]] = {}
        #: directory role, faulty network only: page -> node dropped from
        #: its sharer set and not served a fetch since -> the last
        #: invalidation sent to it (see ``_on_update``)
        self._lagging: Dict[int, Dict[int, Message]] = {}
        for pn in range(self.layout.total_pages):
            if self.directory_of(pn) == node_id:
                self.store.ensure(pn)  # every page starts zeroed
        #: pages modified (twinned) since our last flush
        self._dirty: Set[int] = set()
        #: pages whose current dirtiness began inside a CS (per lock)
        self._dirty_lock: Dict[int, Optional[int]] = {}
        self.lock_stack: List[int] = []
        # flush bookkeeping: outstanding directory and sharer acks
        self._flush_fut: Optional[Future] = None
        self._dir_acks_pending = 0
        self._sharer_acks_needed = 0
        self._sharer_acks_got = 0
        # barrier manager (node 0) state
        self._bar_count = 0
        self._handlers.update({
            "mun.lock_req": self._on_lock_req,
            "mun.lock_rel": self._on_lock_rel,
            "mun.lock_grant": self._on_lock_grant,
            "mun.notice": self._on_notice,
            "mun.update": self._on_update,
            "mun.fwd_update": self._on_fwd_update,
            "mun.inval": self._on_inval,
            "mun.ack": self._on_ack,
            "mun.fetch": self._on_fetch,
            self.reply_kind: self._on_reply,
            "mun.bar_arrive": self._on_bar_arrive,
            "mun.bar_release": self._on_bar_release,
        })

    # ------------------------------------------------------------- plumbing

    def directory_of(self, pn: int) -> int:
        return pn % self.machine.num_procs

    # ------------------------------------------------------------- faults

    def handle_read_fault(self, pn: int) -> Generator:
        yield from self._fetch_page(pn)

    def handle_write_fault(self, pn: int) -> Generator:
        meta = self.pages[pn]
        while not meta.valid:
            # _fetch_page revalidates; an invalidation racing the twin copy
            # below re-clears the flag and the caller's write loop refaults
            yield from self._fetch_page(pn)
        if meta.twin is None:
            yield from self.make_twin(pn, "data")
        if pn not in self._dirty:
            self._dirty.add(pn)
            self._dirty_lock[pn] = (self.lock_stack[-1]
                                    if self.lock_stack else None)
        meta.writable = True
        self.hw.page_protection_changed(pn)

    def _fetch_page(self, pn: int) -> Generator:
        """Cold/invalidated fault: join the sharer set via the directory."""
        meta: MuninPageMeta = self.pages[pn]
        # an invalidation may have hit us mid-critical-section with
        # unflushed twin-tracked modifications: carry them over the refetch
        local: Optional[Diff] = None
        if meta.twin is not None and pn in self._dirty \
                and self.store.has(pn):
            local = create_diff(pn, meta.twin, self.store.page(pn),
                                origin=self.node_id)
        directory = self.directory_of(pn)
        fetch_span = self.span_begin("page.fetch", f"page{pn}.fetch",
                                     page=pn, home=directory)
        for _attempt in range(100):
            # two races make a served snapshot stale by the time the
            # program stores it: an invalidation dropped us mid-fetch, or
            # an update was forwarded to us (we joined the sharer set at
            # the serve) and applied by the ISR before we woke up —
            # store.ensure would wipe it.  Retry until a quiescent fetch.
            epoch = (meta.inval_epoch, meta.upd_epoch)
            reply = yield from self._request(
                directory, "mun.fetch", {"pn": pn}, nbytes=8,
                category="data")
            if (meta.inval_epoch, meta.upd_epoch) == epoch:
                break
        else:
            raise RuntimeError(f"munin: fetch of page {pn} keeps racing "
                               "invalidations/updates")
        self.span_end(fetch_span)
        self._install_page(pn, directory, reply)
        if meta.twin is not None:
            # rebase the twin so the eventual flush diffs only our own
            # modifications against the refetched state
            meta.twin[:] = reply["content"]
        if local is not None and not local.empty:
            # reapply our unflushed words on top (page only: the twin must
            # keep excluding them so the flush re-captures them)
            yield from self.apply_diff_timed(local, "data")
        meta.valid = True
        meta.ever_valid = True
        self.fault_stats.remote_resolutions += 1

    def _on_fetch(self, msg: Message):
        """Home role: add the requester as a sharer and serve our
        always-current home copy."""
        pn = msg.payload["pn"]
        requester = msg.payload["requester"]
        sharers = self._sharers.setdefault(pn, set())
        if not sharers and self.node_id != 0:
            # node 0 starts with a valid view of every page
            sharers.add(0)
        yield Delay(self.machine.list_cycles(len(sharers) + 1), "ipc")
        sharers.add(requester)
        lagging = self._lagging.get(pn)
        if lagging:
            # the served copy is current, and later updates reach it
            lagging.pop(requester, None)
        yield from self._page_reply(msg, pn, {})

    # ------------------------------------------------------------ updates

    def _flush_updates(self, category: str,
                       restrict_to: Optional[List[int]] = None) -> Generator:
        """Create diffs for every dirty page and push them to all sharers
        (via the page's directory), then wait until every directory ack
        and every sharer ack those updates caused is in.

        ``restrict_to``: LAP restriction — pages dirtied inside the lock
        being released update only these nodes; other sharers are
        invalidated by the directory.
        """
        if not self._dirty:
            return
        dirty = sorted(self._dirty)
        self._dirty.clear()
        self._dir_acks_pending = 0
        self._sharer_acks_needed = 0
        self._sharer_acks_got = 0
        for pn in dirty:
            meta = self.pages[pn]
            lock = self._dirty_lock.pop(pn, None)
            if meta.twin is None:
                continue
            diff = yield from self.create_diff_timed(pn, category, None)
            # read-only from here: the directory forwards this object
            diff.freeze()
            meta.twin = None
            meta.writable = False
            self.hw.page_protection_changed(pn)
            restrict = (restrict_to if (self.use_lap and lock is not None
                                        and restrict_to is not None)
                        else None)
            payload = {
                "pn": pn, "diff": diff, "writer": self.node_id,
                "restrict": restrict,
            }
            self._dir_acks_pending += 1
            yield Send(self.directory_of(pn),
                       Message("mun.update", payload, diff.size_bytes + 16),
                       category)
        # acks handled during the sends above only counted: the future
        # exists from here on, so it resolves when the last ack is in
        if self._dir_acks_pending \
                or self._sharer_acks_got < self._sharer_acks_needed:
            self._flush_fut = self.new_future("flush")
            yield Wait(self._flush_fut, category)

    def _on_update(self, msg: Message):
        """Directory role: forward the diff to every other sharer; under the
        LAP restriction, invalidate sharers outside the update set."""
        pn = msg.payload["pn"]
        writer = msg.payload["writer"]
        restrict = msg.payload["restrict"]
        diff: Diff = msg.payload["diff"]
        sharers = self._sharers.setdefault(pn, set())
        if not sharers and self.node_id != 0:
            # node 0 starts with a valid view of every page
            sharers.add(0)
        sharers.add(writer)
        targets = sorted(sharers - {writer, self.node_id})
        dropped: List[int] = []
        if restrict is not None:
            keep = set(restrict) | {writer}
            dropped = sorted(set(targets) - keep)
            targets = sorted(set(targets) & keep)
            for d in dropped:
                sharers.discard(d)
        transport = self.sim.transport
        lagging: Optional[Dict[int, Message]] = None
        if transport is not None:
            # faulty network only (fault-free timing untouched): an
            # invalidation can be lost and wait for its retransmission,
            # while its target still reads its old copy as valid.  Its
            # ack goes to the writer that caused it, so a later writer of
            # the page would not wait for it: a dropped node whose last
            # invalidation this NIC has not seen acknowledged yet is
            # invalidated again, and this writer waits for that ack
            lagging = self._lagging.setdefault(pn, {})
            again = [d for d, inval in lagging.items()
                     if d not in dropped and transport.pending(inval)]
            if again:
                for d in again:
                    sharers.discard(d)
                dropped = sorted(again + dropped)
        yield Delay(self.machine.list_cycles(len(sharers) + 1), "ipc")
        # the home copy absorbs every update inline (it is never dropped,
        # so it can always serve fetches with current data)
        yield self._apply_update(pn, diff)
        # the writer froze the diff: every sharer gets the same object
        for d in targets:
            yield Send(d, Message("mun.fwd_update",
                                  {"pn": pn, "diff": diff, "writer": writer},
                                  diff.size_bytes + 8), "ipc")
        for d in dropped:
            inval = Message("mun.inval", {"pn": pn, "writer": writer}, 4)
            if lagging is not None:
                lagging[d] = inval
            yield Send(d, inval, "ipc")
        # tell the writer how many acks to expect for this page (the
        # directory ack carries the fan-out; sharers — including the
        # invalidated ones, so the flush orders before the lock moves —
        # acknowledge the writer directly)
        yield Send(writer, Message("mun.ack",
                                   {"pn": pn, "kind": "dir",
                                    "fanout": len(targets) + len(dropped)},
                                   8), "ipc")

    def _apply_update(self, pn: int, diff: Diff) -> Delay:
        """Apply an update in the ISR; returns the delay to charge."""
        self.pages[pn].upd_epoch += 1
        if self.store.has(pn):
            return self._apply_in_isr(pn, diff)
        # no local content: the home served our fetch before this update
        # and the reply is still in flight (the reliable transport keeps
        # no order across message kinds); the bumped ``upd_epoch`` makes
        # ``_fetch_page`` fetch again, so dropping the update is correct
        cycles = self.machine.diff_apply_cycles(max(diff.nwords, 1))
        self.world.diff_stats.record_apply(cycles, cycles)
        return Delay(cycles, "ipc")

    def _on_fwd_update(self, msg: Message) -> Tuple[Delay, Send]:
        pn = msg.payload["pn"]
        return (self._apply_update(pn, msg.payload["diff"]),
                Send(msg.payload["writer"],
                     Message("mun.ack", {"pn": pn, "fanout": 0}, 4), "ipc"))

    def _on_inval(self, msg: Message):
        pn = msg.payload["pn"]
        self.pages[pn].inval_epoch += 1
        self.invalidate(pn)
        yield Delay(self.machine.list_cycles(1), "ipc")
        # dropped from the sharer set: a later access re-faults and rejoins
        yield Send(msg.payload["writer"],
                   Message("mun.ack", {"pn": pn, "fanout": 0}, 4), "ipc")

    def _on_ack(self, msg: Message):
        if msg.payload.get("kind") == "dir":
            self._dir_acks_pending -= 1
            self._sharer_acks_needed += msg.payload["fanout"]
        else:
            self._sharer_acks_got += 1
        yield Delay(self.machine.list_cycles(1), "ipc")
        if (self._flush_fut is not None and self._dir_acks_pending == 0
                and self._sharer_acks_got >= self._sharer_acks_needed):
            fut, self._flush_fut = self._flush_fut, None
            yield Resolve(fut, None)

    # ------------------------------------------------------------- locks

    def acquire(self, lock_id: int) -> Generator:
        grant, wait_span = yield from self._wait_grant(
            lock_id, self.sync.lock_manager(lock_id),
            Message("mun.lock_req", {"lock": lock_id,
                                     "requester": self.node_id}, 4))
        self._begin_hold(lock_id, wait_span)
        self._update_sets[lock_id] = grant["update_set"]
        self.lock_stack.append(lock_id)

    def release(self, lock_id: int) -> Generator:
        if not self.lock_stack or self.lock_stack[-1] != lock_id:
            raise RuntimeError(f"munin: bad release of {lock_id}")
        # eager update propagation *before* the lock can move (Munin's
        # delayed update queue flushes at release)
        yield from self._flush_updates(
            "synch", restrict_to=self._update_sets.get(lock_id))
        self.lock_stack.pop()
        self._end_hold(lock_id)
        yield Send(self.sync.lock_manager(lock_id),
                   Message("mun.lock_rel",
                           {"lock": lock_id, "releaser": self.node_id}, 4),
                   "synch")

    def _grant(self, st: LockPredictionState, to: int) -> Generator:
        prev = st.last_owner
        st.record_grant(to)
        predictions = self._predictor.score(st, to)
        self._score_grant(st.lock_id, to, prev, predictions)
        update_set = predictions["lap"] if self.use_lap else None
        yield Send(to, Message("mun.lock_grant",
                               {"lock": st.lock_id,
                                "update_set": update_set}, 8), "ipc")

    def _on_lock_req(self, msg: Message):
        st = self.lap_state(msg.payload["lock"])
        requester = msg.payload["requester"]
        yield Delay(self.machine.list_cycles(2), "ipc")
        if st.holder is None:
            yield from self._grant(st, requester)
        else:
            st.waiting_queue.append(requester)

    def _on_lock_rel(self, msg: Message):
        st = self.lap_state(msg.payload["lock"])
        st.record_release(msg.payload["releaser"])
        yield Delay(self.machine.list_cycles(1), "ipc")
        if st.waiting_queue:
            nxt = st.waiting_queue.popleft()
            yield from self._grant(st, nxt)

    # ------------------------------------------------------------ barriers

    def barrier(self, barrier_id: int) -> Generator:
        if self.lock_stack:
            raise RuntimeError("munin: barrier while holding locks")
        # a barrier is a release point: flush all pending updates first
        yield from self._flush_updates("synch", restrict_to=None)
        _payload, bar_span = yield from self._wait_barrier(
            self.sync.barrier_manager(barrier_id),
            Message("mun.bar_arrive", {"node": self.node_id}, 4),
            f"barrier{barrier_id}", barrier=barrier_id)
        self.span_end(bar_span)

    def _on_bar_arrive(self, msg: Message):
        self._bar_count += 1
        yield Delay(self.machine.list_cycles(1), "ipc")
        if self._bar_count == self.machine.num_procs:
            self._bar_count = 0
            self.world.note_barrier_complete()
            for node in range(self.machine.num_procs):
                yield Send(node, Message("mun.bar_release", {}, 4), "ipc")


class MuninLapNode(MuninNode):
    """Munin with LAP-restricted in-CS updates (see module docstring)."""

    name = "munin-lap"
    use_lap = True
