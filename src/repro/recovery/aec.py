"""AEC's reconfiguration around a permanently dead peer (DESIGN.md §13.3).

The paper's protocol never loses a node; this mixin of ``AECNode`` lets
the survivors finish once the coordinator declares a peer dead.
Registering the ``RECONFIG_KIND`` handler is what makes a protocol accept
permanent crashes (``run_app`` refuses them otherwise).
"""
from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.engine.events import Delay, Resolve, Send
from repro.network.message import Message
from repro.recovery.crash import RECONFIG_KIND


class AECReconfiguration:
    """Permanent-death reconfiguration of an AEC node."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        #: node 0 only, while collecting survivor lock reports:
        #: (dead node, live nodes still to report)
        self._lockrep_wait: Optional[Tuple[int, Set[int]]] = None
        self._lockrep_reports: List[Dict[str, Any]] = []
        #: lock traffic for locks under rebuild, replayed afterwards
        self._lockrep_deferred: List[Tuple[str, Dict[str, Any]]] = []
        self._handlers.update({
            RECONFIG_KIND: self._on_reconfig,
            "recovery.lock_report": self._on_lock_report,
        })

    def _on_reconfig(self, msg: Message) -> Generator:
        """Reconfigure around a permanently dead peer.

        Node 0 receives the coordinator's verdict first, repairs the
        global structures (barrier membership, copysets, homes, orphan
        pages from the last checkpoint) and broadcasts the amended
        verdict to the survivors; every node — node 0 included — then
        runs the common part: token regeneration for locks it manages,
        scrubbing every table that routes to the dead node, failing
        requests blocked on it, and crediting whatever it still owed
        the current barrier exchange.
        """
        dead = msg.payload["dead"]
        info: Dict[str, Any] = msg.payload
        rec = self.world.recovery
        rehomed = [lk for lk in range(self.sync.num_locks)
                   if self.sync.lock_manager(lk) == dead]
        if info.get("origin") == "coordinator":
            minfo = self.bar_mgr.remove_member(dead)
            rec.stats.barrier_reconfigs += 1
            if rehomed:
                # locks managed by the dead node re-home here: collect one
                # report per survivor before serving them again
                self._lockrep_wait = (dead, set(self.bar_mgr.live))
                self._lockrep_reports = []
            for pn in minfo["orphans"]:
                # adopt from the coordinated checkpoint: work the dead
                # node did since that epoch is lost (crash-stop without
                # replication cannot do better)
                img = rec.checkpoints.page_image(dead, pn)
                wpp = self.words_per_page
                yield Delay(self.machine.mem_access_cycles(wpp), "ipc")
                self.store.ensure(pn, None if img is None else img.copy())
                self.cache.invalidate_range(pn * wpp, wpp)
                self._mark_current(pn, self.pages[pn])
                rec.stats.orphan_pages_restored += 1
            info = {"dead": dead, "origin": "manager",
                    "homes": minfo["homes"],
                    "expect_from_dead": minfo["expect_from_dead"]}
            nbytes = 16 + 8 * len(minfo["homes"]) \
                + 8 * len(minfo["expect_from_dead"])
            for node in sorted(self.bar_mgr.live - {self.node_id}):
                yield Send(node, Message(RECONFIG_KIND, dict(info),
                                         nbytes), "ipc")
        # ---- common reconfiguration on every surviving node
        yield self._list_delay(self.machine.num_procs, "ipc")
        # lock-manager role: purge the dead node from the queues and
        # regenerate any token it held, unblocking waiters
        grants, regen, purged = self.lock_mgr.peer_dead(dead)
        rec.stats.tokens_regenerated += regen
        rec.stats.waiters_purged += purged
        for result in grants:
            yield self._send_grant(*result)
        # follow the manager's home reassignments, also in the pending
        # exchange's instructions: they predate the death, and the
        # post-barrier cleanup would re-home pages to the dead node (the
        # manager's copy of them is read only for a dead node's sends)
        homes = info.get("homes", {})
        self.homes.update(homes)
        if self._bar_instr is not None:
            self._bar_instr.homes.update(homes)
        # scrub per-page state that routes to the dead node
        for pn, meta in self.pages.items():
            if meta.cs_diff_source is not None \
                    and meta.cs_diff_source[1] == dead:
                # its CS diff history died with it: full refetch instead
                meta.cs_diff_source = None
                meta.needs_refetch = True
            if any(wn.writer == dead for wn in meta.pending_notices):
                # its outside-of-CS diffs are gone too
                meta.pending_notices = {wn: None
                                        for wn in meta.pending_notices
                                        if wn.writer != dead}
                meta.needs_refetch = True
        # buffered eager pushes from the dead node are garbage
        for lock in [lk for lk, pu in self.pending_updates.items()
                     if pu.sender == dead]:
            self._discard_update(self.pending_updates.pop(lock), "peer_dead")
        # an acquirer blocked on the dead node's push degrades to the
        # lost-push fallback (same path as a push dropped by the network)
        expect = self._upset_expect
        if expect is not None and expect[1] == dead and not expect[3].done:
            yield Resolve(expect[3], None)
        yield from self._fail_requests_to(dead)
        # locks the dead node managed: re-home them to node 0 and
        # re-register our holds and wants so the adoptive manager can
        # rebuild queue state (the manager-side state died with the node)
        if rehomed:
            self._mgr_remap[dead] = 0
            report = self._lock_report_for(rehomed)
            if self.node_id == 0:
                yield from self._collect_lock_report(report)
            else:
                nbytes = 4 * (1 + 2 * len(report["holds"])
                              + len(report["wants"])
                              + 3 * len(report["serviceable"]))
                yield Send(0, Message("recovery.lock_report", report,
                                      nbytes), "ipc")
        # credit the bar_diffs / bar_wn messages the dead node owed us
        owed = info.get("expect_from_dead", {}).get(self.node_id)
        if owed is not None and self._bar_instr is not None:
            got = self._bar_recv_from.get(dead, [0, 0])
            self._bar_recv_diffs += max(0, owed[0] - got[0])
            self._bar_recv_wns += max(0, owed[1] - got[1])
        yield from self._maybe_barrier_done()
        # manager: the death may have made a phase complete with the dead
        # node as its last straggler
        if self.bar_mgr is not None:
            if self.bar_mgr.all_arrived():
                yield from self._bar_broadcast_instructions()
            elif self.bar_mgr.all_done():
                yield from self._bar_finish()

    def _deferred_for_rebuild(self, op: str, p: Dict[str, Any]) -> bool:
        """Hold back lock traffic for a lock adopted from a dead manager
        while survivor reports are still arriving: granting now could
        duplicate a token a survivor is about to report held."""
        if (self._lockrep_wait is None or
                self.sync.lock_manager(p["lock"]) != self._lockrep_wait[0]):
            return False
        self._lockrep_deferred.append((op, dict(p)))
        return True

    def _lock_report_for(self, rehomed: List[int]) -> Dict[str, Any]:
        """This node's contribution to rebuilding a dead manager's locks:
        tokens it holds, grants it is blocked on, and the per-lock diff
        history it can serve (``aec.cs_diff_req``)."""
        holds: List[Tuple[int, int]] = []
        wants: List[int] = []
        serviceable: List[Tuple[int, int, int]] = []
        for lk in rehomed:
            if lk in self.locks_held:
                holds.append((lk, self.sessions[lk].acquire_counter))
            fut = self._grant_futs.get(lk)
            if fut is not None and not fut.done:
                wants.append(lk)
            sess = self.sessions.get(lk)
            if sess is not None:
                for pg in sorted(sess.diff_store):
                    serviceable.append((lk, pg, sess.acquire_counter))
        return {"node": self.node_id, "step": self.step, "holds": holds,
                "wants": wants, "serviceable": serviceable}

    def _on_lock_report(self, msg: Message):
        rep = msg.payload
        yield self._list_delay(len(rep["holds"]) + len(rep["wants"])
                               + len(rep["serviceable"]), "ipc")
        yield from self._collect_lock_report(rep)

    def _collect_lock_report(self, rep: Dict[str, Any]) -> Generator:
        if self._lockrep_wait is None:
            raise RuntimeError(
                f"node {self.node_id}: unsolicited lock report from "
                f"node {rep['node']}")
        self._lockrep_reports.append(rep)
        _dead, waiting = self._lockrep_wait
        waiting.discard(rep["node"])
        if not waiting:
            yield from self._rebuild_rehomed_locks()

    def _rebuild_rehomed_locks(self) -> Generator:
        """Every survivor reported: reconstruct the dead manager's locks.

        Holder and waiters come straight from the reports (FIFO arrival
        order at the dead manager is unrecoverable, so waiters queue in
        node order — deterministic, merely a different fair order).  The
        page history is rebuilt from the diffs survivors can actually
        serve, newest acquire counter winning, so invalidate lists issued
        by the adoptive manager never point into a void.  LAP state
        (affinity, virtual queue) restarts cold.  Anything the dead
        manager alone knew — un-reported releases, its own holds — is
        lost; data loss since the last checkpoint is inherent (§13).
        """
        reports = sorted(self._lockrep_reports, key=lambda r: r["node"])
        deferred = self._lockrep_deferred
        self._lockrep_wait = None
        self._lockrep_reports = []
        self._lockrep_deferred = []
        rec = self.world.recovery
        holders: Dict[int, Tuple[int, int]] = {}
        wants: Dict[int, List[int]] = {}
        history: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for rep in reports:
            for lk, counter in rep["holds"]:
                holders[lk] = (rep["node"], counter)
            for lk in rep["wants"]:
                wants.setdefault(lk, []).append(rep["node"])
            for lk, pg, counter in rep["serviceable"]:
                cur = history.setdefault(lk, {}).get(pg)
                if cur is None or counter > cur[0]:
                    history[lk][pg] = (counter, rep["node"])
        touched = sorted(set(holders) | set(wants) | set(history))
        if touched:
            yield self._list_delay(len(touched), "ipc")
        step = max(rep["step"] for rep in reports)
        for lk in touched:
            ml = self.lock_mgr.lock(lk)
            ml.at_step(step)
            counter_floor = 0
            newest: Optional[Tuple[int, int]] = None
            for pg, (counter, node) in sorted(history.get(lk, {}).items()):
                ml.history[pg] = node
                counter_floor = max(counter_floor, counter)
                if newest is None or counter > newest[0]:
                    newest = (counter, node)
            hold = holders.get(lk)
            if hold is not None:
                node, counter = hold
                ml.pred.holder = node
                ml.pred.last_owner = node
                counter_floor = max(counter_floor, counter)
            elif newest is not None:
                # a real last owner makes the next grant non-trivial, so
                # the acquirer honours the rebuilt invalidate list
                ml.pred.last_owner = newest[1]
            ml.pred.acquire_counter = max(ml.pred.acquire_counter,
                                          counter_floor)
            ml.last_owner_counter = ml.pred.acquire_counter
            rec.stats.locks_rehomed += 1
            for w in wants.get(lk, []):
                result = self.lock_mgr.request(lk, w, step)
                if result is not None:
                    yield self._send_grant(w, *result)
        # traffic that raced the rebuild replays in arrival order
        for op, p in deferred:
            yield from self._manage(op, p)
