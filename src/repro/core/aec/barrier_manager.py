"""AEC barrier management (Section 3.3 of the paper).

The barrier manager (node 0) collects three kinds of lists from every
processor at arrival (locks owned, pages accessed in those critical
sections, pages modified outside critical sections), determines who must
send diffs / write notices to whom, assigns a home node for every page
touched during the step, and finally signals completion once every node has
exchanged and applied its updates.

All computation here is plain state manipulation invoked from ISRs; the
protocol node charges the corresponding list-processing delays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple


@dataclass
class ArrivalInfo:
    """What one node reports when it reaches the barrier."""

    node: int
    #: lock sessions: lock -> (acquire_counter, modified pages, covered pages)
    lock_sessions: Dict[int, Tuple[int, List[int], List[int]]]
    #: pages modified outside critical sections this step
    outside_mod_pages: List[int]
    #: pages accessed (read or written) this step
    accessed_pages: List[int]
    #: validity deltas since the previous barrier
    gained_valid: List[int]
    lost_valid: List[int]
    #: list elements of the arrival (sizes its message and the list
    #: processing on both ends); counted once, the lists never change
    element_count: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.outside_mod_pages) + len(self.accessed_pages)
        n += len(self.gained_valid) + len(self.lost_valid)
        for _counter, mod, cov in self.lock_sessions.values():
            n += 1 + len(mod) + len(cov)
        self.element_count = n


@dataclass
class BarrierInstructions:
    """Per-node instructions computed by the manager (``aec.bar_lists``)."""

    step: int
    #: diffs this node must push: (lock, [pages], [destinations])
    cs_sends: List[Tuple[int, List[int], List[int]]] = field(default_factory=list)
    #: write notices to push: (page, epoch, [destinations])
    wn_sends: List[Tuple[int, int, List[int]]] = field(default_factory=list)
    #: how many bar_diffs / bar_wn messages this node will receive
    expect_diff_msgs: int = 0
    expect_wn_msgs: int = 0
    #: home reassignments (page -> home node)
    homes: Dict[int, int] = field(default_factory=dict)
    #: pages accessed by other nodes this step (eager-diff filter input)
    others_accessed: Set[int] = field(default_factory=set)
    #: pages whose stale local copy cannot be lazily repaired (CS mods went
    #: to valid holders only): drop local recovery info, refetch on fault
    stale_pages: Set[int] = field(default_factory=set)
    #: list elements of the instructions; set by :meth:`count_elements`
    #: once the manager has filled the lists
    element_count: int = 0

    def count_elements(self) -> None:
        n = len(self.homes) * 2 + len(self.others_accessed)
        n += len(self.stale_pages)
        for _, pages, dests in self.cs_sends:
            n += 1 + len(pages) + len(dests)
        for _, _, dests in self.wn_sends:
            n += 2 + len(dests)
        self.element_count = n


class AECBarrierManager:
    """Barrier-manager role (lives on node 0)."""

    def __init__(self, num_procs: int, total_pages: int) -> None:
        self.num_procs = num_procs
        self.step = 0
        #: barrier membership: nodes not declared permanently dead.  All
        #: collection/completion counts run against this set, so barriers
        #: keep completing after a crash reconfiguration (DESIGN.md §13).
        self.live: Set[int] = set(range(num_procs))
        #: nodes believed to hold a valid copy of each page
        self.validset: Dict[int, Set[int]] = {}
        #: nodes holding *some* (possibly stale) copy
        self.copyset: Dict[int, Set[int]] = {}
        #: current home of every page (defaults to node 0, the initial host)
        self.homes: Dict[int, int] = {}
        for pn in range(total_pages):
            self.validset[pn] = {0}
            self.copyset[pn] = {0}
        self._arrivals: Dict[int, ArrivalInfo] = {}
        self._done: Set[int] = set()
        self._phase = "collect"  # collect | exchange
        #: last computed instructions, kept for one exchange phase: a death
        #: mid-exchange must credit receivers for what the dead node would
        #: have sent them
        self._last_instr: Dict[int, BarrierInstructions] = {}

    # ---- arrival collection ---------------------------------------------------

    @property
    def phase(self) -> str:
        return self._phase

    def all_arrived(self) -> bool:
        return self._phase == "collect" and \
            self.live <= set(self._arrivals)

    def all_done(self) -> bool:
        return self._phase == "exchange" and self.live <= self._done

    def arrive(self, info: ArrivalInfo) -> bool:
        if self._phase != "collect":
            raise RuntimeError("barrier arrival during exchange phase")
        if info.node in self._arrivals:
            raise RuntimeError(f"node {info.node} arrived twice")
        self._arrivals[info.node] = info
        return self.all_arrived()

    def compute(self) -> Dict[int, BarrierInstructions]:
        """All nodes arrived: compute the exchange instructions."""
        arrivals = self._arrivals
        # 1. fold in validity deltas reported by the nodes
        for info in arrivals.values():
            for pg in info.gained_valid:
                self.validset.setdefault(pg, set()).add(info.node)
                self.copyset.setdefault(pg, set()).add(info.node)
            for pg in info.lost_valid:
                self.validset.setdefault(pg, set()).discard(info.node)
                # losing validity proves the node holds a (now stale)
                # copy: without this, a copy gained and invalidated in
                # the same step is invisible to the stale marking below
                # and crosses the barrier with dangling recovery state
                self.copyset.setdefault(pg, set()).add(info.node)

        instr = {p: BarrierInstructions(step=self.step) for p in arrivals}

        # 2. outside-of-CS modifications: write notices writer -> all other
        #    copy holders (stale holders need the fresh epoch too, so their
        #    later fault fetches the newest diffs in epoch order)
        writers: Dict[int, Set[int]] = {}
        for info in arrivals.values():
            for pg in info.outside_mod_pages:
                writers.setdefault(pg, set()).add(info.node)
        for pg, ws in sorted(writers.items()):
            holders = self.copyset.setdefault(pg, set())
            for w in sorted(ws):
                dests = sorted(holders - {w})
                if dests:
                    instr[w].wn_sends.append((pg, self.step, dests))
                    for d in dests:
                        if d in instr:
                            instr[d].expect_wn_msgs += 1
            # after the exchange only the writers' copies are current
            self.validset[pg] = set(ws)
            self.copyset.setdefault(pg, set()).update(ws)

        # 3. lock-protected modifications: for every (lock, page), the
        #    *latest session holding that page's diff* (highest acquire
        #    counter among sessions whose covered|modified includes it)
        #    pushes its merged diffs to the remaining valid holders (the
        #    same page may carry several locks' diffs — word-disjoint under
        #    EC); stale copy holders are told to refetch on their next
        #    fault.  Per-page resolution matters: the lock's overall last
        #    owner may never have touched (or received a diff for) a page
        #    an earlier holder modified — taking the last owner for *all*
        #    of the lock's pages would silently drop that page's epoch.
        lock_pages: Dict[int, Set[int]] = {}
        # (lock, page) -> (counter, owner node)
        page_owner: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for info in arrivals.values():
            for lock, (counter, modified, covered) in info.lock_sessions.items():
                lock_pages.setdefault(lock, set()).update(modified)
                for pg in set(covered) | set(modified):
                    cur = page_owner.get((lock, pg))
                    if cur is None or counter > cur[0]:
                        page_owner[(lock, pg)] = (counter, info.node)
        send_groups: Dict[Tuple[int, int, int], List[int]] = {}
        cs_owners: Dict[int, Set[int]] = {}
        for (lock, pg), (counter, owner) in sorted(page_owner.items()):
            holders = self.validset.setdefault(pg, set())
            for d in sorted(holders - {owner}):
                send_groups.setdefault((owner, lock, d), []).append(pg)
            cs_owners.setdefault(pg, set()).add(owner)
            holders.add(owner)
            self.copyset.setdefault(pg, set()).add(owner)
        for pg, owners in sorted(cs_owners.items()):
            stale = (self.copyset.setdefault(pg, set())
                     - self.validset.setdefault(pg, set()))
            for d in sorted(stale):
                if d in instr:
                    instr[d].stale_pages.add(pg)
        for (owner, lock, d), pages in sorted(send_groups.items()):
            instr[owner].cs_sends.append((lock, pages, [d]))
            instr[d].expect_diff_msgs += 1

        # 4. assign homes for every page touched this step
        touched: Set[int] = set(writers)
        for pages in lock_pages.values():
            touched.update(pages)
        homes: Dict[int, int] = {}
        for pg in sorted(touched):
            valid = self.validset.setdefault(pg, set())
            if valid:
                home = min(valid)
            else:
                copy = self.copyset.setdefault(pg, set())
                home = min(copy) if copy else 0
            if self.homes.get(pg, 0) != home:
                self.homes[pg] = home
            homes[pg] = home

        # 5. pages accessed by others (eager-diff filter for the next step):
        #    every accessed page but those only the node itself accessed
        #    (page -> its one accessor, -1 once a second node accessed it)
        accessor: Dict[int, int] = {}
        for info in arrivals.values():
            node = info.node
            for pg in info.accessed_pages:
                if accessor.setdefault(pg, node) != node:
                    accessor[pg] = -1
        accessed = set(accessor)
        alone: Dict[int, Set[int]] = {}
        for pg, node in accessor.items():
            if node >= 0:
                alone.setdefault(node, set()).add(pg)

        # each node gets its own homes dict: crash recovery amends one
        # node's copy in place (recovery/aec.py)
        for p, ins in instr.items():
            ins.homes = dict(homes)
            mine = alone.get(p)
            ins.others_accessed = accessed - mine if mine else set(accessed)
            ins.count_elements()

        self._phase = "exchange"
        self._last_instr = instr
        return instr

    # ---- completion tracking ---------------------------------------------------

    def node_done(self, node: int) -> bool:
        if self._phase != "exchange":
            raise RuntimeError("bar_done outside exchange phase")
        if node in self._done:
            raise RuntimeError(f"node {node} reported done twice")
        self._done.add(node)
        return self.all_done()

    def complete(self) -> int:
        """Finish the episode; returns the new step number."""
        self.step += 1
        self._arrivals.clear()
        self._done.clear()
        self._last_instr = {}
        self._phase = "collect"
        return self.step

    # ---- crash reconfiguration -------------------------------------------------

    def remove_member(self, dead: int) -> Dict[str, object]:
        """Drop a permanently dead node from barrier membership.

        Scrubs the dead node from every validset/copyset, reassigns homes
        it held, and reports what the caller (node 0's recovery hook) must
        repair: ``orphans`` — pages whose *only* copies died with the node
        (node 0 adopts them from the last checkpoint image); ``homes`` —
        reassignments to broadcast; ``expect_from_dead`` — per-receiver
        counts of bar_diffs/bar_wn messages the dead node owed this
        exchange phase, which receivers credit so the phase can end.
        """
        self.live.discard(dead)
        self._arrivals.pop(dead, None)
        self._done.discard(dead)
        orphans: List[int] = []
        homes: Dict[int, int] = {}
        for pg in sorted(set(self.validset) | set(self.copyset)):
            vs = self.validset.setdefault(pg, set())
            cs = self.copyset.setdefault(pg, set())
            vs.discard(dead)
            cs.discard(dead)
            if not cs:
                # every copy died with the node: node 0 adopts the page
                # from the checkpoint image (state since the last barrier
                # epoch is lost — inherent to unreplicated crash-stop)
                orphans.append(pg)
                vs.add(0)
                cs.add(0)
                self.homes[pg] = 0
                homes[pg] = 0
            elif self.homes.get(pg, 0) == dead:
                home = min(vs) if vs else min(cs)
                self.homes[pg] = home
                homes[pg] = home
        expect: Dict[int, List[int]] = {}
        if self._phase == "exchange":
            instr = self._last_instr.get(dead)
            if instr is not None and dead not in self._done:
                for _lock, _pages, dests in instr.cs_sends:
                    for d in dests:
                        expect.setdefault(d, [0, 0])[0] += 1
                for _pg, _epoch, dests in instr.wn_sends:
                    for d in dests:
                        expect.setdefault(d, [0, 0])[1] += 1
        return {"orphans": orphans, "homes": homes,
                "expect_from_dead": expect}
