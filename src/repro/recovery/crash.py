"""Crash-stop injection and the recovery coordinator.

The controller turns a plan's :class:`~repro.faults.plan.NodeCrash` rules
into a deterministic schedule (seeded draws for victim/time), arms the
crash/revive events on the simulator, takes coordinated checkpoints at
barrier epochs, and — for permanent crashes — runs the hub-side
coordinator that declares a node dead after prolonged lease silence and
kicks the protocol-level reconfiguration on node 0.

Crash semantics (DESIGN.md §13): crash-stop with coordinated checkpoint +
deterministic replay.  The simulator keeps the victim's live program state
— justified because replay from the last barrier checkpoint with logged
messages reconstructs exactly that state — and materializes the crash's
*distributed* effects instead: the NIC black-holes while down (frames in
either direction are lost, peers' retransmissions and leases do the
healing), and on restart the node's interrupt engine is busy for
``down + restore + replay`` cycles, charged like a scheduled stall.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.network.message import Message
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.detector import LEASE_CYCLES, FailureDetector
from repro.recovery.stats import RecoveryStats

#: loopback kind that delivers the coordinator's verdict into node 0's ISR
RECONFIG_KIND = "recovery.reconfig"
#: hub silence after which the coordinator *declares* a node dead and
#: reconfigures; must comfortably exceed any scheduled restart outage
CRASH_DECLARE_CYCLES = 500_000
#: restoring one page from the local checkpoint image on restart
CKPT_RESTORE_CYCLES_PER_PAGE = 2_000
#: deterministic replay from the last checkpoint runs this much faster
#: than original execution (no misses, no lock waits)
CRASH_REPLAY_SPEEDUP = 2.0


@dataclass(frozen=True)
class ResolvedCrash:
    """One concrete crash after seeded draws: who, when, what fate."""

    node: int
    at: float
    down_cycles: float
    restart: bool


def resolve_crashes(plan, num_procs: int) -> Tuple[ResolvedCrash, ...]:
    """Materialize a plan's crash rules into a concrete schedule.

    Draws come from a dedicated RNG keyed off the plan seed (never the app
    seed), so ``crash-one-node@7`` is one reproducible scenario and every
    seed is a distinct sweep cache cell.  All ``node=None`` crashes in one
    plan share a single drawn victim — the model is one flaky machine.
    """
    if not plan.crashes:
        return ()
    if num_procs < 2:
        raise ValueError("crash plans need at least 2 nodes (node 0 "
                         "hosts the managers and cannot crash)")
    rng = random.Random(((plan.seed * 2654435761) ^ 0x5EED) & 0xFFFFFFFF)
    drawn_victim = None
    out = []
    for c in plan.crashes:
        node = c.node
        if node is None:
            if drawn_victim is None:
                drawn_victim = rng.randrange(1, num_procs)
            node = drawn_victim
        if node >= num_procs:
            raise ValueError(f"crash node {node} out of range "
                             f"(num_procs={num_procs})")
        at = c.at if c.at is not None else rng.uniform(c.at_lo, c.at_hi)
        out.append(ResolvedCrash(node, at, c.down_cycles, c.restart))
    return tuple(sorted(out, key=lambda r: (r.at, r.node)))


class CrashController:
    """Owns the crash schedule, checkpoints and permanent-death protocol."""

    def __init__(self, world) -> None:
        self.world = world
        self.sim = world.sim
        self.machine = world.config.machine
        plan = world.config.faults
        self.stats = RecoveryStats(plan=plan.name, fault_seed=plan.seed)
        self.checkpoints = CheckpointStore()
        self.detector = FailureDetector(self.sim, self.machine, self.stats)
        self.crashes = resolve_crashes(plan, self.machine.num_procs)
        self.stats.schedule = [(c.node, c.at, c.down_cycles, c.restart)
                               for c in self.crashes]
        #: node -> time of its still-active crash (cleared on revive)
        self._dead_since: Dict[int, float] = {}
        #: restart flag of each node's active crash
        self._active_restart: Dict[int, bool] = {}
        #: nodes the coordinator has declared permanently dead
        self._declared: Set[int] = set()

    # ---- wiring ---------------------------------------------------------

    def install(self) -> None:
        sim = self.sim
        sim.transport.controller = self
        for c in self.crashes:
            sim.schedule_call(c.at, lambda c=c: self._crash(c))
        self.detector.start()
        if any(not c.restart for c in self.crashes):
            # the coordinator scan only matters for permanent deaths
            sim.schedule_call(float(LEASE_CYCLES) * 2, self._scan)

    def is_permanently_dead(self, node: int) -> bool:
        return node in self._declared

    # ---- coordinated checkpoints ---------------------------------------

    def on_barrier_epoch(self, epoch: int) -> None:
        pages = self.checkpoints.take(self.world, epoch, self.sim.now)
        self.stats.checkpoints += 1
        self.stats.checkpoint_pages += pages

    # ---- crash / revive -------------------------------------------------

    def _crash(self, c: ResolvedCrash) -> None:
        sim = self.sim
        node = sim.nodes[c.node]
        if node.dead or node.state in ("done", "dead"):
            self.stats.crashes_skipped += 1
            return
        node.dead = True
        self._dead_since[c.node] = sim.now
        self._active_restart[c.node] = c.restart
        self.stats.crashes += 1
        self.stats.down_cycles += c.down_cycles
        spans = self.world.spans
        if c.restart:
            restore_pages = self.checkpoints.pages_for(c.node)
            restore = restore_pages * float(CKPT_RESTORE_CYCLES_PER_PAGE)
            replay = max(0.0, sim.now - self.checkpoints.taken_at) \
                / CRASH_REPLAY_SPEEDUP
            # one busy window covers the whole incident: outage, then
            # checkpoint restore, then deterministic replay to the point
            # of the crash (identical machinery to a scheduled stall)
            start = sim.interrupt(node, c.down_cycles + restore + replay)
            sim.schedule_call(
                sim.now + c.down_cycles,
                lambda: self._revive(c.node, restore, replay, restore_pages))
            if spans is not None:
                up = start + c.down_cycles
                spans.record(c.node, "fault", f"fault.crash n{c.node}",
                             start, up)
                spans.record(c.node, "fault", f"fault.recover n{c.node}",
                             up, up + restore + replay, pages=restore_pages)
        elif spans is not None:
            spans.record(c.node, "fault", f"fault.crash n{c.node} (permanent)",
                         sim.now, sim.now)

    def _revive(self, node_id: int, restore: float, replay: float,
                pages: int) -> None:
        node = self.sim.nodes[node_id]
        node.dead = False
        self._dead_since.pop(node_id, None)
        self._active_restart.pop(node_id, None)
        self.stats.revivals += 1
        self.stats.restored_pages += pages
        self.stats.restore_cycles += restore
        self.stats.replay_cycles += replay

    # ---- permanent-death coordinator (runs at the hub) -------------------

    def _scan(self) -> None:
        sim = self.sim
        if all(n.state in ("done", "dead") for n in sim.nodes):
            return
        now = sim.now
        declare_after = float(CRASH_DECLARE_CYCLES)
        for p in range(1, self.machine.num_procs):
            if p in self._declared or sim.nodes[p].state == "done":
                continue
            silence = now - self.detector.last_heard_by(0, p)
            # the coordinator acts on hub-lease silence; the crash
            # schedule's restart flag only arbitrates the (unsimulatable)
            # race between a declaration and an in-flight restart
            if silence > declare_after and \
                    self._active_restart.get(p) is False:
                self._declare(p)
        sim.schedule_call(now + float(LEASE_CYCLES), self._scan)

    def _declare(self, p: int) -> None:
        sim = self.sim
        self._declared.add(p)
        self.stats.peers_declared_dead += 1
        node = sim.nodes[p]
        node.state = "dead"
        if node.done_time is None:
            node.done_time = self._dead_since.get(p, sim.now)
        self.stats.cancelled_sends += sim.transport.cancel_peer(p)
        spans = self.world.spans
        if spans is not None:
            spans.record(0, "fault", f"fault.declare-dead n{p}",
                         sim.now, sim.now)
        # hand the verdict to node 0's protocol ISR: token regeneration,
        # barrier membership, copyset repair and the reconfig broadcast
        # all run as ordinary (charged) protocol work from there
        msg = Message(RECONFIG_KIND, {"dead": p, "origin": "coordinator"},
                      16)
        sim._inject(0, 0, msg, sim.now)


def install_recovery(world) -> CrashController:
    """Build and arm the crash controller for ``world`` (crashes planned)."""
    controller = CrashController(world)
    controller.install()
    return controller
