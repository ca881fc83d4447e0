"""Lease-based failure detection on NIC-level traffic.

Detection is *passive* wherever possible: every frame arrival (data, ack,
duplicate — anything the NIC sees) renews the sender's lease at the
receiver, so under normal traffic no extra messages exist at all.  On top
of that, every node streams small heartbeat frames to node 0 (the hub)
so the coordinator can tell a *quiet* peer from a *dead* one; heartbeats
are fire-and-forget NIC traffic (unacked, seq -1) and never touch the CPU.

A peer whose lease has expired is only *suspected*: the reliable
transport switches its pendings to constant-rate probing.  *Declaring* a
node dead is the coordinator's job, after a much longer hub-silence
window — see :class:`repro.recovery.crash.CrashController`.
"""
from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.network.message import Message

#: NIC-level heartbeat frames (filtered before the CPU, like acks)
HEARTBEAT_KIND = "net.heartbeat"
HEARTBEAT_BYTES = 8
#: NIC-level heartbeat period (every node -> node 0, the hub)
HEARTBEAT_CYCLES = 50_000
#: passive lease: a peer silent longer than this is *suspected* dead
LEASE_CYCLES = 150_000


class FailureDetector:
    """Per-(observer, peer) last-heard leases plus the heartbeat pump."""

    def __init__(self, sim, machine, stats) -> None:
        self.sim = sim
        self.machine = machine
        self.stats = stats
        self.lease_cycles = float(LEASE_CYCLES)
        #: (observer, peer) -> last simulated time observer heard peer
        self.last_heard: Dict[Tuple[int, int], float] = {}
        #: (observer, peer) pairs currently past their lease (transition
        #: counting only; membership is refreshed on every frame)
        self._expired: Set[Tuple[int, int]] = set()

    # ---- passive lease bookkeeping --------------------------------------

    def note_frame(self, observer: int, peer: int, now: float) -> None:
        if peer == observer or peer < 0:
            return
        self.last_heard[(observer, peer)] = now
        self._expired.discard((observer, peer))

    def alive(self, observer: int, peer: int, now: float) -> bool:
        """Does ``observer``'s lease on ``peer`` still hold at ``now``?"""
        last = self.last_heard.get((observer, peer))
        if last is None:
            # never heard from the peer: the lease clock starts at the
            # first consultation, not at t=0 — a pair's first-ever
            # exchange late in a run must not read as an expired lease
            self.last_heard[(observer, peer)] = now
            return True
        ok = now - last <= self.lease_cycles
        if not ok and (observer, peer) not in self._expired:
            self._expired.add((observer, peer))
            self.stats.leases_expired += 1
        return ok

    def last_heard_by(self, observer: int, peer: int) -> float:
        return self.last_heard.get((observer, peer), 0.0)

    # ---- heartbeat pump -------------------------------------------------

    def start(self) -> None:
        """Arm one staggered heartbeat loop per non-hub node."""
        sim = self.sim
        period = float(HEARTBEAT_CYCLES)
        for n in range(1, self.machine.num_procs):
            # stagger first beats so the hub's NIC is not hit in lockstep
            first = period * (1.0 + n / self.machine.num_procs)
            sim.schedule_call(first, lambda n=n: self._beat(n))

    def _beat(self, n: int) -> None:
        sim = self.sim
        if all(nd.state in ("done", "dead") for nd in sim.nodes):
            return  # run is winding down; let the event heap drain
        node = sim.nodes[n]
        if node.state != "dead" and not node.dead:
            msg = Message(HEARTBEAT_KIND, {"node": n}, HEARTBEAT_BYTES,
                          src=n, dst=0)
            self.stats.heartbeats_sent += 1
            sim.transmit(msg, sim.now)
        # keep the loop alive even while down: a revived node must resume
        # beating without any protocol action on its part
        sim.schedule_call(sim.now + float(HEARTBEAT_CYCLES),
                          lambda: self._beat(n))
