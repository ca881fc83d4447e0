"""Counters for the crash/recovery subsystem (``RunResult.recovery``)."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RecoveryStats:
    """What the crash controller, detector and recovery protocol did.

    A plain mutable dataclass (like ``NetFaultStats``): shared by reference
    between the transport and the controller, then attached to the run
    result and pickled across the sweep fan-out.
    """

    plan: str = ""
    fault_seed: int = 0
    #: resolved crash schedule, for provenance: (node, at, down, restart)
    schedule: list = field(default_factory=list)

    # crash/revive lifecycle
    crashes: int = 0
    #: scheduled crashes skipped because the victim was already dead/done
    crashes_skipped: int = 0
    revivals: int = 0
    down_cycles: float = 0.0
    restore_cycles: float = 0.0
    replay_cycles: float = 0.0
    restored_pages: int = 0

    # coordinated checkpoints
    checkpoints: int = 0
    checkpoint_pages: int = 0

    # failure detection
    heartbeats_sent: int = 0
    leases_expired: int = 0
    peers_declared_dead: int = 0

    # dead-window network effects
    frames_blackholed: int = 0
    sends_suppressed: int = 0
    parked_probes: int = 0
    cancelled_sends: int = 0

    # protocol-level reconfiguration around a permanent death
    tokens_regenerated: int = 0
    waiters_purged: int = 0
    barrier_reconfigs: int = 0
    orphan_pages_restored: int = 0
    rerouted_requests: int = 0
    #: locks whose manager died and was rebuilt on node 0 from survivor
    #: reports
    locks_rehomed: int = 0

    def summary(self) -> str:
        bits = [f"recovery[{self.plan}@{self.fault_seed}]:",
                f"{self.crashes} crash(es)", f"{self.revivals} restart(s)",
                f"{self.checkpoints} ckpt(s)"]
        if self.restored_pages:
            bits.append(f"{self.restored_pages} pages restored")
        if self.frames_blackholed or self.sends_suppressed:
            bits.append(f"{self.frames_blackholed} blackholed / "
                        f"{self.sends_suppressed} suppressed frames")
        if self.parked_probes:
            bits.append(f"{self.parked_probes} parked probes")
        if self.peers_declared_dead:
            bits.append(f"{self.peers_declared_dead} declared dead "
                        f"({self.tokens_regenerated} tokens regenerated, "
                        f"{self.locks_rehomed} locks rehomed, "
                        f"{self.orphan_pages_restored} orphans restored)")
        return " ".join(bits[:1]) + " " + ", ".join(bits[1:])
