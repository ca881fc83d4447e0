"""Counters for injected network faults and transport recovery work.

Named ``NetFaultStats`` to stay distinct from the page-access fault
counters in :mod:`repro.stats.fault_stats` (``AccessFaultStats``), which
count protocol page faults, not network failures.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class NetFaultStats:
    """One run's injected faults and the transport's recovery effort."""

    plan: str = ""
    fault_seed: int = 0
    #: messages dropped in flight by the injector
    dropped: int = 0
    #: duplicate copies the injector put on the wire
    duplicated: int = 0
    #: messages whose delivery was jittered
    jittered: int = 0
    #: total extra delivery delay injected (cycles)
    jitter_cycles: float = 0.0
    #: extra streaming cycles from degraded-link multipliers
    degraded_cycles: float = 0.0
    #: scheduled node freezes applied
    stalls: int = 0
    stall_cycles: float = 0.0
    #: retransmissions performed by the reliable transport
    retries: int = 0
    #: retransmission timer expiries that found the message unacked
    timeouts: int = 0
    #: acks put on the wire / acks that made it back
    acks_sent: int = 0
    acks_received: int = 0
    #: arrivals suppressed by receive-side dedup (dups and late retries)
    dup_suppressed: int = 0
    #: AEC update-set pushes that never arrived and degraded to a LAP miss
    lap_fallbacks: int = 0
    #: drops broken down by message kind
    drops_by_kind: Dict[str, int] = field(default_factory=dict)
    #: retransmissions broken down by message kind
    retries_by_kind: Dict[str, int] = field(default_factory=dict)

    def note_drop(self, kind: str) -> None:
        self.dropped += 1
        self.drops_by_kind[kind] = self.drops_by_kind.get(kind, 0) + 1

    def note_retry(self, kind: str) -> None:
        self.retries += 1
        self.retries_by_kind[kind] = self.retries_by_kind.get(kind, 0) + 1

    def summary(self) -> str:
        return (
            f"faults[{self.plan}@{self.fault_seed}]: "
            f"{self.dropped} dropped, {self.duplicated} duplicated, "
            f"{self.jittered} jittered, {self.stalls} stalls; "
            f"transport: {self.retries} retries, "
            f"{self.dup_suppressed} dups suppressed, "
            f"{self.lap_fallbacks} LAP fallbacks"
        )
