"""The result of simulating one (application, protocol) pair."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.stats.breakdown import Breakdown
from repro.stats.diff_stats import DiffStats
from repro.stats.fault_stats import AccessFaultStats


@dataclass
class RunResult:
    app: str
    protocol: str
    num_procs: int
    #: simulated execution time in cycles (max over nodes)
    execution_time: float
    #: per-node breakdowns and their average
    node_breakdowns: List[Breakdown]
    breakdown: Breakdown
    #: per-node application return values (for cross-protocol validation)
    app_results: List[Any]
    diff_stats: DiffStats
    fault_stats: AccessFaultStats
    #: per-lock acquire counts, barrier event count
    lock_acquires: Dict[int, int] = field(default_factory=dict)
    barrier_events: int = 0
    #: LAP success statistics (None when not tracked)
    lap_stats: Optional[Any] = None
    messages_total: int = 0
    network_bytes: int = 0
    events_processed: int = 0
    wall_seconds: float = 0.0
    #: consistency checker outcome (``check.CheckReport``; None when
    #: ``check_consistency`` is off)
    check_report: Optional[Any] = None
    #: injected-fault / reliable-transport counters
    #: (``faults.NetFaultStats``; None when ``config.faults`` is off)
    net_faults: Optional[Any] = None
    #: crash/recovery counters (``recovery.RecoveryStats``; None unless the
    #: plan scheduled crashes)
    recovery: Optional[Any] = None
    #: simulated clock frequency (for cycles -> seconds conversions)
    clock_hz: float = 100e6
    extra: Dict[str, Any] = field(default_factory=dict)

    def meta(self) -> Dict[str, Any]:
        """Small JSON-safe summary for cache inspection (no unpickling)."""
        return {
            "app": self.app,
            "protocol": self.protocol,
            "num_procs": self.num_procs,
            "execution_time": self.execution_time,
            "messages_total": self.messages_total,
            "network_bytes": self.network_bytes,
            "events_processed": self.events_processed,
            "barrier_events": self.barrier_events,
            "lock_acquires_total": self.total_lock_acquires,
            "wall_seconds": self.wall_seconds,
            "check_violations": (self.check_report.total_violations
                                 if self.check_report is not None else None),
            "net_faults": (dataclasses.asdict(self.net_faults)
                           if self.net_faults is not None else None),
            "recovery": (dataclasses.asdict(self.recovery)
                         if self.recovery is not None else None),
        }

    @property
    def total_lock_acquires(self) -> int:
        return sum(self.lock_acquires.values())

    @property
    def simulated_seconds(self) -> float:
        """Execution time converted via the configured machine clock."""
        return self.execution_time / self.clock_hz

    def summary(self) -> str:
        pct = self.breakdown.as_percentages()
        cats = "  ".join(f"{k}={v:5.1f}%" for k, v in pct.items())
        return (
            f"{self.app:<10} {self.protocol:<8} "
            f"T={self.execution_time / 1e6:9.2f}Mcy  {cats}  "
            f"acq={self.total_lock_acquires} bar={self.barrier_events} "
            f"msgs={self.messages_total}"
        )
