"""Access-fault accounting (Figure 3 of the paper).

Every shared-memory access fault is timed from trap to resume; faults are
classified by where they occur (inside/outside a critical section) and
whether the page had ever been cached locally (cold start).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AccessFaultStats:
    read_faults: int = 0
    write_faults: int = 0
    #: write faults that only needed a protection upgrade + twin
    protection_faults: int = 0
    cold_faults: int = 0
    #: faults taken while holding at least one lock
    inside_cs_faults: int = 0
    fault_cycles: float = 0.0
    twin_cycles: float = 0.0
    #: faults resolved purely from locally buffered diffs (LAP hit payoff)
    local_resolutions: int = 0
    #: faults that required fetching diffs/pages from remote nodes
    remote_resolutions: int = 0

    @property
    def total_faults(self) -> int:
        return self.read_faults + self.write_faults + self.protection_faults

    def merge(self, other: "AccessFaultStats") -> "AccessFaultStats":
        out = AccessFaultStats()
        for f in out.__dataclass_fields__:
            setattr(out, f, getattr(self, f) + getattr(other, f))
        return out
