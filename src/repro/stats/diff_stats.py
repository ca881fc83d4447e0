"""Diff statistics (Table 4 of the paper).

Tracks, per run: average diff size (bytes), average *merged* diff size,
percentage of diffs that result from merges, total diff-creation cycles per
processor, and the share of creation/application cycles that the protocol
hid behind synchronization delays.  Also counts AEC's LAP eager pushes:
messages, bytes, and the bytes discarded unused by discard reason.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class DiffStats:
    num_procs: int = 16

    diffs_created: int = 0
    diff_bytes_total: int = 0

    merged_diffs: int = 0
    merged_bytes_total: int = 0

    create_cycles_total: float = 0.0
    create_cycles_hidden: float = 0.0

    apply_cycles_total: float = 0.0
    apply_cycles_hidden: float = 0.0

    diffs_applied: int = 0
    diffs_wasted: int = 0  # pushed to a mispredicted acquirer and discarded

    #: LAP eager pushes: update-set messages sent and their bytes
    lap_pushes: int = 0
    lap_pushed_bytes: int = 0
    #: pushed diff bytes discarded unused, by discard reason (``stale``,
    #: ``unused``, ``superseded``, ``barrier``, ``outdated``, ``peer_dead``)
    lap_wasted_bytes: Dict[str, int] = field(default_factory=dict)

    def record_create(self, size_bytes: int, cycles: float,
                      hidden_cycles: float) -> None:
        if hidden_cycles > cycles + 1e-9:
            raise ValueError("hidden cycles exceed creation cycles")
        self.diffs_created += 1
        self.diff_bytes_total += size_bytes
        self.create_cycles_total += cycles
        self.create_cycles_hidden += hidden_cycles

    def record_merge(self, merged_size_bytes: int) -> None:
        self.merged_diffs += 1
        self.merged_bytes_total += merged_size_bytes

    def record_push(self, nbytes: int) -> None:
        self.lap_pushes += 1
        self.lap_pushed_bytes += nbytes

    def record_waste(self, reason: str, nbytes: int) -> None:
        self.lap_wasted_bytes[reason] = \
            self.lap_wasted_bytes.get(reason, 0) + nbytes

    def record_apply(self, cycles: float, hidden_cycles: float) -> None:
        if hidden_cycles > cycles + 1e-9:
            raise ValueError("hidden cycles exceed application cycles")
        self.diffs_applied += 1
        self.apply_cycles_total += cycles
        self.apply_cycles_hidden += hidden_cycles

    @property
    def lap_wasted_total(self) -> int:
        return sum(self.lap_wasted_bytes.values())

    # ---- Table 4 columns ---------------------------------------------------

    @property
    def avg_diff_bytes(self) -> float:
        return self.diff_bytes_total / self.diffs_created if self.diffs_created else 0.0

    @property
    def avg_merged_bytes(self) -> float:
        return self.merged_bytes_total / self.merged_diffs if self.merged_diffs else 0.0

    @property
    def merged_fraction(self) -> float:
        return self.merged_diffs / self.diffs_created if self.diffs_created else 0.0

    @property
    def create_cycles_per_proc(self) -> float:
        return self.create_cycles_total / self.num_procs if self.num_procs else 0.0

    @property
    def hidden_create_fraction(self) -> float:
        if self.create_cycles_total == 0:
            return 0.0
        return self.create_cycles_hidden / self.create_cycles_total

    @property
    def hidden_apply_fraction(self) -> float:
        if self.apply_cycles_total == 0:
            return 0.0
        return self.apply_cycles_hidden / self.apply_cycles_total
