"""Assembly of one node's hardware model and its access-cost computation."""
from __future__ import annotations

from repro.config import MachineParams
from repro.machine.cache import DirectMappedCache
from repro.machine.tlb import TLB
from repro.machine.write_buffer import WriteBuffer


class AccessCost:
    """Cycle cost of one shared reference (plain ``__slots__`` class —
    these are created once per access on the hot path)."""

    __slots__ = ("busy", "others")

    def __init__(self, busy: float, others: float) -> None:
        self.busy = busy      # issue cycles (1/word), useful work
        self.others = others  # TLB fills + miss fills + write-buffer stalls

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessCost(busy={self.busy!r}, others={self.others!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessCost):
            return NotImplemented
        return self.busy == other.busy and self.others == other.others

    __hash__ = None  # type: ignore[assignment]


_ZERO_COST = AccessCost(0.0, 0.0)


class NodeHardware:
    """Caches/TLB/write-buffer state of one simulated workstation."""

    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.cache = DirectMappedCache(machine)
        self.tlb = TLB(machine)
        self.write_buffer = WriteBuffer(machine)
        # constants hoisted off the per-access path
        self._tlb_fill_cycles = self.tlb.fill_cycles()
        self._line_fill_cycles = self.cache.line_fill_cycles()

    def access(self, addr: int, nwords: int, is_write: bool) -> AccessCost:
        """Cost of a validated shared reference of ``nwords`` at ``addr``."""
        if nwords <= 0:
            return _ZERO_COST
        tlb_fills = self.tlb.access(addr, nwords)
        misses = self.cache.access(addr, nwords)
        others = tlb_fills * self._tlb_fill_cycles
        if is_write:
            if misses:
                others += self.write_buffer.store_burst_stall(nwords, misses)
        elif misses:
            others += misses * self._line_fill_cycles
        return AccessCost(float(nwords), others)

    def page_protection_changed(self, page_number: int) -> None:
        self.tlb.flush_page(page_number)
