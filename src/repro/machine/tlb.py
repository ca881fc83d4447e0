"""Direct-mapped TLB over shared pages (128 entries, 100-cycle fills)."""
from __future__ import annotations

import numpy as np

from repro.config import MachineParams


class TLB:
    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.entries = machine.tlb_entries
        self._tags = np.full(self.entries, -1, dtype=np.int64)
        self._words_per_page = machine.words_per_page
        self._fill_cycles = float(machine.tlb_fill_cycles)

    def access(self, addr: int, nwords: int) -> int:
        """Touch the pages covering the word range; returns TLB fills needed."""
        if nwords <= 0:
            return 0
        wpp = self._words_per_page
        tags = self._tags
        entries = self.entries
        nmiss = 0
        for page in range(addr // wpp, (addr + nwords - 1) // wpp + 1):
            slot = page % entries
            if tags[slot] != page:
                tags[slot] = page
                nmiss += 1
        return nmiss

    def flush_page(self, page_number: int) -> None:
        """Invalidate a page's entry (protection change / invalidation)."""
        slot = page_number % self.entries
        if self._tags[slot] == page_number:
            self._tags[slot] = -1

    def fill_cycles(self) -> float:
        return self._fill_cycles
