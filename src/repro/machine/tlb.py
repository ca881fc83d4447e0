"""Direct-mapped TLB over shared pages (128 entries, 100-cycle fills).

Most shared references cover a handful of words and therefore touch one or
two pages, so those accesses run a scalar path; wider ranges reuse memoized
``(pages, slots)`` index arrays per page-range shape (bit-identical to the
naive vectorization — the miss test is against the pre-access tags either
way, and duplicate slots require a range wider than the TLB itself).
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.config import MachineParams


class TLB:
    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.entries = machine.tlb_entries
        self._tags = np.full(self.entries, -1, dtype=np.int64)
        self._words_per_page = machine.words_per_page
        self._fill_cycles = float(machine.tlb_fill_cycles)
        #: (first, last) -> (pages, slots) index arrays, shared and read-only
        self._range_cache: Dict[Tuple[int, int], Tuple[np.ndarray,
                                                       np.ndarray]] = {}

    def access(self, addr: int, nwords: int) -> int:
        """Touch the pages covering the word range; returns TLB fills needed."""
        if nwords <= 0:
            return 0
        wpp = self._words_per_page
        first = addr // wpp
        last = (addr + nwords - 1) // wpp
        tags = self._tags
        if last - first <= 1:
            entries = self.entries
            nmiss = 0
            for page in (first, last) if last > first else (first,):
                slot = page % entries
                if tags[slot] != page:
                    tags[slot] = page
                    nmiss += 1
            return nmiss
        key = (first, last)
        cached = self._range_cache.get(key)
        if cached is None:
            pages = np.arange(first, last + 1, dtype=np.int64)
            cached = (pages, pages % self.entries)
            self._range_cache[key] = cached
        pages, slots = cached
        miss_mask = tags[slots] != pages
        nmiss = int(np.count_nonzero(miss_mask))
        if nmiss:
            tags[slots[miss_mask]] = pages[miss_mask]
        return nmiss

    def flush_page(self, page_number: int) -> None:
        """Invalidate a page's entry (protection change / invalidation)."""
        slot = page_number % self.entries
        if self._tags[slot] == page_number:
            self._tags[slot] = -1

    def fill_cycles(self) -> float:
        return self._fill_cycles
