"""Per-node storage of page copies.

Page *contents* live here; coherence state (valid/protected/twins) is
protocol state layered on top.  Values are float64 words: integer-valued
application data is stored exactly, and the costs model 4-byte words
regardless (see DESIGN.md).
"""
from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np


class PageStore:
    def __init__(self, words_per_page: int) -> None:
        self.words_per_page = words_per_page
        self._pages: Dict[int, np.ndarray] = {}

    def has(self, page_number: int) -> bool:
        return page_number in self._pages

    def page(self, page_number: int) -> np.ndarray:
        """The node's copy of the page (must exist)."""
        try:
            return self._pages[page_number]
        except KeyError:
            raise KeyError(f"node has no copy of page {page_number}") from None

    def ensure(self, page_number: int,
               content: Optional[np.ndarray] = None) -> np.ndarray:
        """Materialize a copy (zero-filled or copied from ``content``)."""
        arr = self._pages.get(page_number)
        if arr is None:
            if content is None:
                arr = np.zeros(self.words_per_page, dtype=np.float64)
            else:
                if len(content) != self.words_per_page:
                    raise ValueError("content has wrong page size")
                arr = np.array(content, dtype=np.float64, copy=True)
            self._pages[page_number] = arr
        elif content is not None and content is not arr:
            # protocols sometimes "refresh" a page from the very array the
            # store handed out earlier; copying onto itself is a no-op
            arr[:] = content
        return arr

    def pages_held(self) -> Iterable[int]:
        return self._pages.keys()

    def read(self, addr: int, nwords: int) -> np.ndarray:
        """Gather a word range (may span pages) into one fresh array."""
        wpp = self.words_per_page
        pn, off = divmod(addr, wpp)
        if off + nwords <= wpp:
            # single-page fast path: one slice copy, no divmod loop
            return self.page(pn)[off:off + nwords].copy()
        out = np.empty(nwords, dtype=np.float64)
        self._gather(addr, nwords, out)
        return out


    def _gather(self, addr: int, nwords: int, out: np.ndarray) -> None:
        wpp = self.words_per_page
        pos = 0
        while pos < nwords:
            a = addr + pos
            pn, off = divmod(a, wpp)
            chunk = min(nwords - pos, wpp - off)
            out[pos:pos + chunk] = self.page(pn)[off:off + chunk]
            pos += chunk

    def write(self, addr: int, values: np.ndarray) -> None:
        """Scatter a word range (may span pages) from one array."""
        wpp = self.words_per_page
        nwords = len(values)
        pos = 0
        while pos < nwords:
            a = addr + pos
            pn, off = divmod(a, wpp)
            chunk = min(nwords - pos, wpp - off)
            self.page(pn)[off:off + chunk] = values[pos:pos + chunk]
            pos += chunk
