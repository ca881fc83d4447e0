"""Word-addressed shared segment allocator.

Applications allocate named 1-D segments of shared words; the allocator
rounds each segment to page boundaries so that distinct segments never share
a page (matching how real DSM applications lay out major data structures,
and keeping false sharing *within* a segment, where the paper's applications
actually exhibit it).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Segment:
    name: str
    base: int      # first word address
    nwords: int
    words_per_page: int

    @property
    def end(self) -> int:
        return self.base + self.nwords

    @property
    def first_page(self) -> int:
        return self.base // self.words_per_page

    @property
    def last_page(self) -> int:
        return (self.end - 1) // self.words_per_page

    @property
    def pages(self) -> range:
        return range(self.first_page, self.last_page + 1)

    def addr(self, index: int) -> int:
        """Word address of element ``index`` (bounds-checked)."""
        if not (0 <= index < self.nwords):
            raise IndexError(f"{self.name}[{index}] out of bounds (n={self.nwords})")
        return self.base + index

    def check_range(self, start: int, n: int) -> None:
        if n < 0 or start < 0 or start + n > self.nwords:
            raise IndexError(
                f"{self.name}[{start}:{start + n}] out of bounds (n={self.nwords})"
            )


class Layout:
    def __init__(self, words_per_page: int) -> None:
        if words_per_page <= 0:
            raise ValueError("words_per_page must be positive")
        self.words_per_page = words_per_page
        self._next = 0
        self.segments: Dict[str, Segment] = {}

    def allocate(self, name: str, nwords: int) -> Segment:
        if name in self.segments:
            raise ValueError(f"segment {name!r} already allocated")
        if nwords <= 0:
            raise ValueError("segment must have at least one word")
        seg = Segment(name, self._next, nwords, self.words_per_page)
        pages = (nwords + self.words_per_page - 1) // self.words_per_page
        self._next += pages * self.words_per_page
        self.segments[name] = seg
        return seg

    @property
    def total_pages(self) -> int:
        return self._next // self.words_per_page

    def pages_of_range(self, addr: int, nwords: int) -> range:
        if nwords <= 0:
            return range(0)
        return range(
            addr // self.words_per_page,
            (addr + nwords - 1) // self.words_per_page + 1,
        )

    def all_segments(self) -> List[Segment]:
        return list(self.segments.values())
