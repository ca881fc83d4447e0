"""Interval records and the per-node interval log (TreadMarks bookkeeping)."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Tuple

#: list elements of a record besides its pages: writer, index and stamp
RECORD_FIELDS = 3


@dataclass(frozen=True, slots=True)
class IntervalRecord:
    """A closed interval of one writer: its write notices travel as a unit."""

    writer: int
    index: int          # per-writer interval index (vector-clock component)
    stamp: int          # Lamport stamp at close (global partial-order proxy)
    pages: Tuple[int, ...]

    @property
    def element_count(self) -> int:
        return RECORD_FIELDS + len(self.pages)


_INDEX = attrgetter("index")
_PAGES = attrgetter("pages")
#: delivery order of a record batch: Lamport stamp, ties broken by writer
_ORDER = attrgetter("stamp", "writer", "index")


def batch_element_count(records: List[IntervalRecord]) -> int:
    """Summed ``element_count`` of a record batch, as one C-level sum (the
    batch is sized on every grant and barrier message)."""
    return RECORD_FIELDS * len(records) + sum(map(len, map(_PAGES, records)))


class IntervalLog:
    """All interval records a node knows, indexed by writer.

    Per-writer lists stay sorted by interval index (``add`` keeps them so),
    which makes ``newer_than`` a per-writer suffix lookup: its cost follows
    the number of records returned, not the length of the history.
    Records almost always arrive in index order, so ``add`` appends in
    O(1); the rare out-of-order record is placed with a bisect insertion.
    """

    def __init__(self, num_procs: int) -> None:
        self._by_writer: List[List[IntervalRecord]] = [
            [] for _ in range(num_procs)]

    def add(self, rec: IntervalRecord) -> bool:
        """Insert a record; returns False if already known."""
        lst = self._by_writer[rec.writer]
        if not lst or lst[-1].index < rec.index:
            lst.append(rec)
            return True
        pos = bisect_left(lst, rec.index, key=_INDEX)
        if pos < len(lst) and lst[pos].index == rec.index:
            return False
        lst.insert(pos, rec)
        return True

    def newer_than(self, vc: List[int]) -> List[IntervalRecord]:
        """Records the holder of vector clock ``vc`` has not seen, in
        ``(stamp, writer, index)`` order."""
        out: List[IntervalRecord] = []
        for writer, lst in enumerate(self._by_writer):
            threshold = vc[writer]
            if lst and lst[-1].index >= threshold:
                out.extend(lst[bisect_left(lst, threshold, key=_INDEX):])
        out.sort(key=_ORDER)
        return out

    def count(self) -> int:
        return sum(len(v) for v in self._by_writer)
