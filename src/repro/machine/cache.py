"""Direct-mapped first-level data cache, simulated at line granularity.

Accesses arrive as word ranges (the application API issues block references),
so the tag check is vectorized over the covered lines with NumPy — exact
direct-mapped behaviour at a fraction of the per-word simulation cost.
Addresses are *word* addresses in the global shared segment space.

Two hot-path refinements over the naive vectorization (semantics are
bit-identical; the tag update for a given access is computed against the
pre-access tag state either way):

* accesses covering one or two lines (single-word and small-block
  references, the bulk of app inner loops) run a scalar path with no NumPy
  temporaries at all;
* larger ranges reuse memoized ``(lines, sets)`` per
  ``(first_line, last_line)`` shape — app loops touch the same block
  shapes over and over, so the ``np.arange``/modulo work is paid once.
  ``sets`` is a slice when the range's sets do not wrap past the last
  line (a whole page never wraps), so the tag check runs on a view of
  the tag array instead of gathering and scattering through an index
  array.

Protocols invalidate a whole page every time a diff or a fetch changes it,
and most of those pages have no line cached.  The cache therefore keeps
``_resident``: every page that had a line filled since its last
whole-page invalidation.  Invariant: a page with any valid line in the
cache is in the set (a line that spans a page boundary puts both pages
in).  A whole-page ``invalidate_range`` of a page outside the set returns
at once, which is exact: no tag can equal a line of that page.  Evictions
never remove pages, so they only leave the set conservative.
"""
from __future__ import annotations

from typing import Dict, Set, Tuple, Union

import numpy as np

from repro.config import MachineParams


class DirectMappedCache:
    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.num_lines = machine.cache_lines
        self.words_per_line = machine.words_per_line
        self.words_per_page = machine.words_per_page
        #: pages with a line filled since their last whole-page
        #: invalidation (a superset of the pages with cached lines)
        self._resident: Set[int] = set()
        # tag value -1 == invalid
        self._tags = np.full(self.num_lines, -1, dtype=np.int64)
        self.hits = 0
        self.misses = 0
        #: (first, last) -> (lines, sets) of ``_line_range``, shared and
        #: read-only
        self._range_cache: Dict[Tuple[int, int], Tuple[
            np.ndarray, Union[slice, np.ndarray]]] = {}
        self._line_fill_cycles = machine.mem_access_cycles(
            self.words_per_line)

    def _line_range(self, first: int,
                    last: int) -> Tuple[np.ndarray, Union[slice, np.ndarray]]:
        """``(lines, sets)`` of lines ``first..last``: ``sets`` is a slice
        of the tag array when the sets do not wrap past the last line (so
        ``tags[sets]`` is a view, with no index array to gather through),
        else the index array."""
        key = (first, last)
        cached = self._range_cache.get(key)
        if cached is None:
            lines = np.arange(first, last + 1, dtype=np.int64)
            start = first % self.num_lines
            if start + len(lines) <= self.num_lines:
                cached = (lines, slice(start, start + len(lines)))
            else:
                cached = (lines, lines % self.num_lines)
            self._range_cache[key] = cached
        return cached

    def access(self, addr: int, nwords: int) -> int:
        """Touch ``nwords`` words at ``addr``; returns the number of line misses.

        Missing lines are filled (allocate-on-miss for both reads and writes).
        """
        if nwords <= 0:
            return 0
        wpl = self.words_per_line
        first = addr // wpl
        last = (addr + nwords - 1) // wpl
        tags = self._tags
        if last - first <= 1:
            # scalar fast path: at most two lines, distinct sets guaranteed
            # (duplicate sets need a range spanning the whole cache)
            num_lines = self.num_lines
            nmiss = 0
            for line in (first, last) if last > first else (first,):
                s = line % num_lines
                if tags[s] != line:
                    tags[s] = line
                    nmiss += 1
            if nmiss:
                self._note_resident(first, last)
            self.hits += last - first + 1 - nmiss
            self.misses += nmiss
            return nmiss
        lines, sets = self._line_range(first, last)
        cached = tags[sets]
        miss_mask = cached != lines
        nmiss = int(np.count_nonzero(miss_mask))
        if nmiss:
            if type(sets) is slice:
                cached[miss_mask] = lines[miss_mask]  # writes through the view
            else:
                tags[sets[miss_mask]] = lines[miss_mask]
            self._note_resident(first, last)
        self.hits += len(lines) - nmiss
        self.misses += nmiss
        return nmiss

    def _note_resident(self, first: int, last: int) -> None:
        """Lines ``first..last`` were filled: their pages are resident.
        (Pages whose lines all hit are in the set already.)"""
        wpl = self.words_per_line
        wpp = self.words_per_page
        lo = first * wpl // wpp
        hi = ((last + 1) * wpl - 1) // wpp
        if lo == hi:
            self._resident.add(lo)
        else:
            self._resident.update(range(lo, hi + 1))

    def invalidate_range(self, addr: int, nwords: int) -> None:
        """Drop any cached lines covering the range (page received/updated)."""
        if nwords <= 0:
            return
        wpp = self.words_per_page
        if nwords == wpp and addr % wpp == 0:
            # a whole page: nothing to drop unless it is resident, and
            # afterwards none of its lines is cached
            pn = addr // wpp
            if pn not in self._resident:
                return
            self._resident.discard(pn)
        wpl = self.words_per_line
        first = addr // wpl
        last = (addr + nwords - 1) // wpl
        tags = self._tags
        if last - first <= 1:
            num_lines = self.num_lines
            for line in (first, last) if last > first else (first,):
                s = line % num_lines
                if tags[s] == line:
                    tags[s] = -1
            return
        lines, sets = self._line_range(first, last)
        cached = tags[sets]
        match = cached == lines
        if type(sets) is slice:
            cached[match] = -1  # writes through the view
        else:
            tags[sets[match]] = -1

    def line_fill_cycles(self) -> float:
        return self._line_fill_cycles
