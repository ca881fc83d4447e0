"""Unit tests for the node hardware model: cache, TLB, write buffer."""
import random

import numpy as np
import pytest

from repro.config import MachineParams
from repro.machine.cache import DirectMappedCache
from repro.machine.node import NodeHardware
from repro.machine.tlb import TLB
from repro.machine.write_buffer import WriteBuffer


class TestCache:
    def make(self):
        return DirectMappedCache(MachineParams())

    def test_cold_miss_then_hit(self):
        c = self.make()
        assert c.access(0, 8) == 1   # one line
        assert c.access(0, 8) == 0   # now cached

    def test_range_spans_lines(self):
        c = self.make()
        # 20 words starting at word 4 touch lines 0,1,2 (8 words/line)
        assert c.access(4, 20) == 3

    def test_conflict_eviction(self):
        c = self.make()
        other = c.num_lines * c.words_per_line  # maps to same set 0
        assert c.access(0, 1) == 1
        assert c.access(other, 1) == 1  # evicts line 0
        assert c.access(0, 1) == 1      # miss again

    def test_invalidate_range(self):
        c = self.make()
        c.access(0, 64)
        c.invalidate_range(0, 64)
        assert c.access(0, 64) == 8  # 64 words / 8 per line

    def test_invalidate_does_not_touch_other_lines(self):
        c = self.make()
        c.access(0, 8)
        c.access(64, 8)
        c.invalidate_range(0, 8)
        assert c.access(64, 8) == 0

    def test_zero_length_access(self):
        c = self.make()
        assert c.access(0, 0) == 0
        c.invalidate_range(0, 0)  # no-op

    def test_hit_miss_counters(self):
        c = self.make()
        c.access(0, 16)
        c.access(0, 16)
        assert c.misses == 2 and c.hits == 2

    def test_whole_cache_fits(self):
        c = self.make()
        words = c.num_lines * c.words_per_line
        assert c.access(0, words) == c.num_lines
        assert c.access(0, words) == 0


class TestTLB:
    def make(self):
        return TLB(MachineParams())

    def test_fill_then_hit(self):
        t = self.make()
        assert t.access(0, 10) == 1
        assert t.access(0, 10) == 0

    def test_range_spanning_pages(self):
        t = self.make()
        wpp = 1024
        assert t.access(wpp - 1, 2) == 2  # crosses a page boundary

    def test_capacity_conflict(self):
        t = self.make()
        wpp = 1024
        t.access(0, 1)
        t.access(128 * wpp, 1)  # page 128 maps onto slot 0
        assert t.access(0, 1) == 1

    def test_flush_page(self):
        t = self.make()
        t.access(0, 1)
        t.flush_page(0)
        assert t.access(0, 1) == 1

    def test_flush_wrong_page_is_noop(self):
        t = self.make()
        t.access(0, 1)
        t.flush_page(5)
        assert t.access(0, 1) == 0

    def test_fill_cost(self):
        assert self.make().fill_cycles() == 100


class TestWriteBuffer:
    def test_small_burst_absorbed(self):
        wb = WriteBuffer(MachineParams())
        assert wb.store_burst_stall(nwords=64, line_misses=2) == 0.0

    def test_huge_burst_stalls(self):
        wb = WriteBuffer(MachineParams())
        stall = wb.store_burst_stall(nwords=64, line_misses=64)
        assert stall > 0

    def test_no_misses_no_stall(self):
        wb = WriteBuffer(MachineParams())
        assert wb.store_burst_stall(nwords=1000, line_misses=0) == 0.0

    def test_stall_accumulates(self):
        wb = WriteBuffer(MachineParams())
        wb.store_burst_stall(8, 128)
        wb.store_burst_stall(8, 128)
        assert wb.stall_cycles_total > 0


class FullInvalidationCache(DirectMappedCache):
    """Reference model: every invalidation compares all the lines of its
    range with NumPy, with no resident-page skip."""

    def invalidate_range(self, addr, nwords):
        if nwords <= 0:
            return
        wpl = self.words_per_line
        lines = np.arange(addr // wpl, (addr + nwords - 1) // wpl + 1)
        sets = lines % self.num_lines
        tags = self._tags
        tags[sets[tags[sets] == lines]] = -1


class TestResidentPageSkip:
    """Whole-page invalidations skip pages with no line filled since their
    last whole-page invalidation; the cache must stay identical to one
    that always takes the NumPy path."""

    # 32 lines of 8 words; 64-word pages (the cache holds 4 of them), and
    # 20-word pages, whose lines straddle page boundaries
    MACHINES = {
        "aligned": MachineParams(cache_bytes=1024, page_bytes=256),
        "straddling": MachineParams(cache_bytes=1024, page_bytes=80),
    }

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_invalidation(self, machine, seed):
        m = self.MACHINES[machine]
        rng = random.Random(7100 + seed)
        cache, ref = DirectMappedCache(m), FullInvalidationCache(m)
        wpp, wpl = m.words_per_page, m.words_per_line
        # 16 pages: four times the cache, so sets conflict across pages
        pages = 16
        skipped = 0
        for step in range(3000):
            op = rng.random()
            if op < 0.55:
                pn = rng.randrange(pages)
                addr = pn * wpp + rng.randrange(wpp)
                # one or two lines (scalar path), a block of lines, or a
                # range across two or three pages (vector path)
                n = rng.choice([1, 2, wpl, rng.randint(3, 4 * wpl),
                                rng.randint(wpp, 3 * wpp)])
                n = min(n, pages * wpp - addr)
                assert cache.access(addr, n) == ref.access(addr, n), step
            elif op < 0.9:
                pn = rng.randrange(pages)
                skipped += pn not in cache._resident
                cache.invalidate_range(pn * wpp, wpp)
                ref.invalidate_range(pn * wpp, wpp)
            else:
                # a partial range or one spanning pages
                addr = rng.randrange(pages * wpp)
                n = min(rng.randint(1, 2 * wpp), pages * wpp - addr)
                cache.invalidate_range(addr, n)
                ref.invalidate_range(addr, n)
            assert np.array_equal(cache._tags, ref._tags), step
            assert (cache.hits, cache.misses) == (ref.hits, ref.misses), step
        assert skipped > 100, "the stream never exercised the skip"


class LineLoopCache(FullInvalidationCache):
    """Reference model: every access checks and fills its lines one by
    one (no scalar/vector split, no memoized index arrays, no
    resident-page skip)."""

    def access(self, addr, nwords):
        if nwords <= 0:
            return 0
        wpl = self.words_per_line
        nmiss = 0
        for line in range(addr // wpl, (addr + nwords - 1) // wpl + 1):
            s = line % self.num_lines
            if self._tags[s] == line:
                self.hits += 1
            else:
                self._tags[s] = line
                self.misses += 1
                nmiss += 1
        return nmiss


class PageLoopTLB(TLB):
    """Reference model: every access checks and fills its pages one by
    one."""

    def access(self, addr, nwords):
        if nwords <= 0:
            return 0
        wpp = self._words_per_page
        nmiss = 0
        for page in range(addr // wpp, (addr + nwords - 1) // wpp + 1):
            s = page % self.entries
            if self._tags[s] != page:
                self._tags[s] = page
                nmiss += 1
        return nmiss


class TestVectorPaths:
    """Ranges of three or more lines (pages) take the vector path, which
    counts misses with ``np.count_nonzero``; they must match a line-by-line
    (page-by-page) loop, also when their sets wrap past the last line (the
    last TLB slot).  No range spans the whole cache or TLB, so sets within
    one access are distinct, as the vector path assumes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cache_matches_line_loop(self, seed):
        m = MachineParams(cache_bytes=1024, page_bytes=256)  # 32 lines
        rng = random.Random(7300 + seed)
        cache, ref = DirectMappedCache(m), LineLoopCache(m)
        wpl, lines = m.words_per_line, m.cache_lines
        wrapped = 0
        for step in range(3000):
            if rng.random() < 0.3:
                # sets wrap: from the last few lines of one cache-sized
                # stretch into the first lines of the next
                first = rng.randrange(8) * lines + lines - rng.randint(1, 4)
                nlines = rng.randint(3, lines - 1)
            else:
                first = rng.randrange(8 * lines)
                nlines = rng.randint(1, lines - 1)
            wrapped += (first % lines) + nlines > lines
            addr = first * wpl + rng.randrange(wpl)
            n = max(1, (first + nlines) * wpl - addr - rng.randrange(wpl))
            assert cache.access(addr, n) == ref.access(addr, n), step
            if rng.random() < 0.2:
                pn = rng.randrange(8 * lines * wpl // m.words_per_page)
                cache.invalidate_range(pn * m.words_per_page,
                                       m.words_per_page)
                ref.invalidate_range(pn * m.words_per_page,
                                     m.words_per_page)
            assert np.array_equal(cache._tags, ref._tags), step
            assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert wrapped > 100

    @pytest.mark.parametrize("seed", range(4))
    def test_tlb_matches_page_loop(self, seed):
        m = MachineParams(tlb_entries=16, page_bytes=64)
        rng = random.Random(7400 + seed)
        tlb, ref = TLB(m), PageLoopTLB(m)
        wpp, entries = m.words_per_page, m.tlb_entries
        wrapped = 0
        for step in range(2000):
            first = rng.randrange(6 * entries)
            npages = rng.randint(1, entries - 1)
            wrapped += (first % entries) + npages > entries
            addr = first * wpp + rng.randrange(wpp)
            n = max(1, (first + npages) * wpp - addr)
            assert tlb.access(addr, n) == ref.access(addr, n), step
            if rng.random() < 0.2:
                page = rng.randrange(6 * entries)
                tlb.flush_page(page)
                ref.flush_page(page)
            assert np.array_equal(tlb._tags, ref._tags), step
        assert wrapped > 100


class TestNodeHardware:
    def test_read_cost_components(self):
        hw = NodeHardware(MachineParams())
        cost = hw.access(0, 16, is_write=False)
        # busy: 1 cycle/word; others: 1 TLB fill + 2 line fills
        assert cost.busy == 16
        assert cost.others == 100 + 2 * hw.cache.line_fill_cycles()

    def test_second_access_cheap(self):
        hw = NodeHardware(MachineParams())
        hw.access(0, 16, is_write=False)
        cost = hw.access(0, 16, is_write=False)
        assert cost.others == 0

    def test_page_updated_drops_cache(self):
        hw = NodeHardware(MachineParams())
        hw.access(0, 16, is_write=False)
        # a page's contents changed underneath the cache (diff apply, page
        # fetch): protocols drop its lines
        hw.cache.invalidate_range(0, 1024)
        cost = hw.access(0, 16, is_write=False)
        assert cost.others > 0

    def test_protection_change_flushes_tlb(self):
        hw = NodeHardware(MachineParams())
        hw.access(0, 16, is_write=False)
        hw.page_protection_changed(0)
        cost = hw.access(0, 16, is_write=False)
        assert cost.others == 100  # TLB refill only (cache unaffected)

    def test_zero_access(self):
        hw = NodeHardware(MachineParams())
        cost = hw.access(0, 0, is_write=True)
        assert cost.busy == 0 and cost.others == 0
