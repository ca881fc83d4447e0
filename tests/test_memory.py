"""Unit tests for the DSM memory substrate: layout, page store, diffs."""
import numpy as np
import pytest

from repro.memory.diff import (BYTES_PER_ENTRY, Diff, create_diff,
                               merge_diffs)
from repro.memory.layout import Layout
from repro.memory.pagestore import PageStore
from repro.memory.write_notice import WriteNotice

WPP = 1024


class TestLayout:
    def test_segments_page_aligned_and_disjoint(self):
        lay = Layout(WPP)
        a = lay.allocate("a", 100)
        b = lay.allocate("b", 2000)
        assert a.base == 0
        assert b.base == WPP  # a rounded up to one page
        assert set(a.pages).isdisjoint(set(b.pages))

    def test_page_enumeration(self):
        lay = Layout(WPP)
        seg = lay.allocate("s", 2 * WPP + 1)
        assert list(seg.pages) == [0, 1, 2]
        assert lay.total_pages == 3

    def test_addr_bounds_checked(self):
        lay = Layout(WPP)
        seg = lay.allocate("s", 10)
        assert seg.addr(9) == 9
        with pytest.raises(IndexError):
            seg.addr(10)
        with pytest.raises(IndexError):
            seg.addr(-1)

    def test_check_range(self):
        seg = Layout(WPP).allocate("s", 10)
        seg.check_range(0, 10)
        with pytest.raises(IndexError):
            seg.check_range(5, 6)
        with pytest.raises(IndexError):
            seg.check_range(0, -1)

    def test_duplicate_name_rejected(self):
        lay = Layout(WPP)
        lay.allocate("s", 1)
        with pytest.raises(ValueError):
            lay.allocate("s", 1)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            Layout(WPP).allocate("s", 0)

    def test_pages_of_range(self):
        lay = Layout(WPP)
        lay.allocate("s", 4 * WPP)
        assert list(lay.pages_of_range(0, 1)) == [0]
        assert list(lay.pages_of_range(WPP - 1, 2)) == [0, 1]
        assert list(lay.pages_of_range(0, 0)) == []


class TestPageStore:
    def test_ensure_zero_fill(self):
        ps = PageStore(WPP)
        page = ps.ensure(3)
        assert page.shape == (WPP,)
        assert not page.any()

    def test_ensure_with_content_copies(self):
        ps = PageStore(WPP)
        src = np.arange(WPP, dtype=np.float64)
        page = ps.ensure(0, src)
        src[0] = -1
        assert page[0] == 0  # independent copy

    def test_missing_page_raises(self):
        with pytest.raises(KeyError):
            PageStore(WPP).page(0)

    def test_read_write_roundtrip_within_page(self):
        ps = PageStore(WPP)
        ps.ensure(0)
        ps.write(10, np.array([1.0, 2.0, 3.0]))
        assert list(ps.read(10, 3)) == [1.0, 2.0, 3.0]

    def test_read_write_across_pages(self):
        ps = PageStore(WPP)
        ps.ensure(0)
        ps.ensure(1)
        data = np.arange(10, dtype=np.float64)
        ps.write(WPP - 5, data)
        out = ps.read(WPP - 5, 10)
        np.testing.assert_array_equal(out, data)
        assert ps.page(0)[WPP - 1] == 4
        assert ps.page(1)[0] == 5

    def test_wrong_size_content_rejected(self):
        with pytest.raises(ValueError):
            PageStore(WPP).ensure(0, np.zeros(10))

class TestDiff:
    def test_create_empty_when_identical(self):
        twin = np.zeros(WPP)
        d = create_diff(0, twin, twin.copy())
        assert d.empty and d.size_bytes == 0

    def test_create_captures_changes(self):
        twin = np.zeros(WPP)
        page = twin.copy()
        page[[5, 100, 1023]] = [1.0, 2.0, 3.0]
        d = create_diff(7, twin, page, origin=3)
        assert d.page_number == 7 and d.origin == 3
        assert list(d.offsets) == [5, 100, 1023]
        assert list(d.values) == [1.0, 2.0, 3.0]
        assert d.size_bytes == 3 * BYTES_PER_ENTRY

    def test_apply_restores(self):
        twin = np.zeros(WPP)
        page = twin.copy()
        page[42] = 9.0
        d = create_diff(0, twin, page)
        dest = np.zeros(WPP)
        d.apply(dest)
        np.testing.assert_array_equal(dest, page)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            create_diff(0, np.zeros(4), np.zeros(5))

    def test_offsets_values_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Diff(0, np.array([1], dtype=np.int32), np.array([1.0, 2.0]))

    def test_merge_newer_wins(self):
        older = Diff(0, np.array([1, 2], dtype=np.int32),
                     np.array([10.0, 20.0]))
        newer = Diff(0, np.array([2, 3], dtype=np.int32),
                     np.array([99.0, 30.0]), acquire_counter=5)
        merged = merge_diffs(older, newer)
        assert merged.acquire_counter == 5
        got = dict(zip(merged.offsets.tolist(), merged.values.tolist()))
        assert got == {1: 10.0, 2: 99.0, 3: 30.0}

    def test_merge_with_none(self):
        d = Diff(0, np.array([0], dtype=np.int32), np.array([1.0]))
        merged = merge_diffs(None, d)
        assert merged.nwords == 1
        assert merged is not d  # copy, not alias

    def test_merge_empty_newer_keeps_older_data(self):
        older = Diff(0, np.array([4], dtype=np.int32), np.array([7.0]))
        newer = Diff(0, np.empty(0, dtype=np.int32), np.empty(0),
                     acquire_counter=9, origin=2)
        merged = merge_diffs(older, newer)
        assert merged.nwords == 1
        assert merged.acquire_counter == 9 and merged.origin == 2

    def test_merge_different_pages_rejected(self):
        a = Diff(0, np.array([0], dtype=np.int32), np.array([1.0]))
        b = Diff(1, np.array([0], dtype=np.int32), np.array([1.0]))
        with pytest.raises(ValueError):
            merge_diffs(a, b)

    def test_merge_offsets_sorted(self):
        older = Diff(0, np.array([9, 1], dtype=np.int32),
                     np.array([9.0, 1.0]))
        newer = Diff(0, np.array([5], dtype=np.int32), np.array([5.0]))
        merged = merge_diffs(older, newer)
        assert list(merged.offsets) == sorted(merged.offsets)

    def test_copy_independent(self):
        d = Diff(0, np.array([0], dtype=np.int32), np.array([1.0]))
        c = d.copy()
        c.values[0] = 42.0
        assert d.values[0] == 1.0

class TestWriteNotice:
    def test_fields(self):
        wn = WriteNotice(5, 3, 7)
        assert (wn.page_number, wn.writer, wn.epoch) == (5, 3, 7)

    def test_hashable_and_comparable(self):
        assert WriteNotice(1, 2, 3) == WriteNotice(1, 2, 3)
        assert len({WriteNotice(1, 2, 3), WriteNotice(1, 2, 3)}) == 1

    def test_invalid_writer_rejected(self):
        with pytest.raises(ValueError):
            WriteNotice(0, -1, 0)
