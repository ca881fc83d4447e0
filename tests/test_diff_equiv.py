"""Property tests: vectorized diff paths vs a scalar reference model.

The diff data plane (`repro.memory.diff`) is optimized with concatenate +
stable-sort merges and single-scatter applies.  These tests pin the
optimized implementations word-for-word against a deliberately naive
dict-based reference implementation kept here, across seeded random page
sizes, overlap patterns, and empty-diff edge cases.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from repro.memory.diff import Diff, create_diff, merge_diffs


# ---------------------------------------------------------------- reference

def ref_create(page_number, twin, current, origin=-1):
    """Word-by-word scan, the obvious way."""
    offsets, values = [], []
    for i in range(len(twin)):
        if twin[i] != current[i]:
            offsets.append(i)
            values.append(current[i])
    return Diff(page_number, np.array(offsets, dtype=np.int32),
                np.array(values, dtype=np.float64), origin=origin)


def ref_merge(older, newer):
    """Dict union, newer wins; sorted offsets out."""
    words = {}
    for off, val in zip(older.offsets.tolist(), older.values.tolist()):
        words[off] = val
    for off, val in zip(newer.offsets.tolist(), newer.values.tolist()):
        words[off] = val
    offs = sorted(words)
    return Diff(newer.page_number, np.array(offs, dtype=np.int32),
                np.array([words[o] for o in offs], dtype=np.float64),
                newer.acquire_counter, newer.origin)


def ref_apply_many(page, diffs):
    """Sequential word-by-word application, in diff order."""
    for d in diffs:
        for off, val in zip(d.offsets.tolist(), d.values.tolist()):
            page[off] = val


def random_diff(rng, page_number, page_words, max_words=None):
    """A valid diff: unique sorted offsets, random values (maybe empty)."""
    cap = max_words if max_words is not None else page_words
    nwords = rng.randint(0, min(cap, page_words))
    offsets = sorted(rng.sample(range(page_words), nwords))
    values = [rng.uniform(-100.0, 100.0) for _ in offsets]
    return Diff(page_number, np.array(offsets, dtype=np.int32),
                np.array(values, dtype=np.float64),
                acquire_counter=rng.randint(0, 50), origin=rng.randint(0, 15))


def assert_same_diff(got, want):
    assert got.page_number == want.page_number
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.values, want.values)
    assert got.offsets.dtype == np.int32
    assert got.acquire_counter == want.acquire_counter
    assert got.origin == want.origin


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("seed", range(8))
def test_create_diff_matches_scalar_reference(seed):
    rng = random.Random(1000 + seed)
    page_words = rng.choice([1, 2, 7, 64, 256, 1024])
    twin = np.array([rng.uniform(-10, 10) for _ in range(page_words)])
    current = twin.copy()
    # mutate a random subset (possibly none)
    for i in rng.sample(range(page_words), rng.randint(0, page_words)):
        current[i] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)
    got = create_diff(3, twin, current, origin=7)
    want = ref_create(3, twin, current, origin=7)
    assert_same_diff(got, want)
    # the encoded values must be a snapshot, not an alias of the live page
    if got.nwords:
        before = got.values.copy()
        current[got.offsets[0]] += 123.0
        np.testing.assert_array_equal(got.values, before)


@pytest.mark.parametrize("seed", range(12))
def test_merge_diffs_matches_scalar_reference(seed):
    rng = random.Random(2000 + seed)
    page_words = rng.choice([1, 4, 32, 512, 1024])
    older = random_diff(rng, 5, page_words)
    newer = random_diff(rng, 5, page_words)
    got = merge_diffs(older, newer)
    want = ref_merge(older, newer)
    if older.empty:
        # contract: merging from empty returns a copy of newer
        assert_same_diff(got, newer)
    else:
        if newer.empty:
            # older data survives; newer's bookkeeping stamps win
            np.testing.assert_array_equal(
                sorted(got.offsets.tolist()), sorted(want.offsets.tolist()))
            assert got.acquire_counter == newer.acquire_counter
            assert got.origin == newer.origin
        else:
            assert_same_diff(got, want)


def test_merge_full_overlap_newer_wins_everywhere():
    older = Diff(0, np.arange(16, dtype=np.int32), np.full(16, 1.0))
    newer = Diff(0, np.arange(16, dtype=np.int32), np.full(16, 2.0),
                 acquire_counter=3, origin=1)
    merged = merge_diffs(older, newer)
    np.testing.assert_array_equal(merged.offsets, np.arange(16))
    np.testing.assert_array_equal(merged.values, np.full(16, 2.0))


def test_merge_disjoint_keeps_both_sorted():
    older = Diff(0, np.array([8, 2], dtype=np.int32), np.array([8.0, 2.0]))
    newer = Diff(0, np.array([5], dtype=np.int32), np.array([5.0]))
    merged = merge_diffs(older, newer)
    np.testing.assert_array_equal(merged.offsets, [2, 5, 8])
    np.testing.assert_array_equal(merged.values, [2.0, 5.0, 8.0])


def test_single_diff_apply_matches_reference():
    rng = random.Random(4000)
    page = np.array([rng.uniform(-1, 1) for _ in range(64)])
    want = page.copy()
    d = random_diff(rng, 0, 64)
    d.apply(page)
    ref_apply_many(want, [d])
    np.testing.assert_array_equal(page, want)
