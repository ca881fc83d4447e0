"""Diffs: word-level encodings of the modifications made to a page.

A diff records the word offsets that differ between a page and its *twin*
(the pristine copy made before the first write) together with the new
values.  Diff size in bytes is ``8 * nwords`` (4-byte offset + 4-byte value
per encoded word), matching run-length-free encodings used by TreadMarks-era
systems closely enough for the paper's size statistics.

This module is the simulator's diff *data plane* — diff creation, merge,
and apply account for a large share of host time in diff-based protocol
runs — so the implementations are allocation-lean:

* :func:`create_diff` encodes with exactly the two arrays it returns (fancy
  indexing already allocates; no extra defensive copy);
* :func:`merge_diffs` builds the last-writer-wins union with one stable
  sort and a run-boundary mask instead of an ``np.isin`` membership scan,
  and returns ``newer`` itself when both diffs cover the same words;
* :meth:`Diff.apply` is one fancy-index scatter; protocols apply diffs one
  at a time because each apply is charged and, stamped, arbitrated per
  word.

Offsets within one diff are unique and ascending (``create_diff`` and
``merge_diffs`` both guarantee this); the merge fast paths rely on that
invariant.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Any, Collection, Optional

import numpy as np

#: encoded bytes per modified word (offset + value)
BYTES_PER_ENTRY = 8

_NWORDS = attrgetter("nwords")


class Diff:
    """One page's encoded modifications (plain ``__slots__`` class —
    created and copied on the protocol hot path)."""

    __slots__ = ("page_number", "offsets", "values", "acquire_counter",
                 "origin", "nwords")

    def __init__(self, page_number: int, offsets: np.ndarray,
                 values: np.ndarray, acquire_counter: int = 0,
                 origin: int = -1) -> None:
        nwords = len(offsets)
        if nwords != len(values):
            raise ValueError("offsets/values length mismatch")
        #: number of encoded words (the arrays are never resized)
        self.nwords = nwords
        self.page_number = page_number
        #: int32 word offsets within the page (unique, ascending)
        self.offsets = offsets
        #: float64 new values
        self.values = values
        #: lock-acquire counter stamped on merged diffs sent to update sets,
        #: so receivers can discard outdated sets (Section 3.2 of the paper)
        self.acquire_counter = acquire_counter
        #: node that created the (last merge of the) diff
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Diff(page={self.page_number}, nwords={self.nwords}, "
                f"acquire_counter={self.acquire_counter}, "
                f"origin={self.origin})")

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Diff):
            return NotImplemented
        return (self.page_number == other.page_number
                and self.acquire_counter == other.acquire_counter
                and self.origin == other.origin
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.values, other.values))

    __hash__ = None  # type: ignore[assignment]

    @property
    def size_bytes(self) -> int:
        return BYTES_PER_ENTRY * self.nwords

    @property
    def empty(self) -> bool:
        return self.nwords == 0

    def apply(self, page: np.ndarray) -> None:
        if self.nwords:
            page[self.offsets] = self.values

    def freeze(self) -> "Diff":
        """Make the arrays read-only, so the diff can be shared by
        reference: an in-place write raises ``ValueError``.  Returns the
        diff itself."""
        self.offsets.setflags(write=False)
        self.values.setflags(write=False)
        return self

    def copy(self) -> "Diff":
        return Diff(self.page_number, self.offsets.copy(), self.values.copy(),
                    self.acquire_counter, self.origin)


def wire_bytes(diffs: Collection["Diff"]) -> int:
    """Wire size of a batch of diffs: each diff's entries plus its 8-byte
    header (a C-level sum, no per-diff property call)."""
    return BYTES_PER_ENTRY * sum(map(_NWORDS, diffs)) + 8 * len(diffs)


def create_diff(page_number: int, twin: np.ndarray, current: np.ndarray,
                origin: int = -1) -> Diff:
    """Scan a page against its twin and encode the differing words."""
    if twin.shape != current.shape:
        raise ValueError("twin/page shape mismatch")
    changed = np.nonzero(twin != current)[0]
    # both arrays below are fresh allocations (astype copies, fancy
    # indexing gathers) — the diff never aliases the live page
    return Diff(
        page_number,
        changed.astype(np.int32),
        current[changed],
        origin=origin,
    )


def merge_diffs(older: Optional[Diff], newer: Diff) -> Diff:
    """Merge two diffs for the same page; ``newer`` wins on overlapping words.

    The AEC releaser merges the diffs it received from the last lock owner
    with the diffs it just created, producing a single diff per page that
    describes *all* modifications ever made inside the critical section.

    When ``newer`` covers exactly ``older``'s words (the common case of a
    critical section that rewrites the same record), the union is
    ``newer`` and it is returned itself, not a copy: callers treat merged
    diffs as immutable (DESIGN §11.10).
    """
    if older is None or not older.nwords:
        return newer.copy()
    if older.page_number != newer.page_number:
        raise ValueError("cannot merge diffs of different pages")
    if not newer.nwords:
        out = older.copy()
        out.acquire_counter = newer.acquire_counter
        out.origin = newer.origin
        return out
    if (older.nwords == newer.nwords
            and older.offsets.tobytes() == newer.offsets.tobytes()):
        # the same unique offsets in the same order (create_diff and this
        # merge both emit them sorted): the union below would rebuild
        # ``newer`` word for word
        return newer
    # Concatenate older + newer and stable-sort by offset: entries from
    # ``newer`` land after colliding ``older`` entries, so keeping the last
    # entry of each equal-offset run implements newer-wins without the
    # O(n*m) membership scan of np.isin.
    offsets = np.concatenate([older.offsets, newer.offsets])
    values = np.concatenate([older.values, newer.values])
    order = np.argsort(offsets, kind="stable")
    offsets = offsets[order]
    n = len(offsets)
    keep = np.empty(n, dtype=bool)
    keep[-1] = True
    np.not_equal(offsets[1:], offsets[:-1], out=keep[:-1])
    return Diff(newer.page_number, offsets[keep], values[order][keep],
                newer.acquire_counter, newer.origin)

