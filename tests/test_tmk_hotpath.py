"""Property tests: the TreadMarks hot path against linear reference models.

`IntervalLog.newer_than` and the diff-request handler return suffixes of
sorted histories, the stamped diff apply has a scalar path for 1-word
diffs, and frozen diffs are served by reference instead of copied.  Each
is pinned here, over seeded random histories, against the straightforward
code it replaced (kept below as the reference).  The stamped apply is
shared with AEC's outside-diff apply, so it is pinned for both protocols.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import MachineParams, SimConfig
from repro.core.aec.protocol import AECNode
from repro.engine.events import Delay, Send
from repro.memory.diff import Diff
from repro.memory.layout import Layout
from repro.network.message import Message
from repro.protocols.base import World
from repro.protocols.treadmarks.interval import IntervalLog, IntervalRecord
from repro.protocols.treadmarks.protocol import TreadMarksNode
from repro.sync.objects import SyncRegistry


# ---------------------------------------------------------------- reference

class RefLog:
    """Unsorted bag of records; every query scans all of them."""

    def __init__(self) -> None:
        self.records = {}

    def add(self, rec):
        key = (rec.writer, rec.index)
        if key in self.records:
            return False
        self.records[key] = rec
        return True

    def newer_than(self, vc):
        out = [r for r in self.records.values() if r.index >= vc[r.writer]]
        return sorted(out, key=lambda r: (r.stamp, r.writer, r.index))


def ref_apply_stamped(page, twin, stamps, guard, diff):
    """The vector max-stamp-wins apply, for diffs of any length; ``guard``
    is the protocol's verdict that unfrozen local writes outrank it."""
    mask = diff.acquire_counter > stamps[diff.offsets]
    if twin is not None and guard:
        mask &= page[diff.offsets] == twin[diff.offsets]
    offs = diff.offsets[mask]
    page[offs] = diff.values[mask]
    stamps[offs] = diff.acquire_counter
    if twin is not None:
        twin[offs] = diff.values[mask]


# ------------------------------------------------------------------ helpers

def tm_nodes(num_procs=4, node_class=TreadMarksNode):
    config = SimConfig(machine=MachineParams(num_procs=num_procs))
    layout = Layout(config.machine.words_per_page)
    layout.allocate("data", 4 * config.machine.words_per_page)
    world = World(config, layout, SyncRegistry(num_procs))
    return world, [node_class(world, i) for i in range(num_procs)]


def drain(gen):
    """Run a protocol generator to completion; return what it yielded."""
    return list(gen) if gen is not None else []


def freeze_writes(node, pn, rng, rounds):
    """Dirty ``pn`` with random writes and freeze it, ``rounds`` times."""
    meta = node.pages[pn]
    page = node.store.page(pn)
    words = len(page)
    for _ in range(rounds):
        meta.twin = page.copy()
        meta.dirty = True
        for off in rng.sample(range(words), rng.choice([1, 1, 2, 5])):
            page[off] += rng.uniform(0.5, 5.0)
        # unrelated traffic advances the Lamport clock between freezes
        node.lamport += rng.randint(0, 3)
        drain(node._freeze_page_diff(pn, "ipc"))
    return meta.frozen


def diff_request(node, pn, floor, requester=1):
    msg = Message("tmk.diff_req", {"pn": pn, "floor": floor,
                                   "req_id": (requester, 1),
                                   "requester": requester}, 12)
    [reply] = [op for op in drain(node._on_diff_req(msg))
               if isinstance(op, Send)]
    return reply.message.payload["diffs"]


# ------------------------------------------------------------ interval log

@pytest.mark.parametrize("seed", range(10))
def test_interval_log_matches_linear_scan(seed):
    rng = random.Random(4000 + seed)
    P = rng.choice([2, 4, 16])
    log, ref = IntervalLog(P), RefLog()
    inserts = []
    for w in range(P):
        n = rng.randint(0, 12)
        inserts += [IntervalRecord(w, i, rng.randint(0, 60),
                                   tuple(rng.sample(range(40), 2)))
                    for i in range(n)]
    rng.shuffle(inserts)                      # out of index order
    inserts += rng.sample(inserts, len(inserts) // 3)  # duplicates
    for rec in inserts:
        assert log.add(rec) == ref.add(rec)
        if rng.random() < 0.3:
            vc = [rng.randint(0, 14) for _ in range(P)]
            assert log.newer_than(vc) == ref.newer_than(vc)
    assert log.count() == len(ref.records)
    for vc in ([0] * P, [99] * P):
        assert log.newer_than(vc) == ref.newer_than(vc)


def test_interval_log_duplicate_of_out_of_order_record():
    log = IntervalLog(1)
    for i in (3, 1, 2):
        assert log.add(IntervalRecord(0, i, i, ()))
    assert not log.add(IntervalRecord(0, 1, 1, ()))
    assert [r.index for r in log.newer_than([2])] == [2, 3]


# ----------------------------------------------------- frozen-diff history

@pytest.mark.parametrize("seed", range(6))
def test_diff_request_serves_frozen_suffix(seed):
    rng = random.Random(5000 + seed)
    _world, nodes = tm_nodes()
    node = nodes[0]
    frozen = freeze_writes(node, 1, rng, rounds=rng.randint(0, 12))
    counters = [d.acquire_counter for d in frozen]
    assert counters == sorted(set(counters))
    floors = [-1, node.lamport, node.lamport + 5] + [
        rng.randint(-1, node.lamport) for _ in range(6)]
    for floor in floors:
        got = diff_request(node, 1, floor)
        want = [d for d in frozen if d.acquire_counter > floor]
        assert len(got) == len(want)
        assert all(g is w for g, w in zip(got, want))


def test_diff_request_freezes_pending_writes_first():
    rng = random.Random(7)
    _world, nodes = tm_nodes()
    node = nodes[0]
    freeze_writes(node, 2, rng, rounds=2)
    meta = node.pages[2]
    meta.twin = node.store.page(2).copy()
    meta.dirty = True
    node.store.page(2)[9] += 1.0
    got = diff_request(node, 2, floor=-1)
    assert len(got) == 3 and got[-1] is meta.frozen[-1]
    assert got[-1].offsets.tolist() == [9]
    assert not meta.dirty and meta.twin is None


def test_freeze_interrupted_by_a_diff_request_freezes_once():
    _world, nodes = tm_nodes()
    node = nodes[0]
    meta = node.pages[1]
    meta.twin = node.store.page(1).copy()
    meta.dirty = True
    node.store.page(1)[4] += 1.0
    # a lazy-hybrid releaser starts freezing and pays its delay ...
    releaser = node._freeze_page_diff(1, "synch")
    assert isinstance(next(releaser), Delay)
    # ... while a diff request's ISR freezes the same page
    served = diff_request(node, 1, floor=-1)
    assert list(releaser) == []
    assert len(meta.frozen) == 1 and meta.frozen[0] is served[0]


def test_frozen_diffs_are_read_only_and_shared():
    rng = random.Random(11)
    _world, nodes = tm_nodes()
    frozen = freeze_writes(nodes[0], 1, rng, rounds=3)
    for d in frozen:
        with pytest.raises(ValueError):
            d.values[0] = 1.0
        with pytest.raises(ValueError):
            d.offsets[0] = 0
    served = diff_request(nodes[0], 1, floor=-1)
    assert [id(d) for d in served] == [id(d) for d in frozen]
    # a copy (AEC, Munin) is writable again and independent
    clone = frozen[0].copy()
    clone.values[0] = 123.0
    assert frozen[0].values[0] != 123.0


# ----------------------------------------------------------- stamped apply

CASES = ("no-stamps", "stale", "equal-stamp", "fresh",
         "dirty-twin-clobber", "dirty-twin-clean-word", "clean-twin")


class TmkStamps:
    """TreadMarks: Lamport stamps; a dirty twin guards every diff."""

    node_class = TreadMarksNode

    @staticmethod
    def stamp(x):
        return x

    @staticmethod
    def mark_dirty(node, pn, meta, dirty, rng):
        meta.dirty = dirty

    @staticmethod
    def guard(node, pn, meta, diff):
        return meta.dirty


class AecStamps:
    """AEC outside diffs: epoch-major stamps; a dirty twin guards only
    diffs older than the step after the one its first write was in."""

    node_class = AECNode

    @staticmethod
    def stamp(x):
        # order-preserving map onto (barrier step << 24) | sequence
        return x if x < 0 else ((x // 8) << 24) | (x % 8)

    @staticmethod
    def mark_dirty(node, pn, meta, dirty, rng):
        if dirty:
            node.outside_dirty_set.add(pn)
            meta.dirty_since_step = rng.randint(0, 2)

    @staticmethod
    def guard(node, pn, meta, diff):
        return (pn in node.outside_dirty_set and diff.acquire_counter
                < ((meta.dirty_since_step + 1) << 24))


def _setup_page(node, pn, rng, case, words, proto=TmkStamps):
    """Put ``pn`` at ``node`` into the state ``case`` names."""
    meta = node.pages[pn]
    node.store.ensure(pn)
    page = node.store.page(pn)
    page[:] = [rng.uniform(-10, 10) for _ in range(words)]
    if case != "no-stamps":
        meta.word_stamps = np.array(
            [proto.stamp(rng.randint(-1, 20)) for _ in range(words)],
            dtype=np.int64)
    if case.startswith("dirty-twin") or case == "clean-twin":
        meta.twin = page.copy()
        proto.mark_dirty(node, pn, meta, case.startswith("dirty-twin"), rng)
    return meta, page


def _random_diff(rng, pn, words, nwords, case, meta, page):
    offsets = sorted(rng.sample(range(words), nwords))
    stamps = meta.word_stamps
    top = -1 if stamps is None else int(stamps[offsets].max())
    if case == "stale":
        counter = rng.randint(-1, max(top, 0))
    elif case == "equal-stamp":
        counter = top        # ties lose: the word already holds this stamp
    else:
        counter = top + rng.randint(1, 5)
    if case == "dirty-twin-clobber":
        # a local write the remote diff must not overwrite
        page[offsets[0]] += 1.0
    return Diff(pn, np.array(offsets, dtype=np.int32),
                np.array([rng.uniform(-50, 50) for _ in offsets]),
                acquire_counter=counter, origin=1)


def _check_stamped_apply(proto, case, nwords, seed):
    rng = random.Random(6000 + 97 * seed + nwords)
    world, nodes = tm_nodes(node_class=proto.node_class)
    node = nodes[1]
    words = node.words_per_page
    meta, page = _setup_page(node, 3, rng, case, words, proto)
    diff = _random_diff(rng, 3, words, nwords, case, meta, page)
    want_page = page.copy()
    want_twin = None if meta.twin is None else meta.twin.copy()
    want_stamps = (np.full(words, -1, dtype=np.int64)
                   if meta.word_stamps is None else meta.word_stamps.copy())
    guard = proto.guard(node, 3, meta, diff)
    ref_apply_stamped(want_page, want_twin, want_stamps, guard, diff)

    ops = drain(node.apply_diff_stamped(3, diff))
    assert [type(op) for op in ops] == [Delay]
    assert ops[0].cycles == node.machine.diff_apply_cycles(nwords)
    np.testing.assert_array_equal(page, want_page)
    np.testing.assert_array_equal(meta.word_stamps, want_stamps)
    if want_twin is not None:
        np.testing.assert_array_equal(meta.twin, want_twin)
    assert world.diff_stats.diffs_applied == 1
    if nwords == 1 and (case in ("stale", "equal-stamp") or (
            case == "dirty-twin-clobber" and guard)):
        # the stamp test or the twin guard refuses the only word
        assert page[diff.offsets[0]] != diff.values[0]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("nwords", [1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_stamped_apply_matches_vector_reference(case, nwords, seed):
    _check_stamped_apply(TmkStamps, case, nwords, seed)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("nwords", [1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_aec_stamped_apply_matches_vector_reference(case, nwords, seed):
    _check_stamped_apply(AecStamps, case, nwords, seed)
