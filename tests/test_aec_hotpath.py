"""Property tests: the AEC lock path against the code it replaced.

LAP scores the four Table-3 predictions in one pass, ``merge_diffs``
returns ``newer`` itself when both diffs cover the same words, a release
scans each page once unless an interrupt ran during the creation delay,
merged and pushed critical-section diffs are frozen and shared by
reference, and the water-ns validator builds its contributor table once.
Each is pinned here, over seeded random inputs, against the
straightforward code it replaced (kept below as the reference).
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from repro.apps.water_nsquared import WaterNsquaredApp, _contribution
from repro.core.aec.protocol import AECNode
from repro.core.lap.affinity import AffinityMatrix
from repro.core.lap.predictor import AFFINITY_THRESHOLD, LapPredictor
from repro.core.lap.state import LockPredictionState
from repro.engine.events import Delay, Send
from repro.memory.diff import Diff, merge_diffs
from repro.network.message import Message
from repro.protocols import base
from repro.protocols.adsm import ConsumerSetPredictor
from tests.conftest import make_world


# ---------------------------------------------------------------- reference

def ref_sets(counts, src, threshold):
    """Affinity set and positive set of row ``src`` of a NumPy matrix."""
    row = counts[src].tolist()
    row[src] = 0
    positive = sorted((q for q, v in enumerate(row) if q != src and v > 0),
                      key=lambda q: (-row[q], q))
    total = sum(row)
    if len(row) <= 1 or total == 0:
        return [], positive
    cut = (1.0 + threshold) * (total / (len(row) - 1))
    aset = sorted((q for q, v in enumerate(row)
                   if q != src and v >= cut and v > 0),
                  key=lambda q: (-row[q], q))
    return aset, positive


def ref_first(candidates, releaser, size):
    out = []
    for q in candidates:
        if q != releaser and q not in out:
            out.append(q)
        if len(out) >= size:
            break
    return out


def ref_lap(counts, state, releaser, size):
    """Section 2.2's combination, each set recomputed where it is used."""
    if state.waiting_queue:
        return [state.waiting_queue[0]]
    upset = []

    def fill(candidates):
        for q in candidates:
            if q != releaser and q not in upset:
                upset.append(q)
                if len(upset) >= size:
                    return True
        return False

    if fill(ref_sets(counts, releaser, AFFINITY_THRESHOLD)[0]):
        return upset
    positive = set(ref_sets(counts, releaser, AFFINITY_THRESHOLD)[1])
    if fill([q for q in state.virtual_queue if q in positive]):
        return upset
    if fill(list(state.virtual_queue)):
        return upset
    fill(ref_sets(counts, releaser, AFFINITY_THRESHOLD)[1])
    return upset


def ref_consumers(counts, releaser, size):
    """ADSM's consumer set over the NumPy transfer matrix."""
    involvement = counts.sum(axis=0) + counts.sum(axis=1)
    consumers = [int(q) for q in involvement.argsort()[::-1]
                 if involvement[q] > 0 and q != releaser]
    return consumers[:size]


def ref_score(counts, state, owner, size, consumer_set):
    head = [state.waiting_queue[0]] if state.waiting_queue else None
    return {
        "lap": (ref_consumers(counts, owner, size) if consumer_set
                else ref_lap(counts, state, owner, size)),
        "waitq": head or [],
        "waitq_affinity": head or ref_first(
            ref_sets(counts, owner, AFFINITY_THRESHOLD)[0], owner, size),
        "waitq_virtualq": head or ref_first(state.virtual_queue, owner,
                                            size),
    }


def ref_merge(older, newer):
    """The concatenate / stable-argsort / run-boundary union."""
    offsets = np.concatenate([older.offsets, newer.offsets])
    values = np.concatenate([older.values, newer.values])
    order = np.argsort(offsets, kind="stable")
    offsets = offsets[order]
    keep = np.empty(len(offsets), dtype=bool)
    keep[-1] = True
    np.not_equal(offsets[1:], offsets[:-1], out=keep[:-1])
    return offsets[keep], values[order][keep]


def ref_contributors(app, j, nprocs):
    """water-ns's per-molecule definition, one set per processor."""
    return [p for p in range(nprocs)
            if j in set(app.update_targets(p, nprocs))]


# ------------------------------------------------------------ LAP scoring

def _random_state(rng, nprocs, queues):
    state = LockPredictionState(0, nprocs)
    counts = np.zeros((nprocs, nprocs), dtype=np.int64)
    for _ in range(rng.randint(0, 40)):
        src, dst = rng.randrange(nprocs), rng.randrange(nprocs)
        state.affinity.record_transfer(src, dst)
        if src != dst:
            counts[src, dst] += 1
    if queues:
        state.virtual_queue.extend(
            rng.sample(range(nprocs), rng.randint(0, min(5, nprocs))))
        if rng.random() < 0.4:
            state.waiting_queue.extend(
                rng.sample(range(nprocs), rng.randint(1, min(3, nprocs))))
    return state, counts


@pytest.mark.parametrize("predictor", [LapPredictor, ConsumerSetPredictor],
                         ids=["lap", "adsm"])
@pytest.mark.parametrize("queues", [False, True], ids=["history", "queues"])
@pytest.mark.parametrize("seed", range(6))
def test_one_pass_score_matches_four_predictors(predictor, queues, seed):
    rng = random.Random(8000 + seed)
    for _ in range(40):
        nprocs = rng.choice([1, 2, 4, 8, 16])
        state, counts = _random_state(rng, nprocs, queues)
        size = rng.randint(1, 4)
        owner = rng.randrange(nprocs)
        got = predictor(size).score(state, owner)
        want = ref_score(counts, state, owner, size,
                         predictor is ConsumerSetPredictor)
        assert got == want
        assert got["lap"] == predictor(size).predict(state, owner)


def test_score_computes_each_set_at_most_once(monkeypatch):
    rng = random.Random(1)
    calls = {"affinity_set": 0, "positive_set": 0}
    for name in calls:
        def counted(self, *args, _name=name,
                    _fn=getattr(AffinityMatrix, name)):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(AffinityMatrix, name, counted)
    for _ in range(50):
        state, _counts = _random_state(rng, 8, queues=True)
        before = dict(calls)
        LapPredictor(rng.randint(1, 4)).score(state, rng.randrange(8))
        assert calls["affinity_set"] - before["affinity_set"] <= 1
        assert calls["positive_set"] - before["positive_set"] <= 1


# ------------------------------------------------------------ diff merge

def _sorted_diff(rng, offsets, counter=0, origin=-1):
    return Diff(0, np.array(offsets, dtype=np.int32),
                np.array([rng.uniform(-9, 9) for _ in offsets]),
                acquire_counter=counter, origin=origin)


@pytest.mark.parametrize("seed", range(10))
def test_equal_offsets_merge_returns_newer(seed):
    rng = random.Random(9000 + seed)
    words = rng.choice([1, 8, 64, 1024])
    offsets = sorted(rng.sample(range(words), rng.randint(1, min(words, 20))))
    older = _sorted_diff(rng, offsets, counter=1, origin=2)
    newer = _sorted_diff(rng, offsets, counter=4, origin=3)
    merged = merge_diffs(older, newer)
    assert merged is newer
    want_offsets, want_values = ref_merge(older, newer)
    np.testing.assert_array_equal(merged.offsets, want_offsets)
    np.testing.assert_array_equal(merged.values, want_values)
    assert (merged.acquire_counter, merged.origin) == (4, 3)


@pytest.mark.parametrize("seed", range(10))
def test_other_merges_match_the_union(seed):
    rng = random.Random(9100 + seed)
    words = rng.choice([8, 64, 1024])
    a = sorted(rng.sample(range(words), rng.randint(1, 8)))
    b = sorted(rng.sample(range(words), rng.randint(1, 8)))
    if a == b:
        b = sorted(set(b) ^ {rng.randrange(words)}) or [0]
    older, newer = _sorted_diff(rng, a), _sorted_diff(rng, b, counter=7)
    merged = merge_diffs(older, newer)
    assert merged is not newer and merged is not older
    want_offsets, want_values = ref_merge(older, newer)
    np.testing.assert_array_equal(merged.offsets, want_offsets)
    np.testing.assert_array_equal(merged.values, want_values)
    assert merged.nwords == len(want_offsets)


# ------------------------------------------------- release: scan and push

LOCK, PN = 1, 2


def _holder(update_set=(2, 3)):
    """Node 1 inside lock ``LOCK``'s critical section, having written
    three words of page ``PN``."""
    world = make_world(num_procs=4, locks=4)
    nodes = [AECNode(world, i) for i in range(4)]
    node = nodes[1]
    node.store.ensure(PN)
    page = node.store.page(PN)
    meta = node.pages[PN]
    meta.valid = meta.writable = True
    meta.twin = page.copy()
    meta.inside_lock = LOCK
    page[[3, 40, 41]] = [1.5, 2.5, 3.5]
    sess = node.sessions[LOCK]
    sess.acquire_counter = 5
    sess.update_set = list(update_set)
    sess.current_cs_mods.add(PN)
    node.lock_stack.append(LOCK)
    node.locks_held.add(LOCK)
    return world, node


def _interrupt_applies(world, node, offsets, values):
    """Deliver, through the engine, a message whose handler applies a
    diff to ``PN`` (page only, like ``apply_diff_timed``)."""
    diff = Diff(PN, np.array(offsets, dtype=np.int32),
                np.array(values, dtype=np.float64), origin=0)
    node._handlers["test.apply"] = \
        lambda msg: node.apply_diff_timed(msg.payload, "ipc")
    msg = Message("test.apply", diff, 16)
    msg.src, msg.dst = 0, node.node_id
    world.sim._deliver(msg)


def test_interrupt_during_creation_reaches_the_released_diff():
    world, node = _holder()
    release = node.release(LOCK)
    create = next(release)
    assert isinstance(create, Delay) and create.category == "synch"
    before = node.timeline.isr_cycles_total
    _interrupt_applies(world, node, [7, 40], [70.0, 400.0])
    assert node.timeline.isr_cycles_total > before
    ops = list(release)
    merged = node.sessions[LOCK].diff_store[PN]
    got = dict(zip(merged.offsets.tolist(), merged.values.tolist()))
    assert got == {3: 1.5, 7: 70.0, 40: 400.0, 41: 3.5}
    pushes = [op.message.payload["diffs"][PN] for op in ops
              if isinstance(op, Send) and op.message.kind == "aec.upset_diffs"]
    assert pushes and all(d is merged for d in pushes)


def test_creation_without_interrupt_scans_once(monkeypatch):
    scans = []
    create = base.create_diff

    def counted(*args, **kwargs):
        scans.append(args[0])
        return create(*args, **kwargs)

    monkeypatch.setattr(base, "create_diff", counted)
    _world, node = _holder()
    list(node.release(LOCK))
    assert scans == [PN]
    merged = node.sessions[LOCK].diff_store[PN]
    assert merged.offsets.tolist() == [3, 40, 41]


def test_pushed_diffs_are_shared_and_read_only():
    world, node = _holder(update_set=(0, 2, 3))
    ops = list(node.release(LOCK))
    pushes = [op for op in ops if isinstance(op, Send)
              and op.message.kind == "aec.upset_diffs"]
    assert [op.dst for op in pushes] == [0, 2, 3]
    diffs = [op.message.payload["diffs"][PN] for op in pushes]
    stored = node.sessions[LOCK].diff_store[PN]
    assert all(d is stored for d in diffs)
    # the wire size is what one copy per destination used to cost
    assert {op.message.payload_bytes for op in pushes} == {
        stored.size_bytes + 8}
    assert world.diff_stats.lap_pushes == 3
    with pytest.raises(ValueError):
        stored.values[0] = 0.0
    with pytest.raises(ValueError):
        stored.offsets[0] = 0


def test_merged_diffs_are_read_only():
    rng = random.Random(3)
    _world, node = _holder()
    # history from the last owner over different words: a real merge
    old = _sorted_diff(rng, [3, 9], counter=4, origin=0)
    old.page_number = PN
    node._absorb_lock_diff(LOCK, old.freeze())
    assert node.sessions[LOCK].diff_store[PN] is old
    list(node.release(LOCK))
    merged = node.sessions[LOCK].diff_store[PN]
    assert merged is not old
    assert merged.offsets.tolist() == [3, 9, 40, 41]
    assert merged.values[0] == 1.5  # the releaser's word wins
    for arr in (merged.offsets, merged.values):
        with pytest.raises(ValueError):
            arr[0] = 0
    # an acquirer folding the pushed diff into its history merges into a
    # fresh frozen diff, never into the shared one
    _w2, other = _holder()
    mine = _sorted_diff(rng, [1], counter=2)
    mine.page_number = PN
    other._absorb_lock_diff(LOCK, mine.freeze())
    other._absorb_lock_diff(LOCK, merged)
    folded = other.sessions[LOCK].diff_store[PN]
    assert folded is not merged and not folded.values.flags.writeable
    assert merged.offsets.tolist() == [3, 9, 40, 41]


# --------------------------------------------------- water-ns validation

@pytest.mark.parametrize("molecules,nprocs", [
    (2, 1), (8, 2), (8, 3), (16, 4), (64, 16), (32, 16)])
def test_water_contributor_table_matches_per_molecule(molecules, nprocs):
    app = WaterNsquaredApp(num_molecules=molecules, steps=3)
    table = app.contributor_table(nprocs)
    assert len(table) == molecules
    for j in range(molecules):
        want = ref_contributors(app, j, nprocs)
        assert table[j] == want
        total = 0.0
        for step in range(app.steps):
            for p in want:
                total += _contribution(p, j, step)
        assert app.expected_force(j, table[j]) == total
