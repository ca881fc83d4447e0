"""Property tests: the AEC lock and barrier paths against the code they
replaced.

LAP scores the four Table-3 predictions in one pass, ``merge_diffs``
returns ``newer`` itself when both diffs cover the same words, a release
scans each page once unless an interrupt ran during the creation delay,
merged and pushed critical-section diffs are frozen and shared by
reference, and the water-ns validator builds its contributor table once.
On the barrier path the handlers return tuples of primitives, outside
diffs are served by reference and the manager counts and builds each
list once.  Each is pinned here, over seeded random inputs or whole
runs, against the straightforward code it replaced (kept below as the
reference).
"""
from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.apps.registry import make_app
from repro.apps.water_nsquared import WaterNsquaredApp, _contribution
from repro.config import SimConfig
from repro.core.aec.barrier_manager import (AECBarrierManager, ArrivalInfo,
                                            BarrierInstructions)
from repro.core.aec.protocol import AECNode
from repro.core.lap.affinity import AffinityMatrix
from repro.core.lap.predictor import AFFINITY_THRESHOLD, LapPredictor
from repro.core.lap.state import LockPredictionState
from repro.engine.events import Delay, Resolve, Send
from repro.engine.future import Future
from repro.faults import FaultPlan, NodeCrash
from repro.harness.runner import PROTOCOLS, run_app
from repro.memory.diff import Diff, merge_diffs
from repro.memory.write_notice import WriteNotice
from repro.network.message import Message
from repro.protocols import base
from repro.protocols.adsm import ConsumerSetPredictor
from repro.recovery import crash as crash_mod
from repro.recovery.crash import RECONFIG_KIND
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


# ================================================= the barrier path
#
# The barrier ISRs return tuples of primitives, outside diffs are frozen
# when committed and served by reference, barrier lists are counted once
# and the manager builds homes and others_accessed once per barrier.  The
# generators, the per-node loops and the counting properties they
# replaced are kept below as the reference.

def ref_arrival_count(info):
    n = len(info.outside_mod_pages) + len(info.accessed_pages)
    n += len(info.gained_valid) + len(info.lost_valid)
    for _, (_, mod, cov) in sorted(info.lock_sessions.items()):
        n += 1 + len(mod) + len(cov)
    return n


def ref_instr_count(instr):
    n = len(instr.homes) * 2 + len(instr.others_accessed)
    n += len(instr.stale_pages)
    for _, pages, dests in instr.cs_sends:
        n += 1 + len(pages) + len(dests)
    for _, _, dests in instr.wn_sends:
        n += 2 + len(dests)
    return n


class RefBarrierNode(AECNode):
    """``AECNode`` with the barrier handlers, the outside-diff server and
    the read-fault entry as the generators they were."""

    def handle_read_fault(self, pn):
        yield from self._make_valid(pn)

    def _on_wn_diff_req(self, msg):
        pn = msg.payload["pn"]
        self.requests_seen[pn] = self.requests_seen.get(pn, 0) + 1
        meta = self.pages[pn]
        if pn in self.outside_dirty_set and meta.twin is not None:
            yield from self._freeze_outside_diff(pn, "ipc")
        diffs = [d.copy() for d in meta.frozen
                 if d.acquire_counter > msg.payload["floor"]]
        nbytes = sum(d.size_bytes + 8 for d in diffs) or 4
        yield Send(msg.payload["requester"],
                   self._reply(msg, {"diffs": diffs}, nbytes), "ipc")

    def _on_bar_arrive(self, msg):
        info = msg.payload
        yield self._list_delay(ref_arrival_count(info), "ipc")
        if self.bar_mgr.arrive(info):
            yield from self._bar_broadcast_instructions()

    def _bar_broadcast_instructions(self):
        instructions = self.bar_mgr.compute()
        total = sum(ref_instr_count(i) for i in instructions.values())
        yield self._list_delay(total, "ipc")
        for node, instr in sorted(instructions.items()):
            yield Send(node, Message("aec.bar_lists", instr,
                                     4 * max(ref_instr_count(instr), 1)),
                       "ipc")

    def _on_bar_lists(self, msg):
        instr = msg.payload
        self._bar_instr = instr
        yield self._list_delay(ref_instr_count(instr), "ipc")
        for pn in sorted(instr.stale_pages):
            meta = self.pages[pn]
            meta.pending_notices.clear()
            meta.cs_diff_source = None
            meta.needs_refetch = True
            self.invalidate(pn)
        for lock, pages, dests in instr.cs_sends:
            sess = self.sessions.get(lock)
            diffs = {}
            for pn in pages:
                if sess is not None and pn in sess.diff_store:
                    diffs[pn] = sess.diff_store[pn]
            nbytes = sum(d.size_bytes + 8 for d in diffs.values()) or 8
            for d in dests:
                yield Send(d, Message("aec.bar_diffs",
                                      {"lock": lock, "diffs": dict(diffs)},
                                      nbytes), "ipc")
        for pn, epoch, dests in instr.wn_sends:
            wn = WriteNotice(pn, self.node_id, epoch)
            for d in dests:
                yield Send(d, Message("aec.bar_wn", {"notices": [wn]}, 8),
                           "ipc")
        self._bar_sends_done = True
        yield from self._maybe_barrier_done()

    def _on_bar_diffs(self, msg):
        self._bar_recv_diffs += 1
        self._bar_recv_from.setdefault(msg.src, [0, 0])[0] += 1
        for pn, diff in sorted(msg.payload["diffs"].items()):
            if self.store.has(pn):
                cycles = self.machine.diff_apply_cycles(max(diff.nwords, 1))
                yield Delay(cycles, "ipc")
                diff.apply(self.store.page(pn))
                meta = self.pages[pn]
                if meta.twin is not None:
                    diff.apply(meta.twin)
                wpp = self.words_per_page
                self.cache.invalidate_range(pn * wpp, wpp)
                checker = self.world.checker
                if checker is not None:
                    checker.note_transfer("diff", self.node_id, pn,
                                          diff.origin, self.sim.now)
                self.world.diff_stats.record_apply(cycles, cycles)
        yield from self._maybe_barrier_done()

    def _on_bar_wn(self, msg):
        self._bar_recv_wns += 1
        self._bar_recv_from.setdefault(msg.src, [0, 0])[1] += 1
        for wn in msg.payload["notices"]:
            meta = self.pages[wn.page_number]
            if wn.writer == self.node_id:
                continue
            if not self.store.has(wn.page_number):
                continue
            meta.pending_notices[wn] = None
            self.invalidate(wn.page_number)
        yield Delay(self.machine.list_cycles(len(msg.payload["notices"])),
                    "ipc")
        yield from self._maybe_barrier_done()

    def _maybe_barrier_done(self):
        instr = self._bar_instr
        if (instr is None or self._bar_done_sent or not self._bar_sends_done
                or self._bar_recv_diffs < instr.expect_diff_msgs
                or self._bar_recv_wns < instr.expect_wn_msgs):
            return
        self._bar_done_sent = True
        yield Send(0, Message("aec.bar_done", {"node": self.node_id}, 4),
                   "ipc")

    def _on_bar_done(self, msg):
        yield Delay(self.machine.list_cycles(1), "ipc")
        if self.bar_mgr.node_done(msg.payload["node"]):
            yield from self._bar_finish()

    def _bar_finish(self):
        new_step = self.bar_mgr.complete()
        self.world.note_barrier_complete()
        for node in sorted(self.bar_mgr.live):
            yield Send(node, Message("aec.bar_complete",
                                     {"step": new_step}, 4), "ipc")


def _norm(x):
    """A comparable snapshot of a primitive's operand."""
    if isinstance(x, Diff):
        return ("Diff", x.page_number, x.offsets.tolist(), x.values.tolist(),
                x.acquire_counter, x.origin)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return tuple(sorted((repr(k), _norm(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_norm(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(x))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple((f.name, _norm(getattr(x, f.name)))
                      for f in dataclasses.fields(x)))
    if isinstance(x, Future):
        return ("Future", x.name)
    return x


def _describe(op):
    if isinstance(op, Delay):
        return ("Delay", op.cycles, op.category)
    if isinstance(op, Send):
        m = op.message
        return ("Send", op.dst, op.category, m.kind, m.payload_bytes,
                _norm(m.payload))
    if isinstance(op, Resolve):
        return ("Resolve", op.future.name, _norm(op.value))
    return ("?", repr(op))


def _recording(cls, log):
    """``cls`` with every handler's primitives logged as the engine takes
    them (a generator stays lazy, so its interleaving is kept)."""

    def record(handler, node, kind):
        def run(msg):
            ops = handler(msg)
            entry = [node, kind, msg.src]
            log.append(entry)
            if ops is None:
                return None

            def replay():
                for op in ops:
                    entry.append(_describe(op))
                    yield op
            return replay()
        return run

    class Recorded(cls):
        def __init__(self, world, node_id):
            super().__init__(world, node_id)
            for kind, handler in list(self._handlers.items()):
                self._handlers[kind] = record(handler, node_id, kind)
    return Recorded


def _perm_crash(at, monkeypatch):
    plan = FaultPlan(name="perm", seed=1, crashes=(NodeCrash(
        node=1, at=at, down_cycles=150_000.0, restart=False),))
    monkeypatch.setattr(crash_mod, "CRASH_DECLARE_CYCLES", 200_000)
    return SimConfig(seed=42, faults=plan)


#: (app, crash time, what recovery's reconfiguration must send): the
#: permanent-death cells reach ``_maybe_barrier_done``,
#: ``_bar_broadcast_instructions`` and ``_bar_finish`` from recovery
BARRIER_CELLS = [("ocean", None, None), ("fft", None, None),
                 ("is", None, None), ("water-sp", None, None),
                 ("raytrace", 150_000.0, "aec.bar_done"),
                 ("ocean", 100_000.0, "aec.bar_complete"),
                 ("ocean", 300_000.0, "aec.bar_lists")]


@pytest.mark.parametrize("app,crash,recovery_sends", BARRIER_CELLS)
def test_barrier_isrs_match_the_generators(monkeypatch, app, crash,
                                           recovery_sends):
    config = (SimConfig() if crash is None
              else _perm_crash(crash, monkeypatch))
    logs, results = {}, {}
    for name, cls in (("ref", RefBarrierNode), ("new", AECNode)):
        logs[name] = []
        monkeypatch.setitem(PROTOCOLS, name, _recording(cls, logs[name]))
        r = run_app(make_app(app, "test"), name, config=config,
                    check=crash is None)
        results[name] = (r.execution_time, r.messages_total,
                         r.network_bytes, r.events_processed)
    ref, new = logs["ref"], logs["new"]
    assert len(new) == len(ref)
    for i, (got, want) in enumerate(zip(new, ref)):
        assert got == want, f"handler call {i} ({want[:3]})"
    assert results["new"] == results["ref"]
    kinds = {entry[1] for entry in new}
    assert {"aec.bar_arrive", "aec.bar_lists", "aec.bar_wn", "aec.bar_done",
            "aec.bar_diffs", "aec.wn_diff_req"} <= kinds
    if recovery_sends is not None:
        sent = {op[3] for entry in new if entry[1] == RECONFIG_KIND
                for op in entry[3:] if op[0] == "Send"}
        assert recovery_sends in sent


def _bar_lists_node(cls):
    """Node 2 of a 4-node world that holds a lock's CS diff of page 3,
    a stale copy of page 5 and a valid copy of page 6."""
    world = make_world(num_procs=4, locks=2)
    node = [cls(world, i) for i in range(4)][2]
    for pn in (3, 5, 6):
        node.store.ensure(pn)
        node.pages[pn].valid = True
    node.pages[5].pending_notices[WriteNotice(5, 1, 0)] = None
    node.pages[5].cs_diff_source = (0, 1)
    diff = Diff(3, np.array([1, 4], dtype=np.int32), np.array([2.0, 3.0]),
                acquire_counter=7, origin=2).freeze()
    node.sessions[0].diff_store[3] = diff
    node._bar_sends_done = False
    return node


def test_bar_lists_stale_sends_and_notices_match_the_generator():
    # stale pages occur in no bench cell: drive the handler directly
    def instr():
        ins = BarrierInstructions(
            step=4, cs_sends=[(0, [3, 9], [0]), (1, [6], [3])],
            wn_sends=[(6, 4, [0, 1, 3])], expect_diff_msgs=0,
            expect_wn_msgs=0, homes={3: 2, 6: 2},
            others_accessed={3, 6}, stale_pages={5, 6})
        ins.count_elements()
        return ins

    runs = []
    for cls in (RefBarrierNode, AECNode):
        node = _bar_lists_node(cls)
        msg = Message("aec.bar_lists", instr(), 4)
        ops = [_describe(op) for op in node._on_bar_lists(msg)]
        state = [(pn, node.pages[pn].valid, node.pages[pn].needs_refetch,
                  node.pages[pn].cs_diff_source,
                  list(node.pages[pn].pending_notices)) for pn in (3, 5, 6)]
        runs.append((ops, state, sorted(node.lost_valid)))
    assert runs[0] == runs[1]
    ops, state, lost = runs[1]
    assert [op[3] for op in ops if op[0] == "Send"] == [
        "aec.bar_diffs", "aec.bar_diffs", "aec.bar_wn", "aec.bar_wn",
        "aec.bar_wn", "aec.bar_done"]
    assert lost == [5, 6]


# ------------------------------------------------ the barrier manager

def ref_compute(mgr):
    """``AECBarrierManager.compute`` with the per-node loops it had."""
    arrivals = mgr._arrivals
    for info in arrivals.values():
        for pg in info.gained_valid:
            mgr.validset.setdefault(pg, set()).add(info.node)
            mgr.copyset.setdefault(pg, set()).add(info.node)
        for pg in info.lost_valid:
            mgr.validset.setdefault(pg, set()).discard(info.node)
            mgr.copyset.setdefault(pg, set()).add(info.node)
    instr = {p: BarrierInstructions(step=mgr.step) for p in arrivals}
    writers = {}
    for info in arrivals.values():
        for pg in info.outside_mod_pages:
            writers.setdefault(pg, set()).add(info.node)
    for pg, ws in sorted(writers.items()):
        holders = mgr.copyset.setdefault(pg, set())
        for w in sorted(ws):
            dests = sorted(holders - {w})
            if dests:
                instr[w].wn_sends.append((pg, mgr.step, dests))
                for d in dests:
                    if d in instr:
                        instr[d].expect_wn_msgs += 1
        mgr.validset[pg] = set(ws)
        mgr.copyset.setdefault(pg, set()).update(ws)
    lock_pages = {}
    page_owner = {}
    for info in arrivals.values():
        for lock, (counter, modified, covered) in info.lock_sessions.items():
            lock_pages.setdefault(lock, set()).update(modified)
            for pg in set(covered) | set(modified):
                cur = page_owner.get((lock, pg))
                if cur is None or counter > cur[0]:
                    page_owner[(lock, pg)] = (counter, info.node)
    send_groups = {}
    cs_owners = {}
    for (lock, pg), (counter, owner) in sorted(page_owner.items()):
        holders = mgr.validset.setdefault(pg, set())
        for d in sorted(holders - {owner}):
            send_groups.setdefault((owner, lock, d), []).append(pg)
        cs_owners.setdefault(pg, set()).add(owner)
        holders.add(owner)
        mgr.copyset.setdefault(pg, set()).add(owner)
    for pg, owners in sorted(cs_owners.items()):
        stale = (mgr.copyset.setdefault(pg, set())
                 - mgr.validset.setdefault(pg, set()))
        for d in sorted(stale):
            if d in instr:
                instr[d].stale_pages.add(pg)
    for (owner, lock, d), pages in sorted(send_groups.items()):
        instr[owner].cs_sends.append((lock, pages, [d]))
        instr[d].expect_diff_msgs += 1
    touched = set(writers)
    for pages in lock_pages.values():
        touched.update(pages)
    for pg in sorted(touched):
        valid = mgr.validset.setdefault(pg, set())
        if valid:
            home = min(valid)
        else:
            copy = mgr.copyset.setdefault(pg, set())
            home = min(copy) if copy else 0
        if mgr.homes.get(pg, 0) != home:
            mgr.homes[pg] = home
        for p in instr:
            instr[p].homes[pg] = home
    accessed_by = {}
    for info in arrivals.values():
        for pg in info.accessed_pages:
            accessed_by.setdefault(pg, set()).add(info.node)
    for p, ins in instr.items():
        ins.others_accessed = {
            pg for pg, who in accessed_by.items() if who - {p}}
    mgr._phase = "exchange"
    mgr._last_instr = instr
    return instr


def _random_arrival(rng, node, pages, locks):
    def some(k):
        return sorted(rng.sample(range(pages), rng.randint(0, k)))
    sessions = {}
    for lock in rng.sample(range(locks), rng.randint(0, locks)):
        sessions[lock] = (rng.randint(1, 50), some(3), some(3))
    return ArrivalInfo(node=node, lock_sessions=sessions,
                       outside_mod_pages=some(3), accessed_pages=some(6),
                       gained_valid=some(3), lost_valid=some(2))


def _instr_state(instr):
    return {p: (ins.step, ins.cs_sends, ins.wn_sends, ins.expect_diff_msgs,
                ins.expect_wn_msgs, list(ins.homes.items()),
                sorted(ins.others_accessed), sorted(ins.stale_pages))
            for p, ins in sorted(instr.items())}


@pytest.mark.parametrize("seed", range(8))
def test_compute_matches_the_per_node_loops(seed):
    rng = random.Random(6100 + seed)
    nprocs, pages, locks = rng.choice([(2, 6, 1), (4, 10, 2), (8, 24, 3)])
    mgr = AECBarrierManager(nprocs, pages)
    ref = AECBarrierManager(nprocs, pages)
    alone = 0
    for _episode in range(12):
        infos = [_random_arrival(rng, node, pages, locks)
                 for node in range(nprocs)]
        for info in infos:
            assert info.element_count == ref_arrival_count(info)
            mgr.arrive(info)
            ref.arrive(info)
        counts = {}
        for info in infos:
            for pg in info.accessed_pages:
                counts[pg] = counts.get(pg, 0) + 1
        alone += sum(1 for n in counts.values() if n == 1)
        got, want = mgr.compute(), ref_compute(ref)
        assert _instr_state(got) == _instr_state(want)
        for ins in got.values():
            assert ins.element_count == ref_instr_count(ins)
        assert (mgr.validset, mgr.copyset, mgr.homes) == (
            ref.validset, ref.copyset, ref.homes)
        for m in (mgr, ref):
            for node in range(nprocs):
                m.node_done(node)
            m.complete()
    assert alone > 0, "no page was accessed by only one node"


def test_each_node_gets_its_own_homes():
    # crash recovery amends one node's homes in place (recovery/aec.py)
    mgr = AECBarrierManager(4, 8)
    for node in range(4):
        mgr.arrive(ArrivalInfo(node=node, lock_sessions={},
                               outside_mod_pages=[node, 4],
                               accessed_pages=[4], gained_valid=[],
                               lost_valid=[]))
    instr = mgr.compute()
    assert instr[0].homes == {0: 0, 1: 1, 2: 2, 3: 3, 4: 0}
    assert len({id(ins.homes) for ins in instr.values()}) == 4
    instr[2].homes.update({4: 3})
    assert all(instr[p].homes[4] == 0 for p in (0, 1, 3))
    assert mgr.homes.get(4, 0) == 0


# --------------------------------------------- outside diffs by reference

def _outside_writer():
    """Node 1 of a 4-node world with two frozen outside diffs of page 2
    and unfrozen writes to it since."""
    world = make_world(num_procs=4)
    node = [AECNode(world, i) for i in range(4)][1]
    node.store.ensure(2)
    meta = node.pages[2]
    meta.valid = meta.writable = True
    page = node.store.page(2)
    for step, words in ((0, [3, 4]), (1, [7])):
        node.step = step
        meta.twin = page.copy()
        page[words] = [float(step + 1)] * len(words)
        node.outside_dirty_set.add(2)
        meta.dirty_since_step = step
        list(node._freeze_outside_diff(2, "synch"))
    meta.twin = page.copy()
    page[9] = 5.0
    node.outside_dirty_set.add(2)
    meta.dirty_since_step = 1
    return node, meta


def _wn_diff_req(floor):
    return Message("aec.wn_diff_req", {"pn": 2, "floor": floor,
                                       "requester": 3, "req_id": (3, 1)}, 12)


def test_served_outside_diffs_are_the_stored_frozen_objects():
    node, meta = _outside_writer()
    stored = list(meta.frozen)
    # unfrozen writes: the ISR freezes them first, as a generator
    ops = node._on_wn_diff_req(_wn_diff_req(-1))
    assert not isinstance(ops, tuple)
    ops = list(ops)
    assert len(meta.frozen) == 3
    served = ops[-1].message.payload["diffs"]
    assert [d is s for d, s in zip(served, meta.frozen)] == [True] * 3
    assert served[2].offsets.tolist() == [9]
    # clean page: one Send in a tuple, the stored diffs by reference
    floor = stored[0].acquire_counter
    ops = node._on_wn_diff_req(_wn_diff_req(floor))
    assert isinstance(ops, tuple) and len(ops) == 1
    served = ops[0].message.payload["diffs"]
    assert served == meta.frozen[1:]
    assert all(d is s for d, s in zip(served, meta.frozen[1:]))
    assert ops[0].message.payload_bytes == sum(d.size_bytes + 8
                                               for d in served)
    for d in served:
        for arr in (d.offsets, d.values):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("seed", range(4))
def test_outside_diff_suffix_matches_the_filter(seed):
    # ``frozen`` is in stamp order: the bisected suffix is the
    # linear filter it replaced
    rng = random.Random(6300 + seed)
    node, meta = _outside_writer()
    list(node._on_wn_diff_req(_wn_diff_req(-1)))
    for _ in range(rng.randint(3, 12)):
        if rng.random() < 0.4:
            node.step += 1
        meta.twin = node.store.page(2).copy()
        node.store.page(2)[rng.randrange(64)] += 1.0
        node.outside_dirty_set.add(2)
        meta.dirty_since_step = node.step
        list(node._freeze_outside_diff(2, "synch"))
    stamps = [d.acquire_counter for d in meta.frozen]
    assert stamps == sorted(stamps)
    for floor in [-1] + stamps + [s + 1 for s in stamps]:
        ops = node._on_wn_diff_req(_wn_diff_req(floor))
        want = [d for d in meta.frozen if d.acquire_counter > floor]
        assert ops[0].message.payload["diffs"] == want
