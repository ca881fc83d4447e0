"""Property test: the checker's list shadow against the NumPy one it replaced.

`ConsistencyChecker` keeps its shadow memory, vector clocks and lock and
barrier clocks in plain lists, and disposes of a clean access (VC
dominates the page clock summaries, data equals the shadow) with slice
operations.  `RefChecker` below is the vectorized-per-page NumPy code it
replaced, kept as the reference.  Both are fed the same seeded random
streams of accesses and sync operations, and must produce the same
`CheckReport`, violation for violation, in the same order.
"""
from __future__ import annotations

import random
from collections import Counter

import numpy as np

from repro.check import ConsistencyChecker
from repro.check.checker import ViolationReport
from repro.memory.layout import Layout


# ---------------------------------------------------------------- reference

class RefShadowPage:
    """Shadow state of one shared page, one NumPy array per field."""

    def __init__(self, wpp, nprocs):
        self.w_node = np.full(wpp, -1, dtype=np.int64)
        self.w_clk = np.zeros(wpp, dtype=np.int64)
        self.w_time = np.zeros(wpp, dtype=np.float64)
        self.w_lock = np.full(wpp, -1, dtype=np.int64)
        self.w_val = np.zeros(wpp, dtype=np.float64)
        self.racy = np.zeros(wpp, dtype=bool)
        #: r_clk[w, n] = node n's own VC component at its last read of w
        self.r_clk = np.zeros((wpp, nprocs), dtype=np.int64)


class RefChecker(ConsistencyChecker):
    """NumPy vector clocks and a per-page vectorized shadow.

    Reports, segments, transfers and the chunking of an access are
    inherited; clocks, HB edges and the access checks are the reference.
    """

    def __init__(self, layout, num_procs, max_reports):
        super().__init__(layout, num_procs, max_reports)
        self.vc = np.zeros((num_procs, num_procs), dtype=np.int64)
        for n in range(num_procs):
            self.vc[n, n] = 1

    def on_acquire(self, node, lock_id):
        lvc = self._lock_vc.get(lock_id)
        if lvc is not None:
            np.maximum(self.vc[node], lvc, out=self.vc[node])
        self._lock_stack[node].append(lock_id)

    def on_release(self, node, lock_id):
        stack = self._lock_stack[node]
        if lock_id in stack:
            stack.remove(lock_id)
        lvc = self._lock_vc.get(lock_id)
        if lvc is None:
            self._lock_vc[lock_id] = self.vc[node].copy()
        else:
            np.maximum(lvc, self.vc[node], out=lvc)
        self.vc[node, node] += 1

    def on_barrier_depart(self, node):
        ep = self._episodes[self._bar_ep[node]]
        if ep["join"] is None:
            ep["join"] = np.maximum.reduce(ep["vcs"])
        np.maximum(self.vc[node], ep["join"], out=self.vc[node])
        self.vc[node, node] += 1
        self._bar_ep[node] += 1

    def on_read(self, node, addr, data, time):
        self.report.reads_checked += 1
        self.report.words_read += len(data)
        vcn = self.vc[node]
        own = vcn[node]
        pos = 0
        for pn, off, n in self._chunks(addr, len(data)):
            sp = self._page(pn)
            sl = slice(off, off + n)
            w_node = sp.w_node[sl]
            written = w_node >= 0
            if written.any():
                safe = np.where(written, w_node, 0)
                visible = vcn[safe] >= sp.w_clk[sl]
                race = written & ~visible & (w_node != node)
                if race.any():
                    self._emit_mask(race, "race:wr", node, "read", pn, off,
                                    sp, time, None)
                    sp.racy[sl] |= race
                stale = (written & visible & ~sp.racy[sl]
                         & (data[pos:pos + n] != sp.w_val[sl]))
                if stale.any():
                    self._emit_mask(stale, "stale-read", node, "read", pn,
                                    off, sp, time, data[pos:pos + n])
            sp.r_clk[sl, node] = own
            pos += n

    def on_write(self, node, addr, values, time):
        self.report.writes_checked += 1
        self.report.words_written += len(values)
        vcn = self.vc[node]
        stack = self._lock_stack[node]
        lock = stack[-1] if stack else -1
        pos = 0
        for pn, off, n in self._chunks(addr, len(values)):
            sp = self._page(pn)
            sl = slice(off, off + n)
            w_node = sp.w_node[sl]
            written_other = (w_node >= 0) & (w_node != node)
            if written_other.any():
                safe = np.where(w_node >= 0, w_node, 0)
                ww = written_other & (sp.w_clk[sl] > vcn[safe])
                if ww.any():
                    self._emit_mask(ww, "race:ww", node, "write", pn, off,
                                    sp, time, None)
                    sp.racy[sl] |= ww
            unordered_reads = sp.r_clk[sl] > vcn[np.newaxis, :]
            unordered_reads[:, node] = False
            rw = unordered_reads.any(axis=1)
            if rw.any():
                self._emit_rw_mask(rw, unordered_reads, node, pn, off, sp,
                                   time)
                sp.racy[sl] |= rw
            sp.w_node[sl] = node
            sp.w_clk[sl] = vcn[node]
            sp.w_time[sl] = time
            sp.w_lock[sl] = lock
            sp.w_val[sl] = values[pos:pos + n]
            pos += n

    def _page(self, pn):
        sp = self._shadow.get(pn)
        if sp is None:
            sp = RefShadowPage(self.wpp, self.nprocs)
            self._shadow[pn] = sp
        return sp

    def _emit_mask(self, mask, kind, node, op, pn, off, sp, time, data):
        idxs = np.flatnonzero(mask)
        room = self._count(kind, len(idxs))
        stack = self._lock_stack[node]
        lock = stack[-1] if stack else None
        for i in idxs[:room]:
            w = off + int(i)
            addr = pn * self.wpp + w
            wl = int(sp.w_lock[w])
            self.report.violations.append(ViolationReport(
                kind=kind, addr=addr, page=pn, word=w,
                segment=self._segment_of(addr),
                node=node, op=op, time=time,
                node_vc=tuple(int(x) for x in self.vc[node]),
                lock=lock,
                other_node=int(sp.w_node[w]), other_clock=int(sp.w_clk[w]),
                other_time=float(sp.w_time[w]), other_op="write",
                other_lock=wl if wl >= 0 else None,
                expected=(float(sp.w_val[w]) if kind == "stale-read" else None),
                observed=(float(data[int(i)]) if data is not None else None),
                last_transfer=self._last_transfer.get((node, pn)),
            ))

    def _emit_rw_mask(self, mask, unordered, node, pn, off, sp, time):
        idxs = np.flatnonzero(mask)
        room = self._count("race:rw", len(idxs))
        stack = self._lock_stack[node]
        lock = stack[-1] if stack else None
        for i in idxs[:room]:
            w = off + int(i)
            addr = pn * self.wpp + w
            reader = int(np.flatnonzero(unordered[int(i)])[0])
            self.report.violations.append(ViolationReport(
                kind="race:rw", addr=addr, page=pn, word=w,
                segment=self._segment_of(addr),
                node=node, op="write", time=time,
                node_vc=tuple(int(x) for x in self.vc[node]),
                lock=lock,
                other_node=reader,
                other_clock=int(sp.r_clk[off + int(i), reader]),
                other_time=0.0, other_op="read", other_lock=None,
                last_transfer=self._last_transfer.get((node, pn)),
            ))


# ------------------------------------------------------------ op streams

NUM_LOCKS = 4


def checkers(nprocs, wpp, max_reports):
    """A (list shadow, reference) pair over a 4-page layout whose two
    segments leave the last page out of any segment."""
    layout = Layout(wpp)
    layout.allocate("a", wpp + wpp // 2)
    layout.allocate("b", wpp + wpp // 2)
    return (ConsistencyChecker(layout, nprocs, max_reports),
            RefChecker(layout, nprocs, max_reports))


def random_stream(rng, nprocs, wpp):
    """Seeded ops: lock sections, barriers, reads and writes of 1-16
    words (some whole-page or page-crossing), planted stale read data."""
    words = 4 * wpp
    memory = np.zeros(words)
    held = {}
    stacks = [[] for _ in range(nprocs)]
    ops = []
    for _ in range(rng.randint(20, 120)):
        node = rng.randrange(nprocs)
        r = rng.random()
        if r < 0.12:
            free = [lk for lk in range(NUM_LOCKS) if lk not in held]
            if free:
                lk = rng.choice(free)
                held[lk] = node
                stacks[node].append(lk)
                ops.append(("acq", node, lk))
        elif r < 0.24:
            if stacks[node]:
                lk = stacks[node].pop(rng.randrange(len(stacks[node])))
                del held[lk]
                ops.append(("rel", node, lk))
        elif r < 0.32:
            order = list(range(nprocs))
            rng.shuffle(order)
            ops.extend(("arr", n) for n in order)
            rng.shuffle(order)
            ops.extend(("dep", n) for n in order)
        else:
            shape = rng.random()
            if shape < 0.1:
                n = wpp
                addr = rng.randrange(4) * wpp
            elif shape < 0.3:
                n = rng.randint(2, 16)
                addr = rng.randint(1, 3) * wpp - rng.randint(1, n - 1)
            else:
                n = rng.randint(1, 16)
                addr = rng.randrange(words - n + 1)
            if r < 0.62:
                values = np.asarray([float(rng.randrange(4))
                                     for _ in range(n)])
                memory[addr:addr + n] = values
                ops.append(("wr", node, addr, values))
            else:
                data = memory[addr:addr + n].copy()
                if rng.random() < 0.3:
                    data[rng.randrange(n)] += 1.0
                ops.append(("rd", node, addr, data))
    return ops


def replay(checker, ops):
    for t, op in enumerate(ops):
        kind, node = op[0], op[1]
        time = float(10 * t)
        if kind == "acq":
            checker.on_acquire(node, op[2])
        elif kind == "rel":
            checker.on_release(node, op[2])
        elif kind == "arr":
            checker.on_barrier_arrive(node)
        elif kind == "dep":
            checker.on_barrier_depart(node)
        elif kind == "wr":
            checker.on_write(node, op[2], op[3], time)
        else:
            if t % 5 == 0:
                checker.note_transfer("diff", node, op[2] // checker.wpp,
                                      (node + 1) % checker.nprocs, time - 1)
            checker.on_read(node, op[2], op[3], time)
    return checker.finish().to_dict()


# ------------------------------------------------------------------ tests

STREAMS = 480


def test_list_shadow_matches_numpy_reference():
    seen = Counter()
    for seed in range(STREAMS):
        rng = random.Random(seed)
        nprocs = rng.randint(2, 16)
        wpp = rng.choice((16, 64))
        max_reports = 3 if seed % 4 == 0 else 200
        new, ref = checkers(nprocs, wpp, max_reports)
        ops = random_stream(rng, nprocs, wpp)
        got, want = replay(new, ops), replay(ref, ops)
        assert got == want, f"stream {seed} (nprocs={nprocs}, wpp={wpp})"
        seen.update(want["counts"])
        seen["truncated"] += want["truncated"]
        seen["clean"] += want["clean"]
        seen["cross-page"] += any(
            op[0] in ("rd", "wr") and op[2] // wpp
            != (op[2] + len(op[3]) - 1) // wpp for op in ops)
    # the streams cover every violation kind, truncation, clean runs and
    # accesses that span two pages
    for key in ("race:ww", "race:wr", "race:rw", "stale-read", "truncated",
                "clean", "cross-page"):
        assert seen[key] > 0, (key, seen)


def test_clean_whole_page_read_after_barrier():
    # the end-of-run image read: one node reads whole pages after a
    # barrier, which the list shadow answers on its slice path
    new, ref = checkers(4, 64, 200)
    ops = [("wr", n, 64 * n + 3, np.arange(5.0) + n) for n in range(4)]
    ops += [("arr", n) for n in range(4)] + [("dep", n) for n in range(4)]
    image = np.zeros(256)
    for _, n, addr, values in ops[:4]:
        image[addr:addr + len(values)] = values
    ops += [("rd", 0, 0, image.copy())]
    assert replay(new, ops) == replay(ref, ops)
    assert new.report.clean and new.report.words_read == 256
