"""Happens-before sanitizer for simulated DSM runs.

``ConsistencyChecker`` observes every shared-memory access and every
synchronization operation of a run and maintains:

* **per-node vector clocks** advanced by the release-consistency HB edges
  (lock release -> next acquire of the same lock, barrier arrival -> every
  departure of the same episode), plus

* **shadow memory**: for every shared word, the last write epoch (node,
  that node's clock component, sim time, innermost lock held, value) and
  each node's clock at its last read, in the style of FastTrack; per page,
  the largest clock each node wrote and read lets a clean access skip the
  per-word checks.

From these it flags two kinds of violation:

``race:*``
    conflicting accesses to the same word unordered by happens-before
    (``race:ww`` write-after-write, ``race:wr`` read-after-write,
    ``race:rw`` write-after-read).  Races are a property of the *program*
    under the sync model, not of the protocol.

``stale-read``
    a read that IS ordered after a write by happens-before, yet observes a
    different value — the entry-consistency violation a correct protocol
    must never produce.  Detection is value-based (read data compared to
    the shadow's last-written value), which makes it robust to diff
    compression: a protocol may ship a word by any route as long as the
    right value is in place when an ordered read happens.

The checker is pure observation: it never yields, never charges cycles, and
never mutates protocol state, so checker-on and checker-off runs have
identical simulated timing.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import sub
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.memory.layout import Layout

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ViolationReport:
    """One detected consistency violation, fully localized."""

    #: "race:ww" | "race:wr" | "race:rw" | "stale-read"
    kind: str
    #: word address / containing page / word offset within the page
    addr: int
    page: int
    word: int
    #: segment the address belongs to (None for out-of-segment addresses)
    segment: Optional[str]
    #: the access that *detected* the violation
    node: int
    op: str            # "read" | "write"
    time: float        # sim time of the detecting access
    node_vc: Tuple[int, ...]
    #: innermost lock the detecting node held (None outside any CS)
    lock: Optional[int]
    #: the other half of the pair — for races the unordered access, for
    #: stale reads the HB-ordered write whose value went missing
    other_node: int
    other_clock: int   # the other node's own VC component at its access
    other_time: float
    other_op: str
    other_lock: Optional[int]
    #: stale reads only: value the shadow says must be visible vs observed
    expected: Optional[float] = None
    observed: Optional[float] = None
    #: how the page last arrived at the detecting node (kind, origin, time)
    last_transfer: Optional[Tuple[str, int, float]] = None

    def describe(self) -> str:
        loc = f"{self.segment}+{self.addr}" if self.segment else f"addr {self.addr}"
        head = (f"{self.kind} @ {loc} (page {self.page}, word {self.word}): "
                f"node {self.node} {self.op} at t={self.time:.0f}")
        pair = (f" vs node {self.other_node} {self.other_op} "
                f"at t={self.other_time:.0f} (clock {self.other_clock})")
        if self.kind == "stale-read":
            pair += f"; expected {self.expected!r}, observed {self.observed!r}"
        if self.lock is not None:
            pair += f"; reader holds lock {self.lock}"
        if self.other_lock is not None:
            pair += f"; writer held lock {self.other_lock}"
        if self.last_transfer is not None:
            k, o, t = self.last_transfer
            pair += f"; page last arrived via {k} from node {o} at t={t:.0f}"
        return head + pair

    def to_dict(self) -> Dict[str, Any]:
        d = dict(self.__dict__)
        d["node_vc"] = list(self.node_vc)
        if self.last_transfer is not None:
            d["last_transfer"] = list(self.last_transfer)
        return d


@dataclass
class CheckReport:
    """Outcome of one checked run."""

    violations: List[ViolationReport] = field(default_factory=list)
    #: full counts per kind (keeps counting past the report cap)
    counts: Dict[str, int] = field(default_factory=dict)
    truncated: bool = False
    reads_checked: int = 0
    writes_checked: int = 0
    words_read: int = 0
    words_written: int = 0
    pages_tracked: int = 0
    #: page/diff transfer counts by kind ("page", "diff", ...)
    transfers: Dict[str, int] = field(default_factory=dict)

    @property
    def total_violations(self) -> int:
        return sum(self.counts.values())

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    def summary(self) -> str:
        if self.clean:
            body = "clean"
        else:
            parts = [f"{k}={v}" for k, v in sorted(self.counts.items())]
            body = f"{self.total_violations} violations ({', '.join(parts)})"
            if self.truncated:
                body += " [report list truncated]"
        return (f"consistency check: {body}; "
                f"{self.reads_checked} reads / {self.writes_checked} writes "
                f"checked over {self.pages_tracked} pages")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clean": self.clean,
            "total_violations": self.total_violations,
            "counts": dict(self.counts),
            "truncated": self.truncated,
            "reads_checked": self.reads_checked,
            "writes_checked": self.writes_checked,
            "words_read": self.words_read,
            "words_written": self.words_written,
            "pages_tracked": self.pages_tracked,
            "transfers": dict(self.transfers),
            "violations": [v.to_dict() for v in self.violations],
        }


class _ShadowPage:
    """Shadow state of one shared page (lazily allocated).

    Plain lists, indexed by word offset: most accesses touch a few words,
    where list indexing beats NumPy's per-call overhead, and slice
    assignment keeps whole-page accesses at C speed.
    """

    __slots__ = ("w_node", "w_clk", "w_time", "w_lock", "w_val", "racy",
                 "r_clk", "w_max", "r_max")

    def __init__(self, wpp: int, nprocs: int) -> None:
        self.w_node = [-1] * wpp
        self.w_clk = [0] * wpp
        self.w_time = [0.0] * wpp
        self.w_lock = [-1] * wpp
        self.w_val = [0.0] * wpp
        #: word ever involved in a race — suppresses stale-read reports,
        #: which are only meaningful for HB-ordered access pairs
        self.racy = [False] * wpp
        #: r_clk[w * nprocs + n] = node n's own VC component at its last
        #: read of word w
        self.r_clk = [0] * (wpp * nprocs)
        #: page clock summaries: the largest clock node n wrote (w_max[n])
        #: or read (r_max[n]) anywhere in this page.  Overwrites never
        #: lower them, so they are upper bounds: an access whose VC
        #: dominates them is ordered after every prior access to the page.
        self.w_max = [0] * nprocs
        self.r_max = [0] * nprocs


class ConsistencyChecker:
    """Vector-clock happens-before tracker + shadow memory (see module doc)."""

    def __init__(self, layout: Layout, num_procs: int,
                 max_reports: int = 200) -> None:
        self.layout = layout
        self.wpp = layout.words_per_page
        self.nprocs = num_procs
        #: cap on retained ``ViolationReport`` objects (the counters keep
        #: counting past it; only the structured reports stop accumulating)
        self.max_reports = max_reports
        # each node's own component starts at 1 so that epoch (n, 0) can
        # never be confused with "visible from the start"
        self.vc: List[List[int]] = [[0] * num_procs for _ in range(num_procs)]
        for n in range(num_procs):
            self.vc[n][n] = 1
        #: per-lock clock: join of every release of that lock so far
        self._lock_vc: Dict[int, List[int]] = {}
        #: lock stack per node, maintained from the acquire/release hooks
        self._lock_stack: List[List[int]] = [[] for _ in range(num_procs)]
        # barrier episodes: nodes may race ahead into episode k+1 before
        # stragglers depart episode k, so arrivals are bucketed by a
        # per-node episode counter rather than by barrier id
        self._bar_ep = [0] * num_procs
        self._episodes: Dict[int, Dict[str, Any]] = {}
        self._shadow: Dict[int, _ShadowPage] = {}
        #: last transfer that refreshed each page on each node:
        #: (dst, page) -> (kind, origin, time)
        self._last_transfer: Dict[Tuple[int, int], Tuple[str, int, float]] = {}
        self.report = CheckReport()
        # resolve addr -> segment name via sorted segment bases
        segs = sorted(layout.all_segments(), key=lambda s: s.base)
        self._seg_bases = [s.base for s in segs]
        self._seg_ends = [s.end for s in segs]
        self._seg_names = [s.name for s in segs]

    # ------------------------------------------------------------- HB edges

    def on_acquire(self, node: int, lock_id: int) -> None:
        """Acquire joins the lock's release clock into the acquirer."""
        lvc = self._lock_vc.get(lock_id)
        if lvc is not None:
            vcn = self.vc[node]
            vcn[:] = map(max, vcn, lvc)
        self._lock_stack[node].append(lock_id)

    def on_release(self, node: int, lock_id: int) -> None:
        """Release publishes the releaser's clock on the lock, then steps
        the releaser into a fresh epoch."""
        stack = self._lock_stack[node]
        if lock_id in stack:
            stack.remove(lock_id)
        vcn = self.vc[node]
        lvc = self._lock_vc.get(lock_id)
        if lvc is None:
            self._lock_vc[lock_id] = vcn.copy()
        else:
            lvc[:] = map(max, lvc, vcn)
        vcn[node] += 1

    def on_barrier_arrive(self, node: int) -> None:
        ep = self._episodes.setdefault(
            self._bar_ep[node], {"vcs": [], "join": None, "departed": 0})
        ep["vcs"].append(self.vc[node].copy())

    def on_barrier_depart(self, node: int) -> None:
        """Departure joins every arrival clock of this episode.

        An episode is freed once every node that arrived at it has
        departed: a node that died for good never arrives, and waiting
        for all ``nprocs`` would keep every later episode forever."""
        key = self._bar_ep[node]
        ep = self._episodes[key]
        if ep["join"] is None:
            ep["join"] = [max(col) for col in zip(*ep["vcs"])]
        vcn = self.vc[node]
        vcn[:] = map(max, vcn, ep["join"])
        vcn[node] += 1
        self._bar_ep[node] += 1
        ep["departed"] += 1
        if ep["departed"] == len(ep["vcs"]):
            del self._episodes[key]

    def note_transfer(self, kind: str, dst: int, page: int, origin: int,
                      time: float) -> None:
        """Record a page/diff movement (context for reports, not an HB edge:
        consistency edges come from synchronization, data movement merely
        implements them)."""
        t = self.report.transfers
        t[kind] = t.get(kind, 0) + 1
        self._last_transfer[(dst, page)] = (kind, origin, time)

    # -------------------------------------------------------- access checks
    #
    # Each page chunk of an access takes one of two paths.  The clean path
    # is an epoch test in the style of FastTrack: when the accessor's VC
    # dominates the page clock summaries, no prior access to the page can
    # race with this one, so the chunk costs an O(nprocs) compare plus
    # slice operations (for a read, also one C-level list compare of the
    # data against the shadow values).  Anything else takes the exact
    # path, a per-word loop that finds every violation.

    def on_read(self, node: int, addr: int, data: np.ndarray,
                time: float) -> None:
        self.report.reads_checked += 1
        self.report.words_read += len(data)
        vcn = self.vc[node]
        own = vcn[node]
        nprocs = self.nprocs
        got_all = data.tolist()
        pos = 0
        for pn, off, n in self._chunks(addr, len(got_all)):
            sp = self._page(pn)
            end = off + n
            got = got_all[pos:pos + n]
            if max(map(sub, sp.w_max, vcn)) > 0 or got != sp.w_val[off:end]:
                self._read_exact(node, vcn, pn, off, sp, got, time)
            sp.r_clk[off * nprocs + node:end * nprocs:nprocs] = [own] * n
            sp.r_max[node] = own
            pos += n

    def on_write(self, node: int, addr: int, values: np.ndarray,
                 time: float) -> None:
        self.report.writes_checked += 1
        self.report.words_written += len(values)
        vcn = self.vc[node]
        own = vcn[node]
        stack = self._lock_stack[node]
        lock = stack[-1] if stack else -1
        vals = values.tolist()
        pos = 0
        for pn, off, n in self._chunks(addr, len(vals)):
            sp = self._page(pn)
            end = off + n
            if max(map(sub, sp.w_max, vcn)) > 0:
                self._write_write_races(node, vcn, pn, off, n, sp, time)
            if max(map(sub, sp.r_max, vcn)) > 0:
                self._read_write_races(node, vcn, pn, off, n, sp, time)
            sp.w_node[off:end] = [node] * n
            sp.w_clk[off:end] = [own] * n
            sp.w_time[off:end] = [time] * n
            sp.w_lock[off:end] = [lock] * n
            sp.w_val[off:end] = vals[pos:pos + n]
            sp.w_max[node] = own
            pos += n

    def _read_exact(self, node: int, vcn: List[int], pn: int, off: int,
                    sp: _ShadowPage, got: List[float], time: float) -> None:
        """Per-word read check: read-after-write races, then stale reads."""
        w_node, w_clk, w_val, racy = sp.w_node, sp.w_clk, sp.w_val, sp.racy
        race: List[int] = []
        stale: List[int] = []
        for i, value in enumerate(got):
            w = off + i
            writer = w_node[w]
            if writer < 0:
                continue
            # a write is visible to this reader iff the reader's clock has
            # reached the writer's epoch
            if vcn[writer] >= w_clk[w]:
                if value != w_val[w] and not racy[w]:
                    stale.append(i)
            elif writer != node:
                race.append(i)
        if race:
            self._emit_access(race, "race:wr", node, "read", pn, off, sp,
                              time, None)
            for i in race:
                racy[off + i] = True
        if stale:
            self._emit_access(stale, "stale-read", node, "read", pn, off, sp,
                              time, got)

    def _write_write_races(self, node: int, vcn: List[int], pn: int,
                           off: int, n: int, sp: _ShadowPage,
                           time: float) -> None:
        """Words whose last write (by another node) is not ordered before
        this write."""
        w_node, w_clk = sp.w_node, sp.w_clk
        ww: List[int] = []
        for i in range(n):
            writer = w_node[off + i]
            if writer >= 0 and writer != node \
                    and w_clk[off + i] > vcn[writer]:
                ww.append(i)
        if ww:
            self._emit_access(ww, "race:ww", node, "write", pn, off, sp,
                              time, None)
            for i in ww:
                sp.racy[off + i] = True

    def _read_write_races(self, node: int, vcn: List[int], pn: int,
                          off: int, n: int, sp: _ShadowPage,
                          time: float) -> None:
        """Words some other node last read unordered before this write;
        each is reported against the lowest such reader."""
        nprocs = self.nprocs
        r_clk = sp.r_clk
        # only a node whose page summary escapes this VC can hold an
        # unordered read; scanning them in id order finds the lowest
        readers = [k for k in range(nprocs)
                   if k != node and sp.r_max[k] > vcn[k]]
        rw: List[Tuple[int, int]] = []
        for i in range(n):
            base = (off + i) * nprocs
            for k in readers:
                if r_clk[base + k] > vcn[k]:
                    rw.append((i, k))
                    break
        if rw:
            self._emit_read_write(rw, node, pn, off, sp, time)
            for i, _k in rw:
                sp.racy[off + i] = True

    # ------------------------------------------------------------ internals

    def _page(self, pn: int) -> _ShadowPage:
        sp = self._shadow.get(pn)
        if sp is None:
            sp = _ShadowPage(self.wpp, self.nprocs)
            self._shadow[pn] = sp
        return sp

    def _chunks(self, addr: int, nwords: int):
        """Split a word range into (page, offset, length) pieces."""
        while nwords > 0:
            pn, off = divmod(addr, self.wpp)
            n = min(nwords, self.wpp - off)
            yield pn, off, n
            addr += n
            nwords -= n

    def _segment_of(self, addr: int) -> Optional[str]:
        i = bisect_right(self._seg_bases, addr) - 1
        if i >= 0 and addr < self._seg_ends[i]:
            return self._seg_names[i]
        return None

    def _count(self, kind: str, n: int) -> int:
        """Bump the full counter; return how many reports may still be kept."""
        self.report.counts[kind] = self.report.counts.get(kind, 0) + n
        room = self.max_reports - len(self.report.violations)
        if room < n:
            self.report.truncated = True
        return max(0, room)

    def _emit_access(self, idxs: List[int], kind: str, node: int, op: str,
                     pn: int, off: int, sp: _ShadowPage, time: float,
                     data: Optional[List[float]]) -> None:
        """Report violations where the 'other' access is the last write;
        ``idxs`` are word offsets within the chunk at ``off``."""
        room = self._count(kind, len(idxs))
        stack = self._lock_stack[node]
        lock = stack[-1] if stack else None
        for i in idxs[:room]:
            w = off + i
            addr = pn * self.wpp + w
            wl = sp.w_lock[w]
            self.report.violations.append(ViolationReport(
                kind=kind, addr=addr, page=pn, word=w,
                segment=self._segment_of(addr),
                node=node, op=op, time=time,
                node_vc=tuple(self.vc[node]),
                lock=lock,
                other_node=sp.w_node[w], other_clock=sp.w_clk[w],
                other_time=float(sp.w_time[w]), other_op="write",
                other_lock=wl if wl >= 0 else None,
                expected=(float(sp.w_val[w]) if kind == "stale-read" else None),
                observed=(float(data[i]) if data is not None else None),
                last_transfer=self._last_transfer.get((node, pn)),
            ))

    def _emit_read_write(self, pairs: List[Tuple[int, int]], node: int,
                         pn: int, off: int, sp: _ShadowPage,
                         time: float) -> None:
        """Report write-after-read races (other access is a prior read);
        ``pairs`` are (word offset within the chunk, reader)."""
        room = self._count("race:rw", len(pairs))
        stack = self._lock_stack[node]
        lock = stack[-1] if stack else None
        for i, reader in pairs[:room]:
            w = off + i
            addr = pn * self.wpp + w
            self.report.violations.append(ViolationReport(
                kind="race:rw", addr=addr, page=pn, word=w,
                segment=self._segment_of(addr),
                node=node, op="write", time=time,
                node_vc=tuple(self.vc[node]),
                lock=lock,
                other_node=reader,
                other_clock=sp.r_clk[w * self.nprocs + reader],
                other_time=0.0, other_op="read", other_lock=None,
                last_transfer=self._last_transfer.get((node, pn)),
            ))

    def finish(self) -> CheckReport:
        self.report.pages_tracked = len(self._shadow)
        return self.report

