"""Application programming interface for simulated SPMD programs.

Programs are written as Python generators in the style the MINT front end
would execute them: every shared-memory reference and synchronization
operation is routed through the protocol (via ``yield from``), while private
computation is represented by ``compute(cycles)``.

Example::

    class MyApp(Application):
        name = "my-app"

        def declare(self, layout, sync):
            self.data = layout.allocate("data", 1024)
            self.lock = sync.new_lock("L")
            self.bar = sync.new_barrier("B")

        def program(self, ctx):
            yield from ctx.compute(1000)
            yield from ctx.acquire(self.lock)
            v = yield from ctx.read1(self.data, 0)
            yield from ctx.write1(self.data, 0, v + 1)
            yield from ctx.release(self.lock)
            yield from ctx.barrier(self.bar)
            return (yield from ctx.read1(self.data, 0))
"""
from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence

import numpy as np

from repro.engine.events import Delay
from repro.memory.layout import Layout, Segment
from repro.protocols.base import ProtocolNode
from repro.sync.objects import SyncRegistry


class AppContext:
    """Per-processor handle through which a program touches the machine."""

    def __init__(self, node: ProtocolNode) -> None:
        self._node = node
        #: the happens-before checker; None unless the run checks
        self._checker = node.world.checker
        #: app-level event recorder (``repro.fuzz.trace``); None when off
        self._tap = node.world.app_tap
        self.proc = node.node_id
        self.nprocs = node.machine.num_procs

    # ---- computation ------------------------------------------------------

    def compute(self, cycles: float) -> Generator:
        """Private computation: instructions + private accesses, 1 cy each."""
        if self._tap is not None:
            self._tap.rec(self.proc, ("cmp", float(cycles)))
        yield Delay(float(cycles), "busy")

    # ---- shared memory -----------------------------------------------------
    #
    # The checker observes each access right after the protocol completes
    # it: nothing yields in between, so the node's clock and the data are
    # exactly those of the access.  Unobserved, ``read`` and ``write`` hand
    # back the protocol's access generator itself (no pass-through frame
    # per access, DESIGN §11.9).

    def read(self, seg: Segment, start: int, n: int) -> Generator:
        seg.check_range(start, n)
        if self._tap is not None:
            self._tap.rec(self.proc, ("rd", seg.name, start, n))
        addr = seg.base + start
        if self._checker is None:
            return self._node.read(addr, n)
        return self._observed_read(addr, n)

    def _observed_read(self, addr: int, n: int) -> Generator:
        data = yield from self._node.read(addr, n)
        self._checker.on_read(self.proc, addr, data, self._node.now())
        return data

    def read1(self, seg: Segment, index: int) -> Generator:
        if self._tap is not None:
            self._tap.rec(self.proc, ("rd", seg.name, index, 1))
        addr = seg.addr(index)
        data = yield from self._node.read(addr, 1)
        if self._checker is not None:
            self._checker.on_read(self.proc, addr, data, self._node.now())
        return float(data[0])

    def write(self, seg: Segment, start: int,
              values: Sequence[float]) -> Generator:
        values = np.asarray(values, dtype=np.float64)
        seg.check_range(start, len(values))
        if self._tap is not None:
            self._tap.rec(self.proc,
                          ("wr", seg.name, start, tuple(map(float, values))))
        return self._write(seg.base + start, values)

    def write1(self, seg: Segment, index: int, value: float) -> Generator:
        if self._tap is not None:
            self._tap.rec(self.proc, ("wr", seg.name, index, (float(value),)))
        return self._write(seg.addr(index),
                           np.asarray([value], dtype=np.float64))

    def _write(self, addr: int, values: np.ndarray) -> Generator:
        if self._checker is None:
            return self._node.write(addr, values)
        return self._observed_write(addr, values)

    def _observed_write(self, addr: int, values: np.ndarray) -> Generator:
        yield from self._node.write(addr, values)
        self._checker.on_write(self.proc, addr, values, self._node.now())

    def fill(self, seg: Segment, start: int, n: int,
             value: float) -> Generator:
        return self.write(seg, start, np.full(n, value, dtype=np.float64))

    # ---- synchronization -----------------------------------------------------
    #
    # The consistency checker's happens-before edges hang off these calls:
    # every protocol's program operations funnel through here, so hooking
    # the context (rather than each protocol) covers AEC, TreadMarks, Munin
    # and SC alike.  Hook placement mirrors the HB semantics — release is
    # ordered before the protocol publishes the lock, acquire after the
    # grant completes, barrier arrival before entering / departure after
    # leaving.  Unobserved, each hands back the protocol's generator itself.

    def acquire(self, lock_id: int) -> Generator:
        if self._tap is not None:
            self._tap.rec(self.proc, ("acq", lock_id))
        if self._checker is None:
            return self._node.acquire(lock_id)
        return self._observed_acquire(lock_id)

    def _observed_acquire(self, lock_id: int) -> Generator:
        yield from self._node.acquire(lock_id)
        self._checker.on_acquire(self.proc, lock_id)

    def release(self, lock_id: int) -> Generator:
        if self._tap is not None:
            self._tap.rec(self.proc, ("rel", lock_id))
        if self._checker is None:
            return self._node.release(lock_id)
        return self._observed_release(lock_id)

    def _observed_release(self, lock_id: int) -> Generator:
        self._checker.on_release(self.proc, lock_id)
        yield from self._node.release(lock_id)

    def barrier(self, barrier_id: int) -> Generator:
        if self._tap is not None:
            self._tap.rec(self.proc, ("bar", barrier_id))
        if self._checker is None:
            return self._node.barrier(barrier_id)
        return self._observed_barrier(barrier_id)

    def _observed_barrier(self, barrier_id: int) -> Generator:
        self._checker.on_barrier_arrive(self.proc)
        yield from self._node.barrier(barrier_id)
        self._checker.on_barrier_depart(self.proc)

    def acquire_notice(self, lock_id: int) -> Generator:
        """Announce intent to acquire soon (LAP's virtual-queue input)."""
        if self._tap is not None:
            self._tap.rec(self.proc, ("ntc", lock_id))
        return self._node.acquire_notice(lock_id)


class Application:
    """Base class for simulated SPMD applications.

    Subclasses declare shared segments and synchronization objects in
    :meth:`declare` and provide the per-processor SPMD :meth:`program`.
    """

    #: registry key and default Table 2 identity
    name = "app"

    #: segment names whose *final* content legitimately depends on
    #: scheduling (e.g. work-stealing queue cursors) — the cross-protocol
    #: divergence oracle skips them when diffing final memory
    volatile_segments: Sequence[str] = ()

    def declare(self, layout: Layout, sync: SyncRegistry) -> None:
        raise NotImplementedError

    def program(self, ctx: AppContext) -> Generator:
        raise NotImplementedError

    def check(self, results: List[Any]) -> None:
        """Validate per-processor results (raise AssertionError on failure)."""

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name}
