"""Idealized sequentially-consistent shared memory — the test oracle.

One physical copy of every page, shared by all nodes; locks and barriers are
centralized zero-latency primitives built directly on engine futures.  This
is *not* a realistic DSM: it exists so that application results under AEC and
TreadMarks can be validated against a trivially correct execution, and as an
"ideal shared memory" lower bound in examples.
"""
from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List, Optional

import numpy as np

from repro.engine.events import Delay, Resolve, Wait
from repro.engine.future import Future
from repro.protocols.base import ProtocolNode, World


class _CentralSync:
    """Zero-latency central lock/barrier state shared by all SC nodes."""

    def __init__(self) -> None:
        self.lock_holder: Dict[int, Optional[int]] = {}
        self.lock_queue: Dict[int, Deque[Future]] = {}
        self.barrier_count: Dict[int, int] = {}
        self.barrier_waiters: Dict[int, List[Future]] = {}


class SCNode(ProtocolNode):
    name = "sc"

    def __init__(self, world: World, node_id: int) -> None:
        super().__init__(world, node_id)
        if node_id == 0:
            # node 0 already holds a copy of every page: it is the single
            # store, and it owns the central lock/barrier state
            self.central = _CentralSync()
        else:
            # node 0 registered first; every node aliases its state
            hub = world.nodes[0]
            self.store = hub.store
            self.central = hub.central

    # ---- memory: single copy, no faults ---------------------------------

    def read(self, addr: int, nwords: int) -> Generator:
        yield Delay(float(nwords), "busy")
        return self.store.read(addr, nwords)

    def write(self, addr: int, values: np.ndarray) -> Generator:
        yield Delay(float(len(values)), "busy")
        self.store.write(addr, values)

    # ---- synchronization: central, zero latency ---------------------------

    def acquire(self, lock_id: int) -> Generator:
        c = self.central
        holder = c.lock_holder.get(lock_id)
        self.world.count_acquire(lock_id)
        if holder is None:
            c.lock_holder[lock_id] = self.node_id
            self.locks_held.add(lock_id)
            return
        fut = self.new_future(f"sc-lock{lock_id}")
        c.lock_queue.setdefault(lock_id, deque()).append((self.node_id, fut))
        granted = yield Wait(fut, "synch")
        assert granted == self.node_id
        self.locks_held.add(lock_id)

    def release(self, lock_id: int) -> Generator:
        c = self.central
        if c.lock_holder.get(lock_id) != self.node_id:
            raise RuntimeError(f"sc: release of unheld lock {lock_id}")
        self.locks_held.discard(lock_id)
        queue = c.lock_queue.get(lock_id)
        if queue:
            node_id, fut = queue.popleft()
            c.lock_holder[lock_id] = node_id
            yield Resolve(fut, node_id)
        else:
            c.lock_holder[lock_id] = None

    def barrier(self, barrier_id: int) -> Generator:
        c = self.central
        n = self.machine.num_procs
        count = c.barrier_count.get(barrier_id, 0) + 1
        c.barrier_count[barrier_id] = count
        waiters = c.barrier_waiters.setdefault(barrier_id, [])
        if count == n:
            c.barrier_count[barrier_id] = 0
            c.barrier_waiters[barrier_id] = []
            self.world.note_barrier_complete()
            for fut in waiters:
                yield Resolve(fut, None)
            return
        fut = self.new_future(f"sc-bar{barrier_id}")
        waiters.append(fut)
        yield Wait(fut, "synch")
