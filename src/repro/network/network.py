"""End-to-end message delivery timing with link contention.

Wormhole model: the header traverses ``hops`` switches (switch + wire latency
each); the body then streams at the path width (16 bits/cycle by default).
Contention is modelled at the two endpoints, as in the paper ("network
contention effects are modeled both at the source and destination of
messages"): the source injection link is held for the streaming duration, and
the destination ejection link drains messages one at a time.

``deliver`` sits on the per-message hot path, so the invariant parts of the
timing are memoized: header latency per (src, dst) pair (mesh distance
never changes) and streaming cycles per message size (a run uses a handful
of distinct sizes).  Per-pair traffic counters accumulate in a plain dict
and materialize into NumPy matrices on demand — a dict upsert is several
times cheaper than a NumPy scalar ``+=`` per message.
"""
from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.config import MachineParams
from repro.network.mesh import Mesh


class Network:
    def __init__(self, machine: MachineParams) -> None:
        self.machine = machine
        self.mesh = Mesh(machine.num_procs)
        self._src_free: List[float] = [0.0] * machine.num_procs
        self._dst_free: List[float] = [0.0] * machine.num_procs
        self.messages = 0
        self.bytes = 0
        self._bytes_per_cycle = machine.net_bytes_per_cycle
        self._hop_cycles = float(machine.switch_cycles + machine.wire_cycles)
        #: (src, dst) -> header latency in cycles (hops * per-hop cost)
        self._header_cycles: Dict[Tuple[int, int], float] = {}
        #: nbytes -> streaming cycles
        self._stream_cycles: Dict[int, float] = {}
        #: (src, dst) -> [message count, byte count]
        self._pair: Dict[Tuple[int, int], List[int]] = {}

    @property
    def pair_messages(self):
        """Per-(src, dst) message counts (who talks to whom) as a matrix."""
        return self._pair_matrix(0)

    @property
    def pair_bytes(self):
        return self._pair_matrix(1)

    def _pair_matrix(self, which: int):
        import numpy as np
        n = self.machine.num_procs
        out = np.zeros((n, n), dtype=np.int64)
        for (src, dst), counts in self._pair.items():
            out[src, dst] = counts[which]
        return out

    def stream_cycles(self, nbytes: int) -> float:
        cached = self._stream_cycles.get(nbytes)
        if cached is None:
            cached = float(math.ceil(nbytes / self._bytes_per_cycle))
            self._stream_cycles[nbytes] = cached
        return cached

    def deliver(self, src: int, dst: int, nbytes: int, time: float) -> float:
        """Reserve links and return the delivery completion time at ``dst``.

        Loopback (``src == dst``) is free and deliberately *not* counted in
        ``messages``/``bytes``/``pair_messages``: these counters reproduce
        the paper's network-message statistics (Table 2), which only count
        traffic that crosses the interconnect.  A node messaging itself
        (e.g. as its own lock manager) never leaves the NIC — the simulator
        normally short-circuits such sends before reaching the network at
        all, so counting here would also make the totals depend on which
        layer happened to deliver the message.  Pinned by a regression
        test; do not change one side without the other.
        """
        if src == dst:
            return time
        stream = self._stream_cycles.get(nbytes)
        if stream is None:
            stream = self.stream_cycles(nbytes)
        src_free = self._src_free
        start = src_free[src]
        if time > start:
            start = time
        src_free[src] = start + stream
        pair = (src, dst)
        header = self._header_cycles.get(pair)
        if header is None:
            header = self.mesh.hops(src, dst) * self._hop_cycles
            self._header_cycles[pair] = header
        header_arrival = start + header
        drain_start = self._dst_free[dst]
        if header_arrival > drain_start:
            drain_start = header_arrival
        delivery = drain_start + stream
        self._dst_free[dst] = delivery
        self.messages += 1
        self.bytes += nbytes
        counts = self._pair.get(pair)
        if counts is None:
            self._pair[pair] = [1, nbytes]
        else:
            counts[0] += 1
            counts[1] += nbytes
        return delivery
