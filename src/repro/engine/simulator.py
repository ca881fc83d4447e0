"""The discrete-event core driving per-node timelines.

Each simulated node runs one *program task* (a generator yielding engine
primitives) and services incoming messages with *interrupt service routines*
(ISRs): what the handler that the node's handler table names for the
message's kind returns, a generator of primitives or any other iterable of
them (a handler that only resolves a future returns it in a tuple), or
None.  ISRs run to
completion on the node's timeline, stealing cycles from whatever the program
task was doing — an in-progress ``Delay`` is stretched by the service time,
exactly like an interrupt on a real workstation.

Timing/accounting model (categories follow Figure 4 of the paper):

* ``Delay(c, cat)`` charges ``c`` cycles to ``cat`` on the node;
* ``Send`` charges the messaging overhead plus the I/O-bus transfer of the
  payload to the sender, then hands the message to the network model, which
  returns the delivery time under source/destination link contention;
* message delivery charges the interrupt entry cost (``others``) and the
  receive-side I/O-bus transfer (``ipc``) before the handler's own delays;
* ``Wait(fut, cat)`` charges the blocked duration *minus* any ISR cycles that
  ran during the window (those were already charged to ``ipc``/``others``).

Hot-path architecture (see DESIGN.md §11): event kinds are interned small
integers, event records are plain ``(time, seq, kind, a, b)`` tuples
ordered by ``(time, seq)``, and scheduling is two-tier — a sorted FIFO
*ready run* absorbs pushes that arrive in non-decreasing time order (the
overwhelmingly common case: a node's next delay end, a chain of arrivals)
at O(1) instead of O(log n) heap cost, while out-of-order pushes fall back
to the heap.  The dispatch loop merges the two sources by ``(time, seq)``,
so the processed event sequence — and therefore every simulated number —
is identical to a single-heap implementation.
"""
from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable,
                    List, Optional)

from repro.config import MachineParams, SimConfig
from repro.engine.events import CATEGORIES, Delay, Resolve, Send, Wait
from repro.engine.future import Future
from repro.network.message import HEADER_BYTES, Message
from repro.network.network import Network

if TYPE_CHECKING:  # runtime import would cycle: protocols.base imports us
    from repro.protocols.base import ReliableTransport

#: interned event kinds: heap/ready entries carry one of these integers;
#: an entry is ``(time, seq, kind, a, b)`` with the kind's two operands
#: flattened in (no payload tuple per event):
#: EV_DELAY_END ``(node_id, delay_seq)``, EV_ARRIVAL ``(msg, None)``,
#: EV_WAKE ``(node_id, future)``, EV_CALL ``(fn, None)``
EV_DELAY_END = 0
EV_ARRIVAL = 1
EV_WAKE = 2
EV_CALL = 3


class SimulationError(RuntimeError):
    pass


Handler = Callable[[Message], Optional[Iterable]]
#: message kind -> the handler the engine runs for it
HandlerTable = Dict[str, Handler]
Program = Generator


class _NodeRuntime:
    """Book-keeping for one simulated node's timeline."""

    __slots__ = (
        "node_id", "gen", "state", "clock", "delay_end", "delay_seq",
        "isr_busy_until", "isr_cycles_total", "breakdown",
        "wait_start", "wait_isr_snapshot", "wait_category", "done_time",
        "handlers", "dead", "result",
    )

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.gen: Optional[Program] = None
        #: the node's handler table; the engine dispatches on it directly
        self.handlers: HandlerTable = {}
        # "dead" is the terminal state of a permanently-crashed node; the
        # transient crash-stop window is the ``dead`` flag instead
        self.state = "ready"  # ready | delaying | blocked | done | dead
        self.clock = 0.0
        self.delay_end = 0.0
        self.delay_seq = 0  # invalidates stale delay-completion events
        self.isr_busy_until = 0.0
        self.isr_cycles_total = 0.0
        self.breakdown: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self.wait_start = 0.0
        self.wait_isr_snapshot = 0.0
        self.wait_category = "synch"
        self.done_time: Optional[float] = None
        #: the program's return value, once it is done
        self.result: Any = None
        #: crash-stop window active (set only by the crash controller):
        #: the transport black-holes the node's NIC in both directions
        self.dead = False

    def charge(self, category: str, cycles: float) -> None:
        self.breakdown[category] += cycles


class Simulator:
    """Runs a set of per-node program tasks over the machine/network model."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.machine: MachineParams = config.machine
        self.network = Network(self.machine)
        self.nodes: List[_NodeRuntime] = [
            _NodeRuntime(i) for i in range(self.machine.num_procs)
        ]
        #: out-of-order event store, entries are (time, seq, kind, a, b)
        self._heap: List[tuple] = []
        #: sorted FIFO fast path for in-order pushes (same entry layout)
        self._ready: deque = deque()
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
        self._started = False
        # hoisted machine costs (attribute lookups kept off the event loop)
        m = self.machine
        self._interrupt_cycles = float(m.interrupt_cycles)
        self._messaging_overhead = float(m.messaging_overhead_cycles)
        #: payload_bytes -> receive-side I/O transfer cycles
        self._recv_io_costs: Dict[int, float] = {0: 0.0}
        #: payload_bytes -> sender-side cost (overhead + I/O transfer)
        self._send_costs: Dict[int, float] = {0: self._messaging_overhead}
        #: the faulty network: None on the paper's lossless network, else
        #: the ``ReliableTransport`` that ``World`` installs when
        #: ``config.faults`` is set (it owns injection and crash guards)
        self.transport: Optional[ReliableTransport] = None
        #: the one callback a blocked program's future wakes it through
        self._wake_on_resolve = self._schedule_wake

    # ------------------------------------------------------------------ API

    def add_program(self, node_id: int, program: Program) -> None:
        node = self.nodes[node_id]
        if node.gen is not None:
            raise SimulationError(f"node {node_id} already has a program")
        node.gen = program

    def set_handler(self, node_id: int, table: HandlerTable) -> None:
        """Install ``node_id``'s handler table (message kind -> handler).

        The engine keeps the table itself, so kinds added to it later are
        dispatched too."""
        self.nodes[node_id].handlers = table

    def run(self) -> float:
        """Run to completion; returns the simulated execution time (cycles)."""
        if self._started:
            raise SimulationError("simulator already ran")
        self._started = True
        for node in self.nodes:
            if node.gen is None:
                node.state = "done"
                node.done_time = 0.0
        for node in self.nodes:
            if node.gen is not None:
                self._step_program(node, None)
        limit = self.config.max_events
        # everything the dispatch loop touches every iteration is a local
        heap = self._heap
        ready = self._ready
        pop_ready = ready.popleft
        pop_heap = heappop
        nodes = self.nodes
        step_program = self._step_program
        deliver = self._deliver
        wake = self._wake
        now = self.now
        events = self.events_processed
        while heap or ready:
            if ready and (not heap or ready[0] < heap[0]):
                event = pop_ready()
            else:
                event = pop_heap(heap)
            time, _seq, kind, a, b = event
            if time > now:
                now = time
                self.now = time
            elif time < now - 1e-9:
                raise SimulationError(
                    f"time went backwards: {time} < {now}")
            events += 1
            if events > limit:
                self.events_processed = events
                raise SimulationError(f"exceeded max_events={limit}")
            if kind == EV_DELAY_END:
                node = nodes[a]
                if node.state == "delaying" and b == node.delay_seq:
                    node.clock = node.delay_end
                    node.state = "ready"
                    step_program(node, None)
                # else stale: the delay was stretched by an ISR
            elif kind == EV_ARRIVAL:
                deliver(a)
            elif kind == EV_WAKE:
                wake(nodes[a], b)
            elif kind == EV_CALL:
                a()
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")
        self.events_processed = events
        for node in self.nodes:
            if node.state not in ("done", "dead"):
                raise SimulationError(
                    f"deadlock: node {node.node_id} ended in state {node.state!r} "
                    f"(waiting on {getattr(node, 'wait_category', '?')})"
                )
        return self.execution_time

    @property
    def execution_time(self) -> float:
        return max((n.done_time or 0.0) for n in self.nodes)

    def breakdowns(self) -> List[Dict[str, float]]:
        return [dict(n.breakdown) for n in self.nodes]

    # ------------------------------------------------------- program driving

    def _push(self, time: float, kind: int, a: Any, b: Any = None) -> None:
        """Schedule an event; ``(time, seq)`` totally orders dispatch.

        The sorted ready run takes any push that keeps it non-decreasing in
        time (sequence numbers already increase monotonically); everything
        else goes to the heap.  The run loop merges both by ``(time, seq)``,
        so dispatch order is exactly that of a single heap.  The two
        hottest pushes (a program's delay end, a lossless arrival) are
        inlined copies of this rule (DESIGN §11.2, §11.9).
        """
        seq = self._seq = self._seq + 1
        ready = self._ready
        if not ready or time >= ready[-1][0]:
            ready.append((time, seq, kind, a, b))
        else:
            heappush(self._heap, (time, seq, kind, a, b))

    def schedule_call(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` on the event loop at simulated time ``time``.

        Used by the reliable transport (retransmission timers) and the
        fault injector (scheduled node stalls); never by protocols on the
        fault-free path, so faults-off event streams are unchanged.
        """
        self._push(max(time, self.now), EV_CALL, fn)

    def interrupt(self, node: _NodeRuntime, cycles: float) -> float:
        """Occupy ``node``'s interrupt engine for ``cycles`` starting now.

        The shared core of every scheduled interruption — the fault
        injector's plan stalls and the crash controller's outage/restore/
        replay windows, both outside the engine: an uninterruptible
        zero-work ISR that queues incoming handlers behind it and
        stretches an in-progress delay, exactly like a real ISR would.
        Returns the window's start time.
        """
        start = max(self.now, node.isr_busy_until)
        node.isr_busy_until = start + cycles
        node.isr_cycles_total += cycles
        node.charge("others", cycles)
        if node.state == "delaying":
            node.delay_end += cycles
            node.delay_seq += 1
            self._push(node.delay_end, EV_DELAY_END, node.node_id,
                       node.delay_seq)
        return start

    def _step_program(self, node: _NodeRuntime, value: Any) -> None:
        """Advance a node's program task until it blocks, delays or finishes.

        A finished program's return value is kept on ``node.result``.
        """
        send = node.gen.send
        breakdown = node.breakdown
        while True:
            try:
                op = send(value)
            except StopIteration as stop:
                node.state = "done"
                node.done_time = node.clock
                node.result = stop.value
                return
            value = None
            cls = type(op)
            if cls is Delay:
                cycles = op.cycles
                breakdown[op.category] += cycles
                if cycles <= 0:
                    continue
            elif cls is Send:
                msg = op.message
                cycles = self._send_costs.get(msg.payload_bytes)
                if cycles is None:
                    cycles = self._send_cost(msg.payload_bytes)
                breakdown[op.category] += cycles
                if cycles <= 0:
                    self._inject(node.node_id, op.dst, msg, node.clock)
                    continue
                # else the send is an interruptible delay whose completion
                # injects the message
            elif cls is Wait:
                fut = op.future
                if fut._done:
                    value = fut._value
                    continue
                node.state = "blocked"
                node.wait_start = node.clock
                node.wait_isr_snapshot = node.isr_cycles_total
                node.wait_category = op.category
                # the future names its waiter, so one bound callback wakes
                # every blocked program (no closure per ``Wait``)
                fut.waiter = node.node_id
                fut._wake = self._wake_on_resolve
                return
            elif cls is Resolve:
                op.future.resolve(op.value, node.clock)
                continue
            else:
                raise SimulationError(f"program yielded unknown op {op!r}")
            node.state = "delaying"
            end = node.clock + cycles
            node.delay_end = end
            dseq = node.delay_seq = node.delay_seq + 1
            # inlined ``_push``: the ready-run rule of DESIGN §11.2
            seq = self._seq = self._seq + 1
            ready = self._ready
            if not ready or end >= ready[-1][0]:
                ready.append((end, seq, EV_DELAY_END, node.node_id, dseq))
            else:
                heappush(self._heap,
                         (end, seq, EV_DELAY_END, node.node_id, dseq))
            if cls is Send:
                # inject at the (possibly later, if interrupted) send end;
                # we bind injection to nominal end: acceptable approximation
                self._inject(node.node_id, op.dst, msg, end)
            return

    def _schedule_wake(self, fut: Future) -> None:
        """``fut`` resolved: wake the program blocked on it."""
        self._push(max(fut._resolve_time, self.now), EV_WAKE, fut.waiter, fut)

    def _wake(self, node: _NodeRuntime, fut: Future) -> None:
        if node.state == "dead":
            return  # declared permanently dead while blocked
        if node.state != "blocked":  # pragma: no cover - defensive
            raise SimulationError(f"wake of non-blocked node {node.node_id}")
        wake_time = max(fut._resolve_time, node.isr_busy_until,
                        node.wait_start)
        duration = wake_time - node.wait_start
        overlap = node.isr_cycles_total - node.wait_isr_snapshot
        charged = duration - overlap
        if charged > 0.0:
            node.breakdown[node.wait_category] += charged
        node.clock = wake_time
        node.state = "ready"
        self._step_program(node, fut._value)

    # ----------------------------------------------------------- networking

    def _send_cost(self, nbytes: int) -> float:
        """Sender-side cost of a ``nbytes`` payload; callers read the memo
        ``_send_costs`` first and come here only on a miss."""
        cost = self._messaging_overhead + self.machine.io_transfer_cycles(
            nbytes)
        self._send_costs[nbytes] = cost
        return cost

    def _recv_io_cost(self, nbytes: int) -> float:
        """Receive-side I/O transfer of a ``nbytes`` payload; callers read
        the memo ``_recv_io_costs`` first and come here only on a miss."""
        cost = self.machine.io_transfer_cycles(nbytes)
        self._recv_io_costs[nbytes] = cost
        return cost

    def _inject(self, src: int, dst: int, msg: Message, time: float) -> None:
        msg.src = src
        msg.dst = dst
        if src == dst:
            # loopback (e.g. node is its own manager): no network transit;
            # also exempt from the transport — a message to self cannot be
            # lost, duplicated or reordered
            self._push(time, EV_ARRIVAL, msg)
            return
        transport = self.transport
        if transport is not None:
            transport.on_send(msg, time)
            self.transmit(msg, time)
            return
        # the paper's lossless network: one wire copy, always delivered
        arrival = self.network.deliver(src, dst, HEADER_BYTES
                                       + msg.payload_bytes, time)
        # inlined ``_push``: the ready-run rule of DESIGN §11.2
        seq = self._seq = self._seq + 1
        ready = self._ready
        if not ready or arrival >= ready[-1][0]:
            ready.append((arrival, seq, EV_ARRIVAL, msg, None))
        else:
            heappush(self._heap, (arrival, seq, EV_ARRIVAL, msg, None))

    def transmit(self, msg: Message, time: float) -> None:
        """Put one wire copy of ``msg`` on the faulty network at ``time``.

        Called by ``_inject`` for first transmissions and directly by the
        reliable transport for retransmissions and acks (NIC-level
        frames).  The transport decides each copy's fate; a dropped copy
        still reserved the links (the frame was transmitted and lost in
        flight), so the contention model charges it either way.
        """
        nbytes = HEADER_BYTES + msg.payload_bytes
        for delivered, extra in self.transport.fates(msg, time):
            arrival = self.network.deliver(msg.src, msg.dst, nbytes, time)
            if delivered:
                self._push(arrival + extra, EV_ARRIVAL, msg)

    def _deliver(self, msg: Message) -> None:
        transport = self.transport
        if transport is not None and not transport.on_arrival(msg):
            # NIC-level frame: an ack, a duplicate, a late retransmission of
            # something already applied, or a frame reaching a crashed node
            # — suppressed below the CPU, so no interrupt cost
            return
        node = self.nodes[msg.dst]
        handler = node.handlers.get(msg.kind)
        if handler is None:
            raise SimulationError(
                f"node {msg.dst} has no handler for message {msg.kind!r}")
        breakdown = node.breakdown
        vstart = self.now
        busy_until = node.isr_busy_until
        if busy_until > vstart:
            vstart = busy_until
        vtime = vstart
        if msg.src != msg.dst:
            entry = self._interrupt_cycles
            breakdown["others"] += entry
            recv_io = self._recv_io_costs.get(msg.payload_bytes)
            if recv_io is None:
                recv_io = self._recv_io_cost(msg.payload_bytes)
            breakdown["ipc"] += recv_io
            vtime += entry + recv_io
        gen = handler(msg)
        if gen is not None:
            send_costs = self._send_costs
            for op in gen:
                cls = type(op)
                if cls is Delay:
                    breakdown[op.category] += op.cycles
                    vtime += op.cycles
                elif cls is Send:
                    m = op.message
                    cost = send_costs.get(m.payload_bytes)
                    if cost is None:
                        cost = self._send_cost(m.payload_bytes)
                    breakdown[op.category] += cost
                    vtime += cost
                    self._inject(node.node_id, op.dst, m, vtime)
                elif cls is Resolve:
                    op.future.resolve(op.value, vtime)
                elif cls is Wait:
                    raise SimulationError(
                        "interrupt handlers must not block (yielded Wait)"
                    )
                else:
                    raise SimulationError(f"handler yielded unknown op {op!r}")
        service = vtime - vstart
        node.isr_cycles_total += service
        node.isr_busy_until = vstart + service
        if node.state == "delaying" and service > 0:
            # the interrupt stole cycles from the in-progress delay
            node.delay_end += service
            node.delay_seq += 1
            self._push(node.delay_end, EV_DELAY_END, node.node_id,
                       node.delay_seq)
