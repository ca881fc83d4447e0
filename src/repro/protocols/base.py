"""Common machinery shared by all simulated SW-DSM protocols.

``World`` bundles everything global to one simulation run (configuration,
segment layout, synchronization registry, the engine, shared statistics).
``ProtocolNode`` is the per-node protocol object: the application driver
calls its generator methods (``read``/``write``/``acquire``/...), and the
engine runs, as the node's interrupt service routine, the handler that the
node's ``_handlers`` table names for each message kind.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Set, Tuple)

import numpy as np

from repro.config import MachineParams, SimConfig
from repro.core.lap.predictor import LapPredictor
from repro.core.lap.state import LockPredictionState
from repro.core.lap.stats import LapStats
from repro.engine.events import Delay, Resolve, Send, Wait
from repro.engine.future import Future
from repro.engine.simulator import SimulationError, Simulator
from repro.faults.injector import Fate, FaultInjector
from repro.faults.stats import NetFaultStats
from repro.machine.node import NodeHardware
from repro.memory.diff import Diff, create_diff
from repro.memory.layout import Layout
from repro.memory.pagestore import PageStore
from repro.network.message import Message
from repro.obs.spans import SpanRecorder
from repro.recovery.detector import HEARTBEAT_KIND
from repro.stats.diff_stats import DiffStats
from repro.stats.fault_stats import AccessFaultStats
from repro.sync.objects import SyncRegistry

#: NIC-level acknowledgement frames of the reliable transport
ACK_KIND = "net.ack"
ACK_BYTES = 8

#: message kinds delivered best-effort even under the reliable transport:
#: pure performance hints whose loss the protocol tolerates by design.
#: AEC's eager update-set push is the canonical case — a lost push degrades
#: to a LAP miss (the acquirer times out and fetches the diffs on demand);
#: retransmitting it would only delay the fallback.  They still carry
#: sequence numbers so duplicated copies are applied exactly once.
BEST_EFFORT_KINDS = frozenset({"aec.upset_diffs"})

#: base NIC retransmission timeout; roughly 2-3x the worst-case RTT of a
#: page-sized transfer on a contended 16-node mesh (~15-20k cycles)
RETRANS_TIMEOUT_CYCLES = 50_000
#: exponential backoff factor between successive retransmissions
RETRANS_BACKOFF = 2.0
#: retry budget: attempts before the transport fails the run loudly
RETRANS_MAX_RETRIES = 10
#: once a peer's lease has expired, pendings to it are probed at this
#: constant rate instead of backing off exponentially into the void
PEER_PROBE_CYCLES = 50_000


#: reply sentinel injected by crash recovery: the request's destination was
#: declared permanently dead; re-issue (retargeted) or fail loudly
_RETRY_DEAD = object()


class PeerLostError(RuntimeError):
    """A request's destination died and no retarget route exists."""


class TransportTimeoutError(SimulationError):
    """A reliable message exhausted its retry budget without an ack.

    Raised out of the simulator loop — a run under faults either completes
    within its retry budget or fails loudly with this structured
    diagnostic; it never silently corrupts memory.
    """

    def __init__(self, src: int, dst: int, kind: str, seq: int,
                 attempts: int, first_sent: float, now: float) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.attempts = attempts
        self.first_sent = first_sent
        self.now = now
        super().__init__(
            f"transport timeout: {kind} #{seq} {src}->{dst} unacked after "
            f"{attempts} attempt(s) over {now - first_sent:.0f} cycles "
            f"(first sent at t={first_sent:.0f})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "error": "transport_timeout",
            "src": self.src, "dst": self.dst,
            "kind": self.kind, "seq": self.seq,
            "attempts": self.attempts,
            "first_sent": self.first_sent, "time": self.now,
        }


class ReliableTransport:
    """Exactly-once messaging over a faulty network.

    Installed on ``Simulator.transport`` whenever ``config.faults`` is set,
    it owns everything a faulty network does: the run's ``NetFaultStats``,
    the plan's ``FaultInjector`` (message fates and node stalls) and, once
    a crash controller attaches itself, the black-holing of crashed NICs.
    Sender side stamps a per-(src, dst, kind) sequence number on every
    non-loopback message and, for reliable kinds, keeps the message buffered
    until the destination NIC acks it — retransmitting on a timeout that
    backs off exponentially (``RETRANS_TIMEOUT_CYCLES`` times
    ``RETRANS_BACKOFF`` per attempt) up to ``RETRANS_MAX_RETRIES``
    attempts, after which the run fails loudly with
    :class:`TransportTimeoutError`.

    Receiver side dedups by sequence number *before* any node accounting or
    handler dispatch: duplicates (injected or retransmitted) are suppressed
    at NIC level with zero CPU cost, and every suppressed reliable copy is
    re-acked (the original ack may have been the casualty).  Protocol
    handlers therefore observe exactly-once delivery and need no idempotence
    of their own.
    """

    def __init__(self, sim: Simulator,
                 spans: Optional[SpanRecorder]) -> None:
        self.sim = sim
        plan = sim.config.faults
        self.stats = NetFaultStats(plan=plan.name, fault_seed=plan.seed)
        self.injector = FaultInjector(plan, sim.machine, self.stats, spans)
        #: next sequence number per (src, dst, kind)
        self._send_seq: Dict[Any, int] = {}
        #: unacked reliable messages keyed by (src, dst, kind, seq)
        self._pending: Dict[Any, Message] = {}
        #: receive-side dedup per (src, dst, kind): contiguous high
        #: watermark plus the out-of-order seqs above it
        self._recv_high: Dict[Any, int] = {}
        self._recv_gaps: Dict[Any, set] = {}
        #: the ``CrashController`` when the plan schedules crashes; its
        #: detector's leases and its dead-node flags gate the NIC
        self.controller: Any = None

    # --------------------------------------------------------- sender side

    def fates(self, msg: Message, time: float) -> Tuple[Fate, ...]:
        """Per-copy fates of one wire copy of ``msg`` sent at ``time``."""
        ctrl = self.controller
        if ctrl is not None and self.sim.nodes[msg.src].dead:
            # a crashed node's NIC transmits nothing (retransmission
            # timers keep firing and re-arm once the node is back up)
            ctrl.stats.sends_suppressed += 1
            return ()
        return self.injector.fates(msg, time)

    def on_send(self, msg: Message, time: float) -> None:
        key3 = (msg.src, msg.dst, msg.kind)
        seq = self._send_seq.get(key3, 0)
        self._send_seq[key3] = seq + 1
        msg.seq = seq
        if msg.kind in BEST_EFFORT_KINDS:
            return
        key = (msg.src, msg.dst, msg.kind, seq)
        self._pending[key] = msg
        self._arm_timer(key, attempt=1, sent_at=time, first_sent=time)

    def _arm_timer(self, key: Any, attempt: int, sent_at: float,
                   first_sent: float) -> None:
        timeout = RETRANS_TIMEOUT_CYCLES * RETRANS_BACKOFF ** (attempt - 1)
        self.sim.schedule_call(
            sent_at + timeout,
            lambda: self._on_timeout(key, attempt, first_sent))

    def _on_timeout(self, key: Any, attempt: int, first_sent: float) -> None:
        msg = self._pending.get(key)
        if msg is None:
            return  # acked in the meantime
        ctrl = self.controller
        if ctrl is not None:
            now = self.sim.now
            if ctrl.is_permanently_dead(msg.dst):
                # the coordinator reconfigured around this peer; there is
                # nobody left to ack this — drop it on the floor
                self._pending.pop(key, None)
                ctrl.stats.cancelled_sends += 1
                return
            if self.sim.nodes[msg.src].dead:
                # our own NIC is down: freeze the timer, probe on revival
                self.sim.schedule_call(
                    now + PEER_PROBE_CYCLES,
                    lambda: self._on_timeout(key, attempt, first_sent))
                return
            if not ctrl.detector.alive(msg.src, msg.dst, now):
                # the peer's lease expired: it is dead as far as this
                # sender can tell.  Exponential backoff would retry into
                # the void at ever-longer intervals; instead park the
                # pending on constant-rate probes so a restarted peer is
                # picked up within one probe period (attempt counter
                # frozen), and leave a permanent death to the coordinator.
                ctrl.stats.parked_probes += 1
                self.stats.note_retry(msg.kind)
                self.sim.transmit(msg, now)
                self.sim.schedule_call(
                    now + PEER_PROBE_CYCLES,
                    lambda: self._on_timeout(key, attempt, first_sent))
                return
        self.stats.timeouts += 1
        if attempt > RETRANS_MAX_RETRIES:
            raise TransportTimeoutError(
                msg.src, msg.dst, msg.kind, msg.seq,
                attempt, first_sent, self.sim.now)
        self.stats.note_retry(msg.kind)
        now = self.sim.now
        self.sim.transmit(msg, now)
        self._arm_timer(key, attempt + 1, sent_at=now, first_sent=first_sent)

    # ------------------------------------------------------- receiver side

    def _first_delivery(self, key3: Any, seq: int) -> bool:
        high = self._recv_high.get(key3, -1)
        if seq <= high:
            return False
        gaps = self._recv_gaps.setdefault(key3, set())
        if seq in gaps:
            return False
        gaps.add(seq)
        while (high + 1) in gaps:
            high += 1
            gaps.discard(high)
        self._recv_high[key3] = high
        return True

    def _send_ack(self, msg: Message) -> None:
        ack = Message(ACK_KIND, {"kind": msg.kind, "seq": msg.seq}, ACK_BYTES)
        ack.src, ack.dst = msg.dst, msg.src
        self.stats.acks_sent += 1
        # straight onto the wire: acks are NIC frames, never node work, and
        # themselves unreliable (a lost ack is covered by retransmission)
        self.sim.transmit(ack, self.sim.now)

    def cancel_peer(self, peer: int) -> int:
        """Drop every pending to or from a declared-dead ``peer``.

        Outbound: nobody is left to ack.  The peer's own unacked sends
        must go too — their timers are frozen on the "own NIC is down"
        probe loop, which would otherwise respin forever for a node that
        never revives (each orphaned timer exits on its next fire once
        the pending is gone).
        """
        gone = [key for key, msg in self._pending.items()
                if msg.dst == peer or msg.src == peer]
        for key in gone:
            self._pending.pop(key, None)
        return len(gone)

    def on_arrival(self, msg: Message) -> bool:
        """NIC-level arrival filter; True iff the CPU should see ``msg``."""
        ctrl = self.controller
        if ctrl is not None:
            if self.sim.nodes[msg.dst].dead:
                # frames reaching a crashed node vanish: no ack, no dedup
                # record, no CPU — the sender's retransmissions heal the gap
                ctrl.stats.frames_blackholed += 1
                return False
            # every frame the NIC sees renews its sender's lease
            ctrl.detector.note_frame(msg.dst, msg.src, self.sim.now)
            if msg.kind == HEARTBEAT_KIND:
                return False  # pure liveness traffic, never CPU work
        if msg.kind == ACK_KIND:
            body = msg.payload
            self._pending.pop(
                (msg.dst, msg.src, body["kind"], body["seq"]), None)
            self.stats.acks_received += 1
            return False
        if msg.seq < 0:
            return True  # loopback: never stamped, acked or deduped
        key3 = (msg.src, msg.dst, msg.kind)
        fresh = self._first_delivery(key3, msg.seq)
        if msg.kind not in BEST_EFFORT_KINDS:
            self._send_ack(msg)
        if not fresh:
            self.stats.dup_suppressed += 1
            return False
        return True

    @property
    def unacked(self) -> int:
        return len(self._pending)

    def pending(self, msg: Message) -> bool:
        """Whether reliable message ``msg`` still awaits its destination
        NIC's acknowledgement (False once acked or cancelled)."""
        return (msg.src, msg.dst, msg.kind, msg.seq) in self._pending


class World:
    """Global context of one simulation run."""

    def __init__(self, config: SimConfig, layout: Layout,
                 sync: SyncRegistry, spans: Optional[SpanRecorder] = None,
                 record_trace: Optional[str] = None) -> None:
        self.config = config
        self.machine: MachineParams = config.machine
        self.layout = layout
        self.sync = sync
        self.sim = Simulator(config)
        self.nodes: List["ProtocolNode"] = []
        #: the caller's span recorder; None when the run is not observed
        self.spans = spans
        self.recovery: Optional[Any] = None
        if config.faults is not None:
            # faulty network: engage the reliable transport; stalls are
            # armed after the crash schedule so every event keeps its
            # place in (time, seq) order
            transport = ReliableTransport(self.sim, self.spans)
            self.sim.transport = transport
            if config.faults.crashes:
                from repro.recovery import install_recovery
                self.recovery = install_recovery(self)
            transport.injector.arm_stalls(self.sim)
        #: the happens-before checker; None unless ``check_consistency``
        self.checker: Optional[Any] = None
        if config.check_consistency:
            from repro.check.checker import ConsistencyChecker
            self.checker = ConsistencyChecker(layout, self.machine.num_procs)
        #: app-level event recorder writing to ``record_trace``; None when off
        self.app_tap: Optional[Any] = None
        if record_trace:
            from repro.fuzz.trace import TraceRecorder
            self.app_tap = TraceRecorder(record_trace)
        self.diff_stats = DiffStats(num_procs=self.machine.num_procs)
        self.lap_stats: Optional[Any] = None  # set by protocols that track LAP
        #: acquire counts per lock id (granted acquires, Table 2 / Table 3)
        self.lock_acquires: Dict[int, int] = {}
        #: number of completed global barrier episodes
        self.barrier_events: int = 0

    def register(self, node: "ProtocolNode") -> None:
        assert node.node_id == len(self.nodes)
        self.nodes.append(node)
        self.sim.set_handler(node.node_id, node._handlers)

    def count_acquire(self, lock_id: int) -> None:
        self.lock_acquires[lock_id] = self.lock_acquires.get(lock_id, 0) + 1

    def note_barrier_complete(self) -> None:
        """Every protocol's barrier-completion path funnels through here:
        it counts the episode and — when crash recovery is armed — takes
        the coordinated checkpoint of the new epoch (a consistent cut)."""
        self.barrier_events += 1
        if self.recovery is not None:
            self.recovery.on_barrier_epoch(self.barrier_events)


@dataclass
class PageMeta:
    """Per-node coherence state of one page."""

    valid: bool = False
    writable: bool = False
    twin: Optional[np.ndarray] = None
    #: node ever held a copy (distinguishes cold faults)
    ever_valid: bool = False
    #: per-word stamp of the newest diff applied or frozen here, for the
    #: max-stamp-wins merge (None = every word still unstamped, i.e. -1)
    word_stamps: Optional[np.ndarray] = None

    def stamps(self, words: int) -> np.ndarray:
        if self.word_stamps is None:
            self.word_stamps = np.full(words, -1, dtype=np.int64)
        return self.word_stamps


class PageTable(dict):
    """Page number -> one node's coherence state of the page.

    Indexing a page the node has never touched creates its entry with
    ``factory()``, so hot paths index ``pages[pn]`` directly instead of
    calling a getter; ``get`` and ``in`` never create.
    """

    __slots__ = ("factory",)

    def __init__(self, factory: Callable[[], PageMeta]) -> None:
        super().__init__()
        self.factory = factory

    def __missing__(self, pn: int) -> PageMeta:
        meta = self[pn] = self.factory()
        return meta


class ProtocolNode:
    """Base class for one node's protocol engine.

    Besides the access pipeline it owns the substrate every message-passing
    protocol shares: request/reply with crash-recovery retargeting, page
    fetches, the grant and barrier waits with their spans, acquire
    notices, LAP grant scoring, the stamped diff apply and page
    invalidation.  Protocols differ only in their algorithms and their
    message kinds.
    """

    name = "base"
    #: protocols override this to attach per-page protocol state
    page_meta_factory = PageMeta
    #: message kind of this protocol's request replies (``_reply``)
    reply_kind: str
    #: message kind of the virtual-queue hint sent to a lock's manager ahead
    #: of an acquire (None: the protocol has no LAP state to feed)
    notice_kind: Optional[str] = None
    #: update-set predictor class of the locks a node manages
    predictor_class = LapPredictor

    def __init__(self, world: World, node_id: int) -> None:
        self.world = world
        self.node_id = node_id
        self.machine = world.machine
        self.layout = world.layout
        self.sync = world.sync
        self.sim = world.sim
        #: the engine's timeline of this node (its clock is ``now()``)
        self.timeline = world.sim.nodes[node_id]
        self.spans = world.spans
        #: words per page, read on every fault and diff apply
        self.words_per_page: int = self.machine.words_per_page
        self.store = PageStore(self.words_per_page)
        self.hw = NodeHardware(self.machine)
        #: the node's cache model (pages updated underneath it drop lines)
        self.cache = self.hw.cache
        self.pages = PageTable(self.page_meta_factory)
        self.fault_stats = AccessFaultStats()
        self.locks_held: Set[int] = set()
        self._futures = 0
        #: message kind -> handler; the engine dispatches on this table
        #: itself, so protocols ``update`` it and never rebind it
        self._handlers: Dict[str, Callable[[Message], Optional[Iterable]]] = {}
        # ---- request/reply plumbing
        self._req_seq = 0
        #: outstanding request id -> (destination node, reply future); the
        #: destination lets crash recovery fail requests to a dead peer
        self._replies: Dict[Tuple[int, int], Tuple[int, Future]] = {}
        # ---- synchronization: blocked acquires, open lock-hold spans, the
        # barrier wait, and LAP state of the locks this node manages
        self._grant_futs: Dict[int, Future] = {}
        self._hold_spans: Dict[int, int] = {}
        self._bar_fut: Optional[Future] = None
        self._lap_states: Dict[int, LockPredictionState] = {}
        world.register(self)
        if node_id == 0:
            # node 0 physically hosts the initial (zero) copy of every page
            for pn in range(self.layout.total_pages):
                self.store.ensure(pn)
                meta = self.pages[pn]
                meta.valid = True
                meta.ever_valid = True

    # ------------------------------------------------------------- utilities

    def now(self) -> float:
        return self.timeline.clock

    def new_future(self, label: str = "") -> Future:
        self._futures += 1
        return Future((self.node_id, label, self._futures))

    # ---- observability helpers (no-ops when the run records no spans) ----

    def span_begin(self, kind: str, name: str, **args: Any) -> int:
        spans = self.spans
        if spans is None:
            return 0
        return spans.begin(self.node_id, kind, name, self.now(), **args)

    def span_end(self, span_id: int, **args: Any) -> None:
        if span_id:
            self.spans.end(span_id, self.now(), **args)

    # ----------------------------------------------------- request / reply

    def _request(self, dst: int, kind: str, payload: dict, nbytes: int,
                 category: str,
                 retarget: Optional[Callable[[int], Optional[int]]] = None
                 ) -> Generator:
        """Send a request and block until the reply arrives; returns it.

        If crash recovery declares ``dst`` dead mid-wait, the blocked
        future resolves to a retry sentinel: with ``retarget`` the request
        is re-issued to ``retarget(dst)`` (e.g. a page's reassigned home);
        without one — or if the route doesn't change — the request cannot
        complete and fails loudly with :class:`PeerLostError`.
        """
        rec = self.world.recovery
        while True:
            if rec is None or not rec.is_permanently_dead(dst):
                self._req_seq += 1
                rid = (self.node_id, self._req_seq)
                fut = self.new_future(kind)
                self._replies[rid] = (dst, fut)
                p = dict(payload, req_id=rid, requester=self.node_id)
                yield Send(dst, Message(kind, p, nbytes), category)
                reply = yield Wait(fut, category)
                if reply is not _RETRY_DEAD:
                    return reply
            ndst = retarget(dst) if retarget is not None else None
            if ndst is None or ndst == dst:
                raise PeerLostError(
                    f"node {self.node_id}: {kind} to dead node {dst} "
                    "cannot be re-routed")
            rec.stats.rerouted_requests += 1
            dst = ndst

    def _reply(self, msg: Message, payload: dict, nbytes: int) -> Message:
        """The reply to request ``msg``; it takes over ``payload`` (a fresh
        dict) and stamps the request id into it."""
        payload["req_id"] = msg.payload["req_id"]
        return Message(self.reply_kind, payload, nbytes)

    # the handlers that only resolve a future return that one primitive in
    # a tuple: no generator frame per message (DESIGN §11.9)

    def _on_reply(self, msg: Message) -> Tuple[Resolve]:
        _dst, fut = self._replies.pop(msg.payload["req_id"])
        return (Resolve(fut, msg.payload),)

    def fetch_page(self, pn: int, home: int, kind: str,
                   retarget: Optional[Callable[[int], Optional[int]]] = None
                   ) -> Generator:
        """Fetch a copy of page ``pn`` from ``home`` and install it;
        returns the reply (protocols read their extra state from it)."""
        span = self.span_begin("page.fetch", f"page{pn}.fetch", page=pn,
                               home=home)
        reply = yield from self._request(home, kind, {"pn": pn}, nbytes=8,
                                         category="data", retarget=retarget)
        self.span_end(span)
        self._install_page(pn, home, reply)
        return reply

    def _install_page(self, pn: int, src: int, reply: dict) -> None:
        """Install the page copy and word stamps that ``src`` served (see
        :meth:`_page_reply`; the stamps are already a copy)."""
        self.store.ensure(pn, reply["content"])
        self.pages[pn].word_stamps = reply["word_stamps"]
        wpp = self.words_per_page
        self.cache.invalidate_range(pn * wpp, wpp)
        checker = self.world.checker
        if checker is not None:
            checker.note_transfer("page", self.node_id, pn, src, self.now())

    def _page_reply(self, msg: Message, pn: int, payload: dict,
                    entries: int = 0) -> Tuple[Delay, Send]:
        """Serve a copy of page ``pn`` and its word stamps: the memory-copy
        delay and the reply, which carries ``payload`` (the protocol's own
        state, ``entries`` 8-byte elements on the wire) plus the copies.
        A server without a copy fails in ``PageStore.page``."""
        stamps = self.pages[pn].word_stamps
        payload["content"] = self.store.page(pn).copy()
        payload["word_stamps"] = None if stamps is None else stamps.copy()
        return (Delay(self.machine.mem_access_cycles(self.words_per_page),
                      "ipc"),
                Send(msg.payload["requester"],
                     self._reply(msg, payload,
                                 self.machine.page_bytes + 8 * entries),
                     "ipc"))

    def _fail_requests_to(self, dead: int) -> Generator:
        """Fail the requests blocked on a declared-dead peer: each blocked
        program re-issues along recovery routes (or raises)."""
        for rid in [r for r, (d, _fut) in self._replies.items() if d == dead]:
            _dst, fut = self._replies.pop(rid)
            if not fut.done:
                yield Resolve(fut, _RETRY_DEAD)

    # ---------------------------------------------------- locks and LAP

    def _wait_grant(self, lock_id: int, dst: int, req: Message,
                    overlap: Optional[Callable[[Future], Generator]] = None
                    ) -> Generator:
        """Send lock request ``req`` and block until its grant arrives.

        ``overlap(fut)`` runs between the request and the wait (work the
        acquirer hides behind the grant latency).  Returns the grant
        payload and the open ``lock.wait`` span, which the caller closes
        with :meth:`_begin_hold` once the grant is absorbed.
        """
        fut = self.new_future(f"grant{lock_id}")
        self._grant_futs[lock_id] = fut
        wait_span = self.span_begin("lock.wait", f"lock{lock_id}.wait",
                                    lock=lock_id)
        yield Send(dst, req, "synch")
        if overlap is not None:
            yield from overlap(fut)
        grant = yield Wait(fut, "synch")
        self._grant_futs.pop(lock_id, None)
        return grant, wait_span

    def _on_lock_grant(self, msg: Message) -> Tuple[Resolve]:
        grant = msg.payload
        lock_id = grant["lock"] if isinstance(grant, dict) else grant.lock_id
        fut = self._grant_futs.get(lock_id)
        if fut is None:
            raise RuntimeError(f"{self.name} node {self.node_id}: "
                               f"unexpected grant for lock {lock_id}")
        return (Resolve(fut, grant),)

    def _begin_hold(self, lock_id: int, wait_span: int, **args: Any) -> None:
        """Close the lock's wait span and open its hold span."""
        self.span_end(wait_span, lock=lock_id, **args)
        self._hold_spans[lock_id] = self.span_begin(
            "lock.hold", f"lock{lock_id}.hold", lock=lock_id)
        self.locks_held.add(lock_id)

    def _end_hold(self, lock_id: int, **args: Any) -> None:
        self.locks_held.discard(lock_id)
        self.span_end(self._hold_spans.pop(lock_id, 0), **args)

    def _lock_home(self, lock_id: int) -> int:
        return self.sync.lock_manager(lock_id)

    def _make_predictor(self) -> LapPredictor:
        """The LAP predictor of the locks this node manages; node 0 also
        opens the run's LAP scorer."""
        if self.node_id == 0 and self.world.lap_stats is None:
            self.world.lap_stats = LapStats(self.sync.num_locks)
        return self.predictor_class(self.world.config.update_set_size)

    def acquire_notice(self, lock_id: int) -> Tuple[Send, ...]:
        """Virtual-queue hint (zero cost without ``notice_kind``), as the
        primitives to yield."""
        if self.notice_kind is None:
            return ()
        return (Send(self._lock_home(lock_id),
                     Message(self.notice_kind,
                             {"lock": lock_id, "proc": self.node_id}, 4),
                     "busy"),)

    def _on_notice(self, msg: Message) -> Tuple[Delay]:
        self.lap_state(msg.payload["lock"]).add_notice(msg.payload["proc"])
        return (Delay(self.machine.list_cycles(1), "ipc"),)

    def lap_state(self, lock_id: int) -> LockPredictionState:
        st = self._lap_states.get(lock_id)
        if st is None:
            st = LockPredictionState(lock_id, self.machine.num_procs)
            self._lap_states[lock_id] = st
        return st

    def _score_grant(self, lock_id: int, owner: int,
                     prev_owner: Optional[int],
                     predictions: Dict[str, List[int]]) -> None:
        """Count a granted acquire and score the LAP predictions."""
        self.world.count_acquire(lock_id)
        if self.world.lap_stats is not None:
            self.world.lap_stats.record_grant(lock_id, owner, prev_owner,
                                              predictions)

    # ----------------------------------------------------------- barriers

    def _wait_barrier(self, dst: int, req: Message, name: str,
                      overlap: Optional[Callable[[Future], Generator]] = None,
                      **span_args: Any) -> Generator:
        """Send barrier arrival ``req`` and block until the barrier
        releases us; returns the release payload and the open ``barrier``
        span (``overlap`` as in :meth:`_wait_grant`)."""
        fut = self.new_future(name)
        self._bar_fut = fut
        span = self.span_begin("barrier", name, **span_args)
        yield Send(dst, req, "synch")
        if overlap is not None:
            yield from overlap(fut)
        payload = yield Wait(fut, "synch")
        self._bar_fut = None
        return payload, span

    def _on_bar_release(self, msg: Message) -> Tuple[Resolve]:
        fut = self._bar_fut
        if fut is None:
            raise RuntimeError(f"{self.name} node {self.node_id}: "
                               f"{msg.kind} outside a barrier")
        return (Resolve(fut, msg.payload),)

    # ------------------------------------------------- page/diff primitives

    def make_twin(self, pn: int, category: str = "data") -> Generator:
        """Copy the page before writing so modifications can be diffed."""
        meta = self.pages[pn]
        if meta.twin is not None:
            return
        page = self.store.page(pn)
        meta.twin = page.copy()
        cycles = self.machine.twin_cycles(self.words_per_page)
        self.fault_stats.twin_cycles += cycles
        yield Delay(cycles, category)

    def create_diff_timed(self, pn: int, category: str,
                          hidden_behind: Optional[Future] = None) -> Generator:
        """Create (and time) a diff of page ``pn`` against its twin.

        ``hidden_behind``: a future the caller is logically waiting on; the
        part of the creation that finished before that future resolved was
        hidden behind the synchronization delay (Table 4's "Hidden" column).
        Returns the Diff via the generator's return value.
        """
        meta = self.pages[pn]
        if meta.twin is None:
            raise RuntimeError(f"page {pn} has no twin to diff against")
        # determine the encoding first (bookkeeping), then charge the
        # word-proportional creation cost of the paper's Table 1
        diff = create_diff(pn, meta.twin, self.store.page(pn), origin=self.node_id)
        timeline = self.timeline
        start = timeline.clock
        isr_before = timeline.isr_cycles_total
        cycles = self.machine.diff_create_cycles(diff.nwords)
        yield Delay(cycles, category)
        end = timeline.clock
        if timeline.isr_cycles_total != isr_before:
            # re-scan: an interrupt serviced during the creation may have
            # changed the page (an ISR applied a diff); capture the final
            # state.  Nothing else runs while this node is suspended, so
            # without an interrupt the first scan is already final
            # (DESIGN §11.10)
            diff = create_diff(pn, meta.twin, self.store.page(pn),
                               origin=self.node_id)
        hidden = self._hidden_portion(start, end, cycles, hidden_behind)
        self.world.diff_stats.record_create(diff.size_bytes, cycles, hidden)
        spans = self.spans
        if spans is not None:
            spans.record(self.node_id, "diff.create", f"diff.create p{pn}",
                         start, end, page=pn, bytes=diff.size_bytes,
                         hidden=hidden > 0)
        return diff

    def apply_diff_timed(self, diff: Diff, category: str,
                         hidden_behind: Optional[Future] = None) -> Generator:
        """Apply a diff to the local copy of its page, with timing."""
        pn = diff.page_number
        page = self.store.page(pn)
        start = self.now()
        cycles = self.machine.diff_apply_cycles(max(diff.nwords, 1))
        yield Delay(cycles, category)
        end = self.now()
        diff.apply(page)
        wpp = self.words_per_page
        self.cache.invalidate_range(pn * wpp, wpp)
        checker = self.world.checker
        if checker is not None:
            checker.note_transfer("diff", self.node_id, pn, diff.origin, end)
        hidden = self._hidden_portion(start, end, cycles, hidden_behind)
        self.world.diff_stats.record_apply(cycles, hidden)
        spans = self.spans
        if spans is not None:
            spans.record(self.node_id, "diff.apply", f"diff.apply p{pn}",
                         start, end, page=pn, hidden=hidden > 0)

    def _apply_in_isr(self, pn: int, diff: Diff) -> Delay:
        """Apply ``diff`` to our copy of page ``pn`` and its twin from an
        interrupt handler; returns the delay to charge.  The program waits
        meanwhile (at a barrier or a release flush), so the apply is fully
        hidden."""
        cycles = self.machine.diff_apply_cycles(max(diff.nwords, 1))
        diff.apply(self.store.page(pn))
        twin = self.pages[pn].twin
        if twin is not None:
            diff.apply(twin)
        wpp = self.words_per_page
        self.cache.invalidate_range(pn * wpp, wpp)
        checker = self.world.checker
        if checker is not None:
            checker.note_transfer("diff", self.node_id, pn, diff.origin,
                                  self.sim.now)
        self.world.diff_stats.record_apply(cycles, cycles)
        return Delay(cycles, "ipc")

    def invalidate(self, pn: int) -> bool:
        """Drop the local copy's access rights; True if it was valid."""
        meta = self.pages[pn]
        if not meta.valid:
            return False
        meta.valid = False
        meta.writable = False
        self.hw.page_protection_changed(pn)
        return True

    def write_protect(self, pn: int) -> None:
        meta = self.pages[pn]
        if meta.writable:
            meta.writable = False
            self.hw.page_protection_changed(pn)

    def stamp_words(self, meta: PageMeta, offsets: np.ndarray,
                    stamp: int) -> None:
        """Raise the word stamps at ``offsets`` to at least ``stamp``, so
        that older diffs arriving later cannot overwrite those words."""
        stamps = meta.stamps(self.words_per_page)
        if len(offsets) == 1:
            # scalar fast path: single-word diffs dominate in practice
            off = offsets[0]
            if stamps[off] < stamp:
                stamps[off] = stamp
        else:
            stamps[offsets] = np.maximum(stamps[offsets], stamp)

    def _twin_guards(self, pn: int, meta: PageMeta, stamp: int) -> bool:
        """Whether the twin's unfrozen local writes outrank a diff stamped
        ``stamp`` (protocols with a stamped apply supply the rule)."""
        raise NotImplementedError

    def apply_diff_stamped(self, pn: int, diff: Diff) -> Generator:
        """Apply a diff with per-word max-stamp-wins semantics.

        A word takes the diff's value only if the diff's stamp beats the
        word's; with :meth:`_twin_guards` also only if the word was not
        modified locally since the twin (an unfrozen local write, which no
        remote diff can legitimately supersede).
        """
        meta = self.pages[pn]
        page = self.store.page(pn)
        offsets = diff.offsets
        cycles = self.machine.diff_apply_cycles(max(len(offsets), 1))
        timeline = self.timeline
        start = timeline.clock
        yield Delay(cycles, "data")
        stamps = meta.word_stamps
        if stamps is None:
            stamps = meta.stamps(self.words_per_page)
        counter = diff.acquire_counter
        twin = meta.twin
        guard = twin is not None and self._twin_guards(pn, meta, counter)
        if len(offsets) == 1:
            # scalar path: most diffs are a single word
            off = offsets[0]
            updated = counter > stamps[off] and (
                not guard or page[off] == twin[off])
            if updated:
                value = diff.values[0]
                page[off] = value
                stamps[off] = counter
                if twin is not None:
                    twin[off] = value
        else:
            mask = counter > stamps[offsets]
            if guard:
                mask &= page[offsets] == twin[offsets]
            offs = offsets[mask]
            updated = len(offs) > 0
            if updated:
                if len(offs) == len(offsets):
                    # every word wins: write through the diff's own arrays
                    # (a masked gather would copy them)
                    offs, values = offsets, diff.values
                else:
                    values = diff.values[mask]
                page[offs] = values
                stamps[offs] = counter
                if twin is not None:
                    twin[offs] = values
        if updated:
            wpp = self.words_per_page
            self.cache.invalidate_range(pn * wpp, wpp)
        end = timeline.clock
        checker = self.world.checker
        if checker is not None:
            checker.note_transfer("diff", self.node_id, pn, diff.origin, end)
        self.world.diff_stats.record_apply(cycles, 0.0)
        spans = self.spans
        if spans is not None:
            spans.record(self.node_id, "diff.apply", f"diff.apply p{pn}",
                         start, end, page=pn, hidden=False)

    @staticmethod
    def _hidden_portion(start: float, end: float, cycles: float,
                        hidden_behind: Optional[Future]) -> float:
        if hidden_behind is None:
            return 0.0
        if not hidden_behind.done:
            return cycles  # the wait outlived the whole operation
        resolve = hidden_behind.resolve_time
        if resolve >= end:
            return cycles
        return max(0.0, min(cycles, resolve - start))

    # ------------------------------------------------------- access pipeline

    def read(self, addr: int, nwords: int) -> Generator:
        """Application-level ranged read; returns the data."""
        pages = self.pages
        for pn in self.layout.pages_of_range(addr, nwords):
            if not pages[pn].valid:
                yield from self._timed_fault(pn, is_write=False)
        cost = self.hw.access(addr, nwords, is_write=False)
        yield Delay(cost.busy, "busy")
        if cost.others:
            yield Delay(cost.others, "others")
        return self.store.read(addr, nwords)

    def write(self, addr: int, values: np.ndarray) -> Generator:
        """Application-level ranged write.

        The permission check and the store must be atomic with respect to
        interrupt handlers: an ISR may freeze a diff / close an interval
        while this operation is paying its cycle costs, revoking write
        permission underneath us.  Hardware retries the faulting store; we
        do the same by looping until a pass completes with permissions
        intact (the final check and the store happen without any yields in
        between, so no ISR can interleave).
        """
        nwords = len(values)
        pages = list(self.layout.pages_of_range(addr, nwords))
        attempts = 0
        while True:
            attempts += 1
            if attempts > 100:
                raise RuntimeError(
                    f"node {self.node_id}: write to {addr} keeps faulting")
            for pn in pages:
                meta = self.pages[pn]
                if not meta.valid or not meta.writable:
                    yield from self._timed_fault(pn, is_write=True)
            cost = self.hw.access(addr, nwords, is_write=True)
            yield Delay(cost.busy, "busy")
            if cost.others:
                yield Delay(cost.others, "others")
            if all(self.pages[pn].valid and self.pages[pn].writable
                   for pn in pages):
                self.store.write(addr, values)
                return

    def _timed_fault(self, pn: int, is_write: bool) -> Generator:
        meta = self.pages[pn]
        timeline = self.timeline
        t0 = timeline.clock
        if not meta.ever_valid:
            self.fault_stats.cold_faults += 1
        if self.locks_held:
            self.fault_stats.inside_cs_faults += 1
        if is_write:
            if meta.valid:
                self.fault_stats.protection_faults += 1
            else:
                self.fault_stats.write_faults += 1
        else:
            self.fault_stats.read_faults += 1
        # page-fault trap entry
        yield Delay(self.machine.interrupt_cycles, "data")
        if is_write:
            yield from self.handle_write_fault(pn)
        else:
            yield from self.handle_read_fault(pn)
        meta.ever_valid = meta.ever_valid or meta.valid
        cycles = timeline.clock - t0
        self.fault_stats.fault_cycles += cycles

    # --------------------------------------------- protocol-specific pieces

    def handle_read_fault(self, pn: int) -> Generator:
        raise NotImplementedError

    def handle_write_fault(self, pn: int) -> Generator:
        raise NotImplementedError

    def acquire(self, lock_id: int) -> Generator:
        raise NotImplementedError

    def release(self, lock_id: int) -> Generator:
        raise NotImplementedError

    def barrier(self, barrier_id: int) -> Generator:
        raise NotImplementedError
