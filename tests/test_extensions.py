"""Tests for the protocol extensions: Munin (±LAP) and TreadMarks Lazy
Hybrid — correctness on the application suite plus the behaviours that
motivated them in the paper's Sections 1 and 6."""
import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.config import MachineParams, SimConfig
from repro.harness.runner import run_app

EXT_PROTOS = ["munin", "munin-lap", "tmk-lh", "adsm"]


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("protocol", EXT_PROTOS)
def test_extension_protocols_correct(name, protocol, shared_run):
    """Every app validates under every extension protocol."""
    assert shared_run(name, protocol).app == name


class TestMuninBehaviour:
    def test_updates_push_to_all_sharers(self):
        """Plain Munin: after one writer's release, every sharer's copy is
        already current (no faults on the readers' next access)."""
        from tests.test_protocol_integration import run_mini

        def body(app, ctx):
            seg = app.seg["data"]
            # everyone becomes a sharer first
            yield from ctx.read1(seg, 0)
            yield from ctx.barrier(app.bars[0])
            if ctx.proc == 0:
                yield from ctx.acquire(app.locks[0])
                yield from ctx.write1(seg, 0, 42.0)
                yield from ctx.release(app.locks[0])
            yield from ctx.barrier(app.bars[0])
            v = yield from ctx.read1(seg, 0)
            assert v == 42.0
            return True

        r = run_mini(body, "munin")
        # readers resolved from their updated copies, not by faulting
        assert r.fault_stats.total_faults <= 2 * r.num_procs

    def test_lap_restriction_reduces_messages(self, shared_run):
        plain = shared_run("is", "munin")
        restricted = shared_run("is", "munin-lap")
        assert restricted.messages_total < plain.messages_total

    def test_aec_communicates_less_than_munin(self, shared_run):
        """The paper's Section 6 claim, on the contended-lock archetype."""
        munin = shared_run("is", "munin")
        aec = shared_run("is", "aec")
        assert aec.network_bytes < munin.network_bytes

    def test_munin_correct_under_false_sharing(self):
        from tests.test_protocol_integration import run_mini

        def body(app, ctx):
            seg = app.seg["data"]
            for step in range(3):
                yield from ctx.write1(seg, ctx.proc, float(step * 8 + ctx.proc))
                yield from ctx.barrier(app.bars[0])
                for p in range(ctx.nprocs):
                    v = yield from ctx.read1(seg, p)
                    assert v == step * 8 + p, (ctx.proc, step, p, v)
                yield from ctx.barrier(app.bars[0])
            return True

        run_mini(body, "munin")
        run_mini(body, "munin-lap")

    def test_small_machine(self):
        cfg = SimConfig(machine=MachineParams(num_procs=4))
        run_app(make_app("fft", "test"), "munin", config=cfg)

    @pytest.mark.parametrize("faulty", [False, True])
    def test_dropped_sharer_invalidated_until_acked(self, faulty):
        """A LAP-restricted update drops node 3 from page 1's sharers and
        sends it an invalidation.  On a faulty network that invalidation
        can be lost and wait for its retransmission while node 3 still
        reads its old copy, so a later update of the page invalidates
        node 3 again (and its writer waits for the ack) until node 3's
        NIC acknowledged an invalidation or node 3 fetched the page; the
        lossless network is left as it was."""
        import numpy as np

        from repro.engine.events import Send
        from repro.faults import get_plan
        from repro.memory.diff import Diff
        from repro.network.message import Message
        from repro.protocols.base import ACK_BYTES, ACK_KIND
        from repro.protocols.munin import MuninLapNode
        from tests.conftest import make_world

        config = SimConfig(machine=MachineParams(num_procs=4),
                           faults=get_plan("lossy-1pct") if faulty else None)
        world = make_world(num_procs=4, config=config)
        home = [MuninLapNode(world, i) for i in range(4)][1]  # page 1's
        transport = world.sim.transport
        seq = iter(range(100))
        unacked = []

        def fetch(node):
            msg = Message("mun.fetch", {"pn": 1, "requester": node,
                                        "req_id": (node, next(seq))}, 8)
            list(home._on_fetch(msg))

        def update(writer, restrict):
            diff = Diff(1, np.array([next(seq)], dtype=np.int32),
                        np.array([1.0]), origin=writer)
            msg = Message("mun.update", {"pn": 1, "diff": diff,
                                         "writer": writer,
                                         "restrict": restrict}, 24)
            sends = [op for op in home._on_update(msg)
                     if isinstance(op, Send)]
            invals = [op for op in sends if op.message.kind == "mun.inval"]
            if transport is not None:
                for op in invals:  # what the engine's injection does
                    op.message.src, op.message.dst = 1, op.dst
                    transport.on_send(op.message, 0.0)
                    unacked.append(op.message)
            fanout, = [op.message.payload["fanout"] for op in sends
                       if op.message.payload.get("kind") == "dir"]
            return sorted(op.dst for op in invals), fanout

        def ack_all():
            while unacked:
                inval = unacked.pop()
                ack = Message(ACK_KIND, {"kind": inval.kind,
                                         "seq": inval.seq}, ACK_BYTES)
                ack.src, ack.dst = inval.dst, inval.src
                assert not transport.on_arrival(ack)

        fetch(2)
        fetch(3)
        # node 3 is outside the update set: dropped and invalidated
        assert update(2, [0]) == ([3], 2)
        # a later writer of the page while that invalidation is unacked
        assert update(0, [2]) == (([3], 2) if faulty else ([], 1))
        assert update(2, [0]) == (([3], 2) if faulty else ([], 1))
        if faulty:
            ack_all()
        assert update(0, [2]) == ([], 1)
        # dropped again; a fetch then makes node 3 a sharer with a
        # current copy, which the next update reaches as a target
        fetch(3)
        assert update(0, [2]) == ([3], 2)
        fetch(3)
        assert update(2, [3]) == ([0], 2)  # node 3 updated, not invalidated

    def test_forwarded_update_is_the_writers_frozen_diff(self):
        """The writer freezes each flushed diff and the directory forwards
        that one object to every sharer: receivers only read it."""
        from repro.engine.events import Send
        from repro.network.message import Message
        from repro.protocols.munin import MuninNode
        from tests.conftest import make_world

        world = make_world(num_procs=4)
        nodes = [MuninNode(world, i) for i in range(4)]
        home, writer = nodes[1], nodes[2]  # page 1's directory is node 1
        for i, reader in enumerate((0, 3)):
            list(home._on_fetch(Message("mun.fetch", {
                "pn": 1, "requester": reader, "req_id": (reader, i)}, 8)))
        page = writer.store.ensure(1)
        writer.pages[1].twin = page.copy()
        page[5] = 7.0
        writer._dirty.add(1)
        update, = [op.message for op in writer._flush_updates("synch")
                   if isinstance(op, Send)]
        diff = update.payload["diff"]
        forwarded = [op.message.payload["diff"]
                     for op in home._on_update(update)
                     if isinstance(op, Send)
                     and op.message.kind == "mun.fwd_update"]
        assert len(forwarded) == 2
        assert all(d is diff for d in forwarded)
        with pytest.raises(ValueError):
            diff.values[0] = 0.0
        assert home.store.page(1)[5] == 7.0

    @pytest.mark.parametrize("app", ["ocean", "raytrace", "water-ns"])
    def test_flush_returns_only_after_every_ack(self, app, monkeypatch):
        """A release or barrier flush returns only once every directory
        ack and every sharer ack its updates caused is in, also when some
        arrived while the flush was still sending."""
        from repro.protocols.munin import MuninNode

        original = MuninNode._flush_updates
        early = []

        def checked(self, category, restrict_to=None):
            yield from original(self, category, restrict_to)
            if self._dir_acks_pending \
                    or self._sharer_acks_got < self._sharer_acks_needed:
                early.append(self.node_id)

        monkeypatch.setattr(MuninNode, "_flush_updates", checked)
        run_app(make_app(app, "test"), "munin")
        assert early == []


class TestLazyHybridBehaviour:
    def test_alternating_owners_skip_fault(self):
        """The LH sweet spot: when the granter is the only writer the
        acquirer has not seen (e.g. two processors ping-ponging a lock),
        its piggybacked diffs cover everything and the CS fault
        disappears.  With more interleaved writers the acquirer still has
        uncovered notices and must fetch — LH's documented limitation."""
        from tests.test_protocol_integration import run_mini

        def body(app, ctx):
            seg = app.seg["data"]
            if ctx.proc < 2:
                for _ in range(8):
                    yield from ctx.acquire(app.locks[0])
                    v = yield from ctx.read1(seg, 0)
                    yield from ctx.write1(seg, 0, v + 1)
                    yield from ctx.release(app.locks[0])
                    yield from ctx.compute(5_000)
            yield from ctx.barrier(app.bars[0])
            return (yield from ctx.read1(seg, 0))

        def check(results):
            assert all(r == 16.0 for r in results)

        tm = run_mini(body, "tmk", checker=check)
        lh = run_mini(body, "tmk-lh", checker=check)
        assert lh.fault_stats.remote_resolutions \
            < tm.fault_stats.remote_resolutions

    def test_multi_writer_history_still_needs_fetches(self, shared_run):
        """LH only carries the *granter's own* diffs: with many writers the
        acquirer still fetches the rest — the gap AEC's merged diffs close
        (paper Section 6)."""
        lh = shared_run("is", "tmk-lh")
        aec = shared_run("is", "aec")
        assert aec.fault_stats.remote_resolutions \
            < lh.fault_stats.remote_resolutions


class TestAdsmBehaviour:
    def test_single_writer_data_gets_pushed(self):
        """One producer updates lock-protected data many consumers read:
        ADSM keeps the consumers updated (buffered local resolutions)."""
        from tests.test_protocol_integration import run_mini

        def body(app, ctx):
            seg = app.seg["data"]
            for step in range(6):
                if ctx.proc == 0:
                    yield from ctx.acquire(app.locks[0])
                    yield from ctx.write1(seg, 0, float(step + 1))
                    yield from ctx.release(app.locks[0])
                yield from ctx.compute(2_000)
                yield from ctx.acquire(app.locks[0])
                yield from ctx.read1(seg, 0)
                yield from ctx.release(app.locks[0])
                yield from ctx.barrier(app.bars[0])
            return True

        adsm = run_mini(body, "adsm")
        nolap = run_mini(body, "aec-nolap")
        # the pushes land at acquire time, before the CS body runs, so the
        # consumers' critical-section faults (and their remote diff
        # fetches) largely disappear relative to the invalidate-only run
        assert adsm.fault_stats.remote_resolutions \
            < nolap.fault_stats.remote_resolutions

    def test_multi_writer_pages_not_pushed(self):
        """A migratory counter is multi-writer: ADSM must gate the push
        (everything resolves through invalidate + fetch instead)."""
        from tests.test_protocol_integration import run_mini

        def body(app, ctx):
            seg = app.seg["data"]
            for _ in range(4):
                yield from ctx.acquire(app.locks[0])
                v = yield from ctx.read1(seg, 0)
                yield from ctx.write1(seg, 0, v + 1)
                yield from ctx.release(app.locks[0])
            yield from ctx.barrier(app.bars[0])
            return (yield from ctx.read1(seg, 0))

        def check(results):
            assert all(r == 16.0 for r in results)

        adsm = run_mini(body, "adsm", checker=check)
        aec = run_mini(body, "aec", checker=check)
        # AEC's LAP push resolves CS faults locally; ADSM's gate forces the
        # invalidate path for this write-shared word
        assert adsm.fault_stats.local_resolutions \
            < aec.fault_stats.local_resolutions

    def test_consumer_set_predictor(self):
        from repro.core.lap.state import LockPredictionState
        from repro.protocols.adsm import ConsumerSetPredictor

        st = LockPredictionState(0, 8)
        for _ in range(3):
            st.affinity.record_transfer(1, 2)
        st.affinity.record_transfer(2, 5)
        pred = ConsumerSetPredictor(2)
        out = pred.predict(st, releaser=1)
        assert 2 in out          # the heaviest consumer
        assert 1 not in out      # never the releaser
        assert len(out) <= 2

    def test_consumer_set_empty_history(self):
        from repro.core.lap.state import LockPredictionState
        from repro.protocols.adsm import ConsumerSetPredictor

        st = LockPredictionState(0, 8)
        assert ConsumerSetPredictor(2).predict(st, 0) == []
