"""Crash-stop fault injection and the recovery subsystem (``repro.recovery``).

Complements ``test_faults.py`` (which carries the headline guarantee:
every app x {aec, tmk} under both built-in crash plans is checker-clean
and word-identical to the fault-free SC oracle).  This module covers the
recovery machinery itself:

* crash schedules are seeded, validated and cache-key-relevant;
* lease-based failure detection (lazy lease start, renewal, expiry);
* a lease-expired peer's pendings are parked on constant-rate probes
  instead of backing off into the void;
* permanent deaths: declaration, token regeneration, barrier
  reconfiguration and lock-manager re-homing let survivors finish, with
  pinned simulated numbers; lock traffic that races a re-homed lock's
  rebuild is deferred and replayed in arrival order;
* the sweep stays byte-deterministic across worker counts under crashes.
"""
import dataclasses
import pickle

import pytest

from repro.apps.registry import make_app
from repro.config import MachineParams, SimConfig, config_digest
from repro.core.aec.barrier_manager import AECBarrierManager, ArrivalInfo
from repro.core.aec.lock_manager import AECLockManager
from repro.core.aec.protocol import AECNode
from repro.core.lap.predictor import LapPredictor
from repro.engine.events import Send
from repro.faults import FaultPlan, NodeCrash, get_plan
from repro.harness import sweep as sw
from repro.harness.runner import run_app
from repro.network.message import Message
from repro.obs.spans import SpanRecorder
from repro.protocols.base import PeerLostError
from repro.recovery import crash, detector
from repro.recovery.crash import RECONFIG_KIND, resolve_crashes
from repro.recovery.detector import FailureDetector
from repro.recovery.stats import RecoveryStats
from tests.conftest import make_world


# ================================================================ schedules


class TestResolveCrashes:
    def test_deterministic_and_sorted(self):
        plan = FaultPlan(name="p", seed=3, crashes=(
            NodeCrash(at_lo=300_000.0, at_hi=400_000.0),
            NodeCrash(at_lo=100_000.0, at_hi=200_000.0)))
        a = resolve_crashes(plan, 16)
        b = resolve_crashes(plan, 16)
        assert a == b
        assert [c.at for c in a] == sorted(c.at for c in a)

    def test_seed_changes_schedule(self):
        plan = FaultPlan(name="p", seed=1, crashes=(NodeCrash(),))
        assert resolve_crashes(plan, 16) != \
            resolve_crashes(plan.with_seed(2), 16)

    def test_drawn_crashes_share_one_victim(self):
        # node=None models one flaky machine: both crashes hit the same
        # seeded victim (the crash-restart builtin relies on this)
        plan = FaultPlan(name="p", seed=5, crashes=(
            NodeCrash(at=100_000.0), NodeCrash(at=700_000.0)))
        a, b = resolve_crashes(plan, 16)
        assert a.node == b.node
        assert 1 <= a.node < 16

    def test_single_node_rejected(self):
        plan = FaultPlan(name="p", seed=1, crashes=(NodeCrash(),))
        with pytest.raises(ValueError, match="at least 2 nodes"):
            resolve_crashes(plan, 1)

    def test_node_out_of_range_rejected(self):
        plan = FaultPlan(name="p", seed=1,
                         crashes=(NodeCrash(node=7, at=100_000.0),))
        with pytest.raises(ValueError, match="out of range"):
            resolve_crashes(plan, 4)

    def test_no_crashes_empty_schedule(self):
        assert resolve_crashes(get_plan("lossy-1pct"), 16) == ()

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="node 0"):
            NodeCrash(node=0)
        with pytest.raises(ValueError):
            NodeCrash(at=-5.0)
        with pytest.raises(ValueError):
            NodeCrash(at_lo=0.0)
        with pytest.raises(ValueError):
            NodeCrash(down_cycles=0.0)

    def test_crash_plans_change_config_digest(self):
        base = config_digest(SimConfig())
        one = config_digest(SimConfig(faults=get_plan("crash-one-node")))
        one7 = config_digest(SimConfig(faults=get_plan("crash-one-node@7")))
        two = config_digest(SimConfig(faults=get_plan("crash-restart")))
        assert len({base, one, one7, two}) == 4

    def test_crash_seed_changes_sweep_cache_cell(self):
        keys = {sw.make_spec("is", "test", "aec",
                             faults=get_plan(name)).key
                for name in ("crash-one-node@1", "crash-one-node@2",
                             "crash-restart@1")}
        keys.add(sw.make_spec("is", "test", "aec").key)
        assert len(keys) == 4

    def test_describe_mentions_crashes(self):
        assert "crashes" in get_plan("crash-one-node").describe()
        assert "permanent" not in get_plan("crash-restart").describe()


# ================================================================= detector


def _detector():
    stats = RecoveryStats(plan="t", fault_seed=1)
    return FailureDetector(None, MachineParams(), stats), stats


class TestFailureDetector:
    @pytest.fixture(autouse=True)
    def _short_lease(self, monkeypatch):
        monkeypatch.setattr(detector, "LEASE_CYCLES", 100.0)

    def test_lease_starts_at_first_consultation(self):
        # a pair that never exchanged a frame must not read as expired at
        # its first-ever liveness check late in a run
        det, stats = _detector()
        assert det.alive(0, 3, now=1e9)
        assert stats.leases_expired == 0
        assert det.alive(0, 3, now=1e9 + 100.0)
        assert not det.alive(0, 3, now=1e9 + 101.0)

    def test_frames_renew_the_lease(self):
        det, stats = _detector()
        det.note_frame(0, 3, now=0.0)
        det.note_frame(0, 3, now=90.0)
        assert det.alive(0, 3, now=150.0)
        assert stats.leases_expired == 0

    def test_expiry_counted_once_per_transition(self):
        det, stats = _detector()
        det.note_frame(0, 3, now=0.0)
        assert not det.alive(0, 3, now=200.0)
        assert not det.alive(0, 3, now=300.0)
        assert stats.leases_expired == 1
        det.note_frame(0, 3, now=301.0)  # peer came back
        assert det.alive(0, 3, now=302.0)
        assert not det.alive(0, 3, now=500.0)
        assert stats.leases_expired == 2

    def test_own_and_negative_sources_ignored(self):
        det, _stats = _detector()
        det.note_frame(2, 2, now=5.0)
        det.note_frame(2, -1, now=5.0)
        assert det.last_heard == {}


# ===================================================== manager-side recovery


def _lock_mgr():
    return AECLockManager(0, 4, LapPredictor(2), use_lap=True)


class TestLockManagerPeerDead:
    def test_dead_holder_token_regenerated_and_waiter_granted(self):
        mgr = _lock_mgr()
        assert mgr.request(7, 2) is not None  # node 2 holds lock 7
        assert mgr.request(7, 1) is None      # node 1 queues behind it
        grants, regenerated, purged = mgr.peer_dead(2)
        assert regenerated == 1 and purged == 0
        [(nxt, grant, _pred)] = grants
        assert nxt == 1 and grant.lock_id == 7
        assert mgr.lock(7).pred.holder == 1

    def test_dead_waiter_purged(self):
        mgr = _lock_mgr()
        mgr.request(7, 1)
        mgr.request(7, 2)
        mgr.request(7, 3)
        grants, regenerated, purged = mgr.peer_dead(2)
        assert (grants, regenerated, purged) == ([], 0, 1)
        assert list(mgr.lock(7).pred.waiting_queue) == [3]

    def test_dead_node_scrubbed_from_history_and_coverage(self):
        # a grant must never tell the acquirer to fetch diffs from a node
        # that no longer exists, nor claim the dead node's push covered it
        mgr = _lock_mgr()
        mgr.request(7, 2)
        mgr.release(7, 2, [10, 11], [10, 11])
        ml = mgr.lock(7)
        assert ml.history == {10: 2, 11: 2} and ml.coverage == {10, 11}
        mgr.peer_dead(2)
        assert ml.history == {} and ml.coverage == set()
        _grant, _pred = mgr.request(7, 1)
        assert _grant.invalidate == [] and _grant.covered == []


def _arrival(node, **kw):
    return ArrivalInfo(node=node, lock_sessions=kw.get("lock_sessions", {}),
                       outside_mod_pages=kw.get("outside_mod_pages", []),
                       accessed_pages=kw.get("accessed_pages", []),
                       gained_valid=kw.get("gained_valid", []),
                       lost_valid=kw.get("lost_valid", []))


class TestBarrierManagerRemoveMember:
    def test_dead_straggler_unblocks_collect_phase(self):
        bm = AECBarrierManager(num_procs=3, total_pages=4)
        bm.arrive(_arrival(0))
        bm.arrive(_arrival(1))
        assert not bm.all_arrived()
        bm.remove_member(2)
        assert bm.live == {0, 1} and bm.all_arrived()

    def test_orphan_pages_adopted_by_node_zero(self):
        bm = AECBarrierManager(num_procs=3, total_pages=2)
        # page 1's only copy migrates to node 2, then node 2 dies
        bm.validset[1] = {2}
        bm.copyset[1] = {2}
        bm.homes[1] = 2
        info = bm.remove_member(2)
        assert info["orphans"] == [1]
        assert info["homes"][1] == 0
        assert bm.validset[1] == {0} and bm.copyset[1] == {0}

    def test_exchange_phase_credits_what_the_dead_node_owed(self):
        bm = AECBarrierManager(num_procs=3, total_pages=4)
        bm.validset[0] = {0, 1, 2}
        bm.arrive(_arrival(0))
        bm.arrive(_arrival(1))
        bm.arrive(_arrival(2, lock_sessions={5: (1, [0], [0])},
                           outside_mod_pages=[3], accessed_pages=[0, 3]))
        instr = bm.compute()
        # node 2 owes diffs for page 0 to nodes 0 and 1
        assert instr[2].cs_sends
        info = bm.remove_member(2)
        expect = info["expect_from_dead"]
        assert expect[0][0] >= 1 and expect[1][0] >= 1
        assert bm.all_done() is False
        bm.node_done(0)
        bm.node_done(1)
        assert bm.all_done()


class TestPermanentCrashNeedsReconfiguration:
    PLAN = FaultPlan(name="perm", seed=1, crashes=(
        NodeCrash(node=2, at=200_000.0, restart=False),))

    @pytest.mark.parametrize("protocol", ["tmk", "tmk-lh", "munin", "sc"])
    def test_rejected_when_the_plan_is_resolved(self, protocol):
        # no on_peer_dead override: refused before the run starts, not
        # with a SimulationError at the coordinator's death verdict
        config = SimConfig(seed=42, faults=self.PLAN)
        with pytest.raises(ValueError,
                           match=f"'{protocol}' has no crash recovery"):
            run_app(make_app("ocean", "test"), protocol, config)

    def test_restarting_crash_still_accepted(self):
        plan = FaultPlan(name="restart", seed=1, crashes=(
            NodeCrash(node=2, at=200_000.0),))
        result = run_app(make_app("is", "test"), "tmk",
                         SimConfig(seed=42, faults=plan))
        assert result.recovery.crashes == 1
        assert result.recovery.revivals == 1


# ========================================== restart path: spans + counters


class TestRestartRecovery:
    def test_crash_restart_counters_and_spans(self):
        config = SimConfig(seed=42, faults=get_plan("crash-restart"))
        spans = SpanRecorder()
        result = run_app(make_app("ocean", "test"), "aec", config,
                         spans=spans)
        rec = result.recovery
        assert rec is not None
        assert rec.crashes == 2 and rec.revivals == 2
        assert rec.peers_declared_dead == 0
        assert rec.checkpoints > 0 and rec.heartbeats_sent > 0
        # the second crash restores from a checkpoint taken after the first
        assert rec.restored_pages >= 0 and rec.replay_cycles > 0
        (victim, _at, _down, _restart) = rec.schedule[0]
        names = [s.name for s in spans.of_kind("fault")]
        assert f"fault.crash n{victim}" in names
        assert f"fault.recover n{victim}" in names
        doc = dataclasses.asdict(rec)
        assert doc["plan"] == "crash-restart" and doc["crashes"] == 2

    def test_no_recovery_state_without_crashes(self):
        config = SimConfig(seed=42, faults=get_plan("lossy-1pct"))
        result = run_app(make_app("is", "test"), "aec", config)
        assert result.recovery is None


# ===================================== permanent death: full reconfiguration


def _count_peer_lost(monkeypatch):
    """Count the ``PeerLostError``s that AEC requests raise (and that
    ``_make_valid`` catches, since the run still completes)."""
    caught = []
    original = AECNode._request

    def spy(self, *args, **kwargs):
        try:
            return (yield from original(self, *args, **kwargs))
        except PeerLostError:
            caught.append(self.node_id)
            raise

    monkeypatch.setattr(AECNode, "_request", spy)
    return caught


class TestPermanentDeath:
    #: (app, dead node, crash time) -> (execution_time, messages_total,
    #: network_bytes, every non-zero RecoveryStats counter)
    PINS = {
        ("ocean", 2, 200_000.0): (8_505_738.75, 15_062, 1_210_836, {
            "crashes": 1, "down_cycles": 150_000.0, "checkpoints": 18,
            "checkpoint_pages": 550, "heartbeats_sent": 2370,
            "leases_expired": 12, "peers_declared_dead": 1,
            "frames_blackholed": 4, "parked_probes": 13,
            "cancelled_sends": 1, "barrier_reconfigs": 1}),
        ("raytrace", 3, 500_000.0): (8_603_494.5, 9_617, 1_564_740, {
            "crashes": 1, "down_cycles": 150_000.0, "checkpoints": 2,
            "checkpoint_pages": 336, "heartbeats_sent": 2404,
            "peers_declared_dead": 1, "sends_suppressed": 2,
            "cancelled_sends": 2, "tokens_regenerated": 1,
            "barrier_reconfigs": 1, "locks_rehomed": 1}),
        ("fft", 3, 900_000.0): (4_792_733.5, 10_966, 882_972, {
            "crashes": 1, "down_cycles": 150_000.0, "checkpoints": 7,
            "checkpoint_pages": 301, "heartbeats_sent": 1345,
            "leases_expired": 20, "peers_declared_dead": 1,
            "frames_blackholed": 54, "parked_probes": 41,
            "cancelled_sends": 17, "barrier_reconfigs": 1}),
        ("is", 7, 400_000.0): (3_490_893.5, 4_947, 429_520, {
            "crashes": 1, "down_cycles": 150_000.0, "checkpoints": 9,
            "checkpoint_pages": 200, "heartbeats_sent": 971,
            "peers_declared_dead": 1, "waiters_purged": 1,
            "barrier_reconfigs": 1}),
    }

    @pytest.fixture(autouse=True)
    def _declare_sooner(self, monkeypatch):
        monkeypatch.setattr(crash, "CRASH_DECLARE_CYCLES", 200_000)

    def _run(self, app_name, node=3, at=500_000.0, spans=None):
        plan = FaultPlan(name="perm", seed=1, crashes=(
            NodeCrash(node=node, at=at, down_cycles=150_000.0,
                      restart=False),))
        config = SimConfig(seed=42, faults=plan)
        # check=False: data since the last checkpoint dies with the node
        # (inherent to unreplicated crash-stop, DESIGN.md §13) — this test
        # certifies liveness and reconfiguration, not data recency
        return run_app(make_app(app_name, "test"), "aec", config,
                       check=False, spans=spans)

    def _assert_pinned(self, result, app_name, node, at):
        cycles, msgs, nbytes, counters = self.PINS[(app_name, node, at)]
        assert (result.execution_time, result.messages_total,
                result.network_bytes) == (cycles, msgs, nbytes)
        doc = dataclasses.asdict(result.recovery)
        for key in ("plan", "fault_seed", "schedule"):
            doc.pop(key)
        assert {k: v for k, v in doc.items() if v} == counters

    def test_survivors_finish_after_declaration(self):
        spans = SpanRecorder()
        result = self._run("ocean", node=2, at=200_000.0, spans=spans)
        rec = result.recovery
        assert rec.crashes == 1 and rec.revivals == 0
        assert rec.peers_declared_dead == 1
        assert rec.barrier_reconfigs == 1
        # before the declaration, survivors' leases on node 2 expire and
        # their unacked sends to it are parked on constant-rate probes
        assert rec.leases_expired > 0
        assert rec.parked_probes > 0
        # heartbeats and probe traffic must also wind down: execution time
        # is the survivors' finish (fault-free ocean/aec runs ~8.7M
        # cycles), not some detector tail
        assert result.execution_time < 20_000_000
        self._assert_pinned(result, "ocean", 2, 200_000.0)
        # the two markers only a permanent crash records: the crash on
        # the dead node's track, the declaration on the coordinator's
        markers = {(s.track, s.name): s for s in spans.of_kind("fault")}
        crash = markers[(2, "fault.crash n2 (permanent)")]
        declared = markers[(0, "fault.declare-dead n2")]
        assert crash.start == crash.end == 200_000.0
        assert declared.start == declared.end > crash.start

    def test_dead_lock_manager_rehomed_to_node_zero(self):
        # raytrace hashes locks across all nodes; killing node 3 orphans
        # its managed locks mid-contention, so survivors' state reports
        # must rebuild them on node 0 (holder, waiters, diff history)
        result = self._run("raytrace")
        rec = result.recovery
        assert rec.peers_declared_dead == 1
        assert rec.locks_rehomed == 1
        # node 3 held a lock it manages: the token is regenerated
        assert rec.tokens_regenerated == 1
        self._assert_pinned(result, "raytrace", 3, 500_000.0)

    def test_dead_modifier_falls_back_to_refetch(self, monkeypatch):
        # survivors' requests for diffs only node 3 held fail with
        # PeerLostError; _make_valid falls back to a refetch from the
        # page's (reassigned) home each time
        caught = _count_peer_lost(monkeypatch)
        spans = SpanRecorder()
        result = self._run("fft", node=3, at=900_000.0, spans=spans)
        assert len(caught) == 15
        self._assert_pinned(result, "fft", 3, 900_000.0)
        # a fetch the dead writer never answered ends at the failure, not
        # at the end of the run
        assert not [s for s in spans.of_kind("page.fetch")
                    if s.args.get("truncated")]

    def test_dead_waiter_purged(self):
        result = self._run("is", node=7, at=400_000.0)
        assert result.recovery.waiters_purged == 1
        self._assert_pinned(result, "is", 7, 400_000.0)

    def test_death_during_barrier_exchange_keeps_homes_live(self):
        # node 1 dies while every node holds barrier instructions naming
        # it the home of page 5; the reconfiguration re-homes the page to
        # node 0, and the post-barrier cleanup must not undo that (a later
        # fault would otherwise ask the dead node for the page and raise
        # PeerLostError)
        result = self._run("raytrace", node=1, at=150_000.0)
        assert result.recovery.peers_declared_dead == 1
        assert (result.execution_time, result.messages_total,
                result.network_bytes) == (8_647_776.0, 9_532, 1_560_828)


def _grants(events):
    return [ev.dst for ev in events if isinstance(ev, Send)
            and ev.message.kind == "aec.lock_grant"]


def isr(node, msg):
    """Run ``node``'s handler for ``msg`` outside the simulator, the way
    the engine looks it up; its sends are never delivered."""
    return node._handlers[msg.kind](msg)


class TestLockRebuildDeferral:
    """Lock traffic for a lock adopted from a dead manager waits until
    every survivor has reported, then replays in arrival order.

    Node 0's handlers run outside the simulator: ``list(isr(n0, msg))``
    collects the events an ISR yields, and its sends are never delivered.
    """

    DEAD, LOCK = 2, 2  # lock 2 is managed by node 2 (lock % num_procs)

    def _world(self):
        plan = FaultPlan(name="perm", seed=1, crashes=(
            NodeCrash(node=self.DEAD, at=1e9, restart=False),))
        config = SimConfig(machine=MachineParams(num_procs=4), faults=plan)
        world = make_world(locks=4, config=config)
        nodes = [AECNode(world, i) for i in range(4)]
        assert world.sync.lock_manager(self.LOCK) == self.DEAD
        return world, nodes

    def test_request_and_release_deferred_then_replayed_in_order(self):
        world, (n0, n1, _n2, n3) = self._world()
        # 1. the coordinator's verdict starts the rebuild on node 0, which
        #    files its own report and waits for nodes 1 and 3
        events = list(isr(n0, Message(
            RECONFIG_KIND, {"dead": self.DEAD, "origin": "coordinator"}, 16)))
        assert sorted(ev.dst for ev in events if isinstance(ev, Send)
                      and ev.message.kind == RECONFIG_KIND) == [1, 3]
        assert n0._lockrep_wait == (self.DEAD, {1, 3})
        # node 1 reports that it holds the lock
        n1.locks_held.add(self.LOCK)
        n1.sessions[self.LOCK].acquire_counter = 5
        list(isr(n0, Message(
            "recovery.lock_report", n1._lock_report_for([self.LOCK]), 12)))
        # 2. node 0 requests the lock, then node 1 releases it
        req = {"lock": self.LOCK, "requester": 0, "step": 0}
        rel = {"lock": self.LOCK, "releaser": 1, "step": 0,
               "covered": [], "modified": []}
        events = list(isr(n0, Message("aec.lock_req", req, 4)))
        events += list(isr(n0, Message("aec.lock_release", rel, 0)))
        # 3. both are held back: no grant while node 3 has not reported
        assert _grants(events) == []
        assert n0._lockrep_deferred == [("req", req), ("rel", rel)]
        # 4. node 3's report completes the rebuild; the deferred traffic
        #    replays in arrival order, so the release hands node 1's
        #    rebuilt token to the queued requester
        replayed = []
        manage = n0._manage

        def spy(op, p):
            replayed.append(op)
            return manage(op, p)

        n0._manage = spy
        events = list(isr(n0, Message(
            "recovery.lock_report", n3._lock_report_for([self.LOCK]), 4)))
        assert replayed == ["req", "rel"]
        assert _grants(events) == [0]
        assert n0._lockrep_wait is None and n0._lockrep_deferred == []
        assert world.recovery.stats.locks_rehomed == 1


# ========================================= determinism across the sweep


class TestSweepDeterminismUnderCrashes:
    CELLS = (("is", "aec"), ("is", "tmk"), ("fft", "aec"), ("fft", "tmk"))

    def test_serial_and_parallel_byte_identical(self, tmp_path):
        specs = [sw.make_spec(app, "test", protocol,
                              faults=get_plan("crash-one-node"))
                 for app, protocol in self.CELLS]
        serial = sw.run_sweep(specs, jobs=1,
                              cache_dir=str(tmp_path / "serial"))
        parallel = sw.run_sweep(specs, jobs=4,
                                cache_dir=str(tmp_path / "parallel"))
        assert not serial.failures and not parallel.failures
        for spec in specs:
            a = serial.result_for(spec)
            b = parallel.result_for(spec)
            assert a.recovery is not None
            assert a.recovery == b.recovery
            a = dataclasses.replace(a, wall_seconds=0.0)
            b = dataclasses.replace(b, wall_seconds=0.0)
            assert pickle.dumps(a) == pickle.dumps(b)
