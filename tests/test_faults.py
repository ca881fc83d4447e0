"""Deterministic fault injection + reliable transport (``repro.faults``).

Covers the four contract layers:

* plans are pure data: seeded, canonical, cache-key-relevant;
* faults off  => bit-identical timing and message counts (golden numbers
  recorded from the pre-fault-subsystem build);
* faults on   => every app x {aec, tmk} survives every built-in plan with
  zero checker violations and memory word-identical to the fault-free SC
  oracle (the headline guarantee);
* no retries  => a run under loss fails loudly with a structured
  ``TransportTimeoutError``, never silently corrupts memory.
"""
import dataclasses
import json
import pickle

import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.check.oracle import certify
from repro.config import MachineParams, SimConfig, config_digest
from repro.engine.simulator import Simulator
from repro.faults import (BUILTIN_PLANS, FaultPlan, FaultRule, NodeStall,
                          get_plan)
from repro.faults.injector import FaultInjector
from repro.harness import sweep as sw
from repro.harness.runner import PROTOCOLS, run_app
from repro.network.message import Message
from repro.obs.spans import SpanRecorder
from repro.protocols import base
from repro.protocols.base import (ACK_KIND, BEST_EFFORT_KINDS,
                                  ReliableTransport, TransportTimeoutError)

BUILTIN_NAMES = ("lossy-1pct", "dup-heavy", "jitter", "stall-one-node",
                 "crash-one-node", "crash-restart")


# ===================================================================== plans


class TestFaultPlans:
    def test_builtin_registry(self):
        assert set(BUILTIN_PLANS) == set(BUILTIN_NAMES)
        for name, plan in BUILTIN_PLANS.items():
            assert plan.name == name
            assert plan.rules or plan.stalls or plan.crashes

    def test_get_plan_with_seed_override(self):
        plan = get_plan("lossy-1pct@7")
        assert plan.seed == 7
        assert plan.rules == get_plan("lossy-1pct").rules
        assert get_plan("lossy-1pct").seed == 1

    def test_get_plan_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            get_plan("nope")

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(drop_p=1.5)
        with pytest.raises(ValueError):
            FaultRule(jitter_cycles=-1)
        with pytest.raises(ValueError):
            FaultRule(delay_multiplier=0.5)
        with pytest.raises(ValueError):
            NodeStall(node=0, at=0.0, cycles=0.0)

    def test_rule_matching_first_wins(self):
        specific = FaultRule(src=1, dst=2, drop_p=0.5)
        blanket = FaultRule(drop_p=0.1)
        plan = FaultPlan(rules=(specific, blanket))
        stats = _stats()
        inj = FaultInjector(plan, MachineParams(), stats, None)
        assert inj._rule_for("aec.reply", 1, 2) is specific
        assert inj._rule_for("aec.reply", 2, 1) is blanket

    def test_kind_prefix_matching(self):
        rule = FaultRule(kinds=("aec.bar_*", "tmk.page_req"))
        assert rule.matches("aec.bar_arrive", 0, 1)
        assert rule.matches("tmk.page_req", 0, 1)
        assert not rule.matches("aec.lock_req", 0, 1)

    def test_plan_is_canonical_json_safe(self):
        cfg = SimConfig(faults=get_plan("jitter"))
        payload = dataclasses.asdict(cfg)
        json.dumps(payload)  # must not raise

    def test_plan_changes_config_digest(self):
        base = config_digest(SimConfig())
        lossy = config_digest(SimConfig(faults=get_plan("lossy-1pct")))
        lossy7 = config_digest(SimConfig(faults=get_plan("lossy-1pct@7")))
        dup = config_digest(SimConfig(faults=get_plan("dup-heavy")))
        assert len({base, lossy, lossy7, dup}) == 4

    def test_describe_mentions_every_piece(self):
        text = get_plan("jitter").describe()
        assert "jitter" in text and "rule" in text
        assert "stall" in get_plan("stall-one-node").describe()


# ================================================================== injector


def _stats(plan="test", seed=1):
    from repro.faults.stats import NetFaultStats
    return NetFaultStats(plan=plan, fault_seed=seed)


def _msg(kind="aec.reply", src=0, dst=1, nbytes=100):
    m = Message(kind, None, nbytes)
    m.src, m.dst = src, dst
    return m


class TestInjector:
    def test_seeded_determinism(self):
        plan = FaultPlan(seed=5, rules=(FaultRule(drop_p=0.5, dup_p=0.3),))
        runs = []
        for _ in range(2):
            inj = FaultInjector(plan, MachineParams(), _stats(), None)
            runs.append([inj.fates(_msg(), 0.0) for _ in range(200)])
        assert runs[0] == runs[1]
        other = FaultInjector(plan.with_seed(6), MachineParams(), _stats(),
                              None)
        assert runs[0] != [other.fates(_msg(), 0.0) for _ in range(200)]

    def test_drop_and_dup_counting(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(drop_p=1.0),))
        stats = _stats()
        inj = FaultInjector(plan, MachineParams(), stats, None)
        assert inj.fates(_msg(), 0.0) == ((False, 0.0),)
        assert stats.dropped == 1 and stats.drops_by_kind == {"aec.reply": 1}
        plan = FaultPlan(seed=1, rules=(FaultRule(dup_p=1.0),))
        stats = _stats()
        inj = FaultInjector(plan, MachineParams(), stats, None)
        fates = inj.fates(_msg(), 0.0)
        assert len(fates) == 2 and all(d for d, _ in fates)
        assert stats.duplicated == 1
        assert fates[1][1] > fates[0][1]  # the duplicate trails

    def test_degraded_link_slows_streaming(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(delay_multiplier=3.0),))
        stats = _stats()
        inj = FaultInjector(plan, MachineParams(), stats, None)
        ((delivered, extra),) = inj.fates(_msg(nbytes=968), 0.0)
        # 968 + 32 header = 1000 bytes -> 500 stream cycles, x3 => +1000
        assert delivered and extra == pytest.approx(1000.0)
        assert stats.degraded_cycles == pytest.approx(1000.0)

    def test_unmatched_kind_untouched(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kinds=("tmk.*",), drop_p=1.0),))
        inj = FaultInjector(plan, MachineParams(), _stats(), None)
        assert inj.fates(_msg("aec.reply"), 0.0) == ((True, 0.0),)
        assert inj.fates(_msg("tmk.reply"), 0.0) == ((False, 0.0),)


# ================================================================= transport


def _transport():
    config = SimConfig(faults=FaultPlan(name="quiet"))
    sim = Simulator(config)
    tr = ReliableTransport(sim, None)
    sim.transport = tr
    return sim, tr


class TestReliableTransport:
    def test_sequence_numbers_per_src_dst_kind(self):
        _sim, tr = _transport()
        a0, a1 = _msg(), _msg()
        b = _msg(kind="aec.page_req")
        c = _msg(src=2)
        for m in (a0, a1, b, c):
            tr.on_send(m, 0.0)
        assert (a0.seq, a1.seq) == (0, 1)
        assert b.seq == 0 and c.seq == 0

    def test_dedup_suppresses_and_reacks(self):
        _sim, tr = _transport()
        m = _msg()
        tr.on_send(m, 0.0)
        assert tr.on_arrival(m) is True
        assert tr.on_arrival(m) is False  # duplicate copy
        assert tr.stats.dup_suppressed == 1
        # both copies were acked: the first ack may have been lost
        assert tr.stats.acks_sent == 2

    def test_ack_clears_pending(self):
        _sim, tr = _transport()
        m = _msg()
        tr.on_send(m, 0.0)
        assert tr.unacked == 1
        ack = Message(ACK_KIND, {"kind": m.kind, "seq": m.seq}, 8)
        ack.src, ack.dst = m.dst, m.src
        assert tr.on_arrival(ack) is False  # NIC-level, CPU never sees it
        assert tr.unacked == 0 and tr.stats.acks_received == 1

    def test_timeout_retransmits_with_backoff_then_raises(self, monkeypatch):
        monkeypatch.setattr(base, "RETRANS_MAX_RETRIES", 2)
        monkeypatch.setattr(base, "RETRANS_BACKOFF", 2.0)
        monkeypatch.setattr(base, "RETRANS_TIMEOUT_CYCLES", 100)
        sim, tr = _transport()
        m = _msg()
        tr.on_send(m, 0.0)
        (key,) = tr._pending
        tr._on_timeout(key, 1, 0.0)
        tr._on_timeout(key, 2, 0.0)
        assert tr.stats.retries == 2
        assert tr.stats.retries_by_kind == {"aec.reply": 2}
        with pytest.raises(TransportTimeoutError) as exc:
            tr._on_timeout(key, 3, 0.0)
        err = exc.value.to_dict()
        assert err["error"] == "transport_timeout"
        assert err["kind"] == "aec.reply" and err["attempts"] == 3
        assert err["src"] == 0 and err["dst"] == 1

    def test_timeout_after_ack_is_noop(self):
        _sim, tr = _transport()
        m = _msg()
        tr.on_send(m, 0.0)
        (key,) = tr._pending
        tr._pending.pop(key)  # acked
        tr._on_timeout(key, 1, 0.0)
        assert tr.stats.retries == 0 and tr.stats.timeouts == 0

    def test_best_effort_kinds_seq_but_no_ack(self):
        _sim, tr = _transport()
        assert "aec.upset_diffs" in BEST_EFFORT_KINDS
        m = _msg(kind="aec.upset_diffs")
        tr.on_send(m, 0.0)
        assert m.seq == 0 and tr.unacked == 0  # never retransmitted
        assert tr.on_arrival(m) is True
        assert tr.on_arrival(m) is False  # ...but still exactly-once
        assert tr.stats.acks_sent == 0

    def test_out_of_order_dedup_watermark(self):
        _sim, tr = _transport()
        key3 = (0, 1, "aec.reply")
        assert tr._first_delivery(key3, 2)
        assert tr._first_delivery(key3, 0)
        assert not tr._first_delivery(key3, 0)
        assert tr._first_delivery(key3, 1)
        assert not tr._first_delivery(key3, 2)
        assert tr._recv_high[key3] == 2 and not tr._recv_gaps[key3]


# ============================================== faults off: bit-identical


#: (app, protocol) -> (execution_time, messages_total, network_bytes)
#: recorded at seed 42 / test scale on the build immediately BEFORE the
#: fault subsystem landed; the fault-free path must reproduce them exactly.
#: raytrace/aec re-recorded after the AEC barrier-reconciliation fixes
#: (per-page last-writer resolution + stale-copy tracking): raytrace is
#: the one built-in app whose barrier exchange pattern those fixes
#: change; it stays checker-clean and SC-word-identical (test_check).
#: tmk-lh rows were recorded later, before its lazy-hybrid piggyback
#: started sharing frozen diffs by reference instead of copying them.
#: aec-nolap, adsm, munin and munin-lap rows were recorded last, before
#: the protocols moved onto one shared ProtocolNode substrate.
#: Five Munin rows (raytrace and ocean under munin and munin-lap,
#: water-ns under munin) were re-recorded when a release or barrier flush
#: started waiting for every ack its updates caused, including acks that
#: arrive while it is still sending.
FAULT_FREE_GOLDEN = {
    ("is", "aec"): (3773422.5, 2192, 336496),
    ("is", "tmk"): (5766226.0, 2372, 648024),
    ("is", "tmk-lh"): (5800630.0, 2370, 671632),
    ("is", "sc"): (80076.0, 0, 0),
    ("is", "aec-nolap"): (4103091.5, 2220, 335840),
    ("is", "adsm"): (4127624.5, 2281, 339664),
    ("is", "munin"): (4546693.75, 2128, 505484),
    ("is", "munin-lap"): (3651563.5, 1570, 444124),
    ("raytrace", "aec"): (9007830.5, 3940, 1416416),
    ("raytrace", "tmk"): (43717016.25, 13839, 2382068),
    ("raytrace", "tmk-lh"): (43769978.5, 13817, 2476904),
    ("raytrace", "sc"): (553543.0, 0, 0),
    ("raytrace", "aec-nolap"): (12321781.25, 4149, 1426280),
    ("raytrace", "adsm"): (12731340.75, 5177, 1472072),
    ("raytrace", "munin"): (27603963.25, 14127, 1795560),
    ("raytrace", "munin-lap"): (18268190.75, 7943, 2570176),
    ("water-ns", "aec"): (6730548.25, 8416, 1208516),
    ("water-ns", "tmk"): (9588226.5, 12985, 1834340),
    ("water-ns", "tmk-lh"): (9168162.75, 12009, 2026936),
    ("water-ns", "sc"): (104217.0, 0, 0),
    ("water-ns", "aec-nolap"): (7350043.0, 8592, 1214904),
    ("water-ns", "adsm"): (7909076.25, 10252, 1278716),
    ("water-ns", "munin"): (20120252.0, 32208, 2048480),
    ("water-ns", "munin-lap"): (25670907.25, 14484, 7976568),
    ("fft", "aec"): (5150450.75, 5626, 639348),
    ("fft", "tmk"): (5346767.5, 3958, 610536),
    ("fft", "tmk-lh"): (5346967.5, 3958, 610776),
    ("fft", "sc"): (8160.0, 0, 0),
    ("fft", "aec-nolap"): (5270015.75, 5640, 640020),
    ("fft", "adsm"): (5289143.75, 5669, 641120),
    ("fft", "munin"): (3829026.0, 3705, 518392),
    ("fft", "munin-lap"): (3727749.5, 3519, 510412),
    ("ocean", "aec"): (8746677.5, 7096, 956684),
    ("ocean", "tmk"): (16787172.25, 6787, 1043304),
    ("ocean", "tmk-lh"): (16853596.75, 6769, 1122176),
    ("ocean", "sc"): (35698.0, 0, 0),
    ("ocean", "aec-nolap"): (9608966.5, 7163, 960212),
    ("ocean", "adsm"): (9698461.5, 7375, 968372),
    ("ocean", "munin"): (14554558.25, 7267, 827288),
    ("ocean", "munin-lap"): (12312739.5, 5231, 1156952),
    ("water-sp", "aec"): (6077735.0, 3231, 381336),
    ("water-sp", "tmk"): (16894259.0, 5002, 577828),
    ("water-sp", "tmk-lh"): (16986506.25, 5010, 605424),
    ("water-sp", "sc"): (38802.0, 0, 0),
    ("water-sp", "aec-nolap"): (7248313.5, 3326, 385876),
    ("water-sp", "adsm"): (7391789.75, 3662, 399036),
    ("water-sp", "munin"): (12259863.75, 7546, 550844),
    ("water-sp", "munin-lap"): (9339025.0, 3492, 1463368),
}

#: (app, protocol, plan) -> (execution_time, messages_total, network_bytes)
#: at seed 42 / test scale under a fault plan: pins the reliable transport,
#: the injector's seeded draws and crash recovery.
FAULTED_GOLDEN = {
    ("ocean", "aec", "lossy-1pct"): (8974062.0, 14486, 1262672),
    ("ocean", "tmk", "lossy-1pct"): (17865995.0, 13813, 1343608),
    ("ocean", "aec", "crash-one-node"): (9121583.135972215, 16959, 1352916),
    ("ocean", "tmk", "crash-one-node"): (17007188.135972217, 18800, 1549988),
    ("is", "aec", "lossy-1pct"): (3900495.0, 4479, 432744),
    ("is", "aec", "dup-heavy"): (3867328.5, 5951, 528164),
    ("is", "aec", "jitter"): (3770541.142022038, 4406, 425916),
    ("is", "aec", "stall-one-node"): (3870154.25, 4396, 424916),
    ("is", "aec", "crash-one-node"): (4135432.3786574053, 5618, 473724),
    ("is", "aec", "crash-restart"): (3884875.0, 5546, 471196),
    ("is", "tmk", "lossy-1pct"): (6032793.25, 4863, 747612),
    ("is", "tmk", "dup-heavy"): (5810515.0, 6331, 910264),
    ("is", "tmk", "jitter"): (6003866.862992355, 4780, 744748),
    ("is", "tmk", "stall-one-node"): (6275529.25, 4788, 745280),
    ("is", "tmk", "crash-one-node"): (6201000.635972215, 6625, 818624),
    ("is", "tmk", "crash-restart"): (6504850.696674999, 6712, 830208),
}


class TestFaultFreeBitIdentical:
    def test_golden_covers_every_protocol(self):
        assert {p for _app, p in FAULT_FREE_GOLDEN} >= set(PROTOCOLS) - {
            "aec-broken"}  # the fuzz campaign's deliberately broken AEC

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_matches_pre_fault_subsystem_build(self, app_name, shared_run):
        for protocol in sorted({p for a, p in FAULT_FREE_GOLDEN
                                if a == app_name}):
            result = shared_run(app_name, protocol, SimConfig(seed=42))
            got = (result.execution_time, result.messages_total,
                   result.network_bytes)
            assert got == FAULT_FREE_GOLDEN[(app_name, protocol)], (
                f"{app_name}/{protocol}: fault-free run diverged from the "
                f"pre-fault-subsystem baseline {got} != "
                f"{FAULT_FREE_GOLDEN[(app_name, protocol)]}")
            assert result.net_faults is None

    @pytest.mark.parametrize("cell", sorted(FAULTED_GOLDEN))
    def test_faulted_cells_match_golden(self, cell, shared_run):
        app_name, protocol, plan = cell
        result = shared_run(app_name, protocol,
                            SimConfig(seed=42, faults=get_plan(plan)))
        got = (result.execution_time, result.messages_total,
               result.network_bytes)
        assert got == FAULTED_GOLDEN[cell], f"{cell}: {got}"

    def test_no_fault_machinery_without_plan(self):
        sim = Simulator(SimConfig())
        assert sim.transport is None


# =========================================== headline guarantee under faults


class TestSurvivesBuiltinPlans:
    """Every app x {aec, tmk} x built-in plan: completes within the retry
    budget, zero checker violations, memory word-identical to the
    fault-free SC oracle."""

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_checker_clean_and_sc_word_identical(self, app_name):
        cells = [(app_name, protocol,
                  SimConfig(seed=42, check_consistency=True,
                            faults=get_plan(plan_name)))
                 for protocol in ("aec", "tmk")
                 for plan_name in BUILTIN_NAMES]
        verdicts, _sweep = certify(cells)
        for (_app, protocol, config), (_cell, result, div, failure) in zip(
                cells, verdicts):
            plan_name = config.faults.name
            assert failure is None, (
                f"{app_name}/{protocol}/{plan_name}: {failure}")
            rep = result.check_report
            assert rep is not None and rep.clean, (
                f"{app_name}/{protocol}/{plan_name}: {rep.summary()}\n"
                + "\n".join(v.describe() for v in rep.violations[:10]))
            assert div.clean, (f"{app_name}/{protocol}/{plan_name}:\n"
                               f"{div.summary()}")
            assert div.words_compared > 0
            nf = result.net_faults
            assert nf is not None and nf.plan == plan_name

    def test_lap_fallback_path_is_exercised(self):
        # water-ns/aec under lossy-1pct deterministically loses several
        # update-set pushes; the acquirers must recover via the LAP-miss
        # fallback rather than hang on the upset wait or read stale data
        config = SimConfig(seed=42, faults=get_plan("lossy-1pct"))
        result = run_app(make_app("water-ns", "test"), "aec", config)
        nf = result.net_faults
        assert nf.lap_fallbacks > 0
        assert nf.dropped > 0 and nf.retries > 0

    def test_stall_freezes_the_node(self):
        plan = get_plan("stall-one-node")
        (stall,) = plan.stalls
        config = SimConfig(seed=42, faults=plan)
        spans = SpanRecorder()
        result = run_app(make_app("is", "test"), "aec", config, spans=spans)
        nf = result.net_faults
        assert nf.stalls == 1 and nf.stall_cycles == stall.cycles
        fault_spans = spans.of_kind("fault")
        assert any(s.duration == stall.cycles and s.track == stall.node
                   for s in fault_spans)
        # the freeze steals cycles: the run must be slower than fault-free
        base = FAULT_FREE_GOLDEN[("is", "aec")][0]
        assert result.execution_time > base


# ======================================================== broken variant


class TestBrokenVariantFailsLoudly:
    def test_no_retries_under_loss_raises_structured_timeout(
            self, monkeypatch):
        monkeypatch.setattr(base, "RETRANS_MAX_RETRIES", 0)
        config = SimConfig(seed=42, faults=get_plan("lossy-1pct"))
        with pytest.raises(TransportTimeoutError) as exc:
            run_app(make_app("is", "test"), "aec", config)
        err = exc.value.to_dict()
        assert err["error"] == "transport_timeout"
        assert {"src", "dst", "kind", "seq", "attempts",
                "first_sent", "time"} <= set(err)
        assert err["attempts"] == 1  # the one original attempt, no retries


# ========================================= determinism across the sweep


class TestSweepDeterminism:
    CELLS = (("is", "aec"), ("is", "tmk"), ("fft", "aec"), ("fft", "tmk"))

    def _specs(self, plan):
        return [sw.make_spec(app, "test", protocol, faults=plan)
                for app, protocol in self.CELLS]

    def test_serial_and_parallel_byte_identical(self, tmp_path):
        specs = self._specs(get_plan("lossy-1pct"))
        serial = sw.run_sweep(specs, jobs=1,
                              cache_dir=str(tmp_path / "serial"))
        parallel = sw.run_sweep(specs, jobs=4,
                                cache_dir=str(tmp_path / "parallel"))
        assert not serial.failures and not parallel.failures
        for spec in specs:
            a = serial.result_for(spec)
            b = parallel.result_for(spec)
            # byte-identical results, fault stats included; only the
            # measured wall-clock time may legitimately differ
            assert a.net_faults == b.net_faults
            a = dataclasses.replace(a, wall_seconds=0.0)
            b = dataclasses.replace(b, wall_seconds=0.0)
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_fault_seed_changes_cache_cell(self):
        k1 = sw.make_spec("is", "test", "aec",
                          faults=get_plan("lossy-1pct")).key
        k2 = sw.make_spec("is", "test", "aec",
                          faults=get_plan("lossy-1pct@7")).key
        k3 = sw.make_spec("is", "test", "aec",
                          faults=get_plan("dup-heavy")).key
        k4 = sw.make_spec("is", "test", "aec").key
        assert len({k1, k2, k3, k4}) == 4
