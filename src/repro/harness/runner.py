"""Run one (application, protocol) pair end to end and collect statistics."""
from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.apps.api import Application, AppContext
from repro.config import SimConfig
from repro.core.aec.protocol import AECNode
from repro.memory.layout import Layout
from repro.protocols.base import ProtocolNode, World
from repro.protocols.sc import SCNode
from repro.stats.breakdown import Breakdown
from repro.stats.fault_stats import FaultStats
from repro.stats.run_result import RunResult
from repro.sync.objects import SyncRegistry


def _make_aec(world: World, node_id: int) -> ProtocolNode:
    return AECNode(world, node_id)


def _make_tmk(world: World, node_id: int) -> ProtocolNode:
    from repro.protocols.treadmarks.protocol import TreadMarksNode
    return TreadMarksNode(world, node_id)


def _make_sc(world: World, node_id: int) -> ProtocolNode:
    return SCNode(world, node_id)


def _make_munin(world: World, node_id: int) -> ProtocolNode:
    from repro.protocols.munin import MuninNode
    return MuninNode(world, node_id)


#: protocol name -> (node factory, config overrides)
PROTOCOLS: Dict[str, Any] = {
    "aec": (_make_aec, {"use_lap": True}),
    "aec-nolap": (_make_aec, {"use_lap": False}),
    "tmk": (_make_tmk, {"use_lap": False}),
    "tmk-lh": (_make_tmk, {"use_lap": False, "tm_lazy_hybrid": True}),
    "adsm": (lambda world, node_id: __import__(
        "repro.protocols.adsm", fromlist=["make_adsm"]
    ).make_adsm(world, node_id), {"use_lap": True}),
    "munin": (_make_munin, {"use_lap": False}),
    "munin-lap": (_make_munin, {"use_lap": True}),
    "sc": (_make_sc, {"use_lap": False}),
}


def _driver(program, results: List[Any], index: int):
    results[index] = yield from program


def resolve_config(protocol: str,
                   config: Optional[SimConfig] = None) -> SimConfig:
    """The effective config for running under ``protocol``: the caller's
    config (or defaults) with the protocol's overrides applied to a *copy*.

    The caller's object is never mutated — protocol overrides must not leak
    into later runs that share the same ``SimConfig`` instance.  Idempotent:
    resolving an already-resolved config is a no-op copy.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}")
    _factory, overrides = PROTOCOLS[protocol]
    config = config if config is not None else SimConfig()
    return config.replace(**overrides)


def run_app(app: Application, protocol: str = "aec",
            config: Optional[SimConfig] = None,
            check: bool = True) -> RunResult:
    """Simulate ``app`` under ``protocol``; returns the collected RunResult."""
    config = resolve_config(protocol, config)
    factory, _overrides = PROTOCOLS[protocol]

    machine = config.machine
    layout = Layout(machine.words_per_page)
    sync = SyncRegistry(machine.num_procs)
    app.declare(layout, sync)
    world = World(config, layout, sync)

    nodes = [factory(world, i) for i in range(machine.num_procs)]
    if world.recovery is not None:
        # refuse a permanent crash the protocol cannot reconfigure around
        # now, not at the coordinator's first death verdict mid-run
        world.recovery.require_reconfiguration(
            protocol,
            type(nodes[0]).on_peer_dead is not ProtocolNode.on_peer_dead)
    results: List[Any] = [None] * machine.num_procs
    for i, node in enumerate(nodes):
        ctx = AppContext(node, config.seed)
        world.sim.add_program(i, _driver(app.program(ctx), results, i))

    wall0 = time.perf_counter()
    execution_time = world.sim.run()
    wall = time.perf_counter() - wall0

    for node in nodes:
        node.finalize()
    check_report = world.checker.finish()
    if world.app_tap is not None:
        # written before app.check so a semantically-failing run still
        # leaves a replayable trace behind
        world.app_tap.close(
            app=app, layout=layout, sync=sync, protocol=protocol,
            config=config,
            baseline={"execution_time": execution_time,
                      "messages_total": world.sim.network.messages,
                      "network_bytes": world.sim.network.bytes,
                      "events_processed": world.sim.events_processed})
    if check:
        app.check(results)
    world.obs.finish(execution_time)

    node_breakdowns = [Breakdown.from_dict(b) for b in world.sim.breakdowns()]
    fault_total = FaultStats()
    for node in nodes:
        fault_total = fault_total.merge(node.fault_stats)

    metrics_snapshot = None
    if world.obs.metrics.enabled:
        _publish_summary_metrics(world, execution_time)
        metrics_snapshot = world.obs.metrics.snapshot()

    return RunResult(
        app=app.name,
        protocol=protocol,
        num_procs=machine.num_procs,
        execution_time=execution_time,
        node_breakdowns=node_breakdowns,
        breakdown=Breakdown.average(node_breakdowns),
        app_results=results,
        diff_stats=world.diff_stats,
        fault_stats=fault_total,
        lock_acquires=dict(world.lock_acquires),
        barrier_events=world.barrier_events,
        lap_stats=world.lap_stats,
        messages_total=world.sim.network.messages,
        network_bytes=world.sim.network.bytes,
        events_processed=world.sim.events_processed,
        wall_seconds=wall,
        metrics=metrics_snapshot,
        check_report=check_report,
        net_faults=world.sim.net_stats,
        recovery=(world.recovery.stats if world.recovery is not None
                  else None),
        clock_hz=machine.clock_hz,
        extra={
            "lock_vars": [(lv.lock_id, lv.name, lv.group)
                          for lv in sync.locks],
            "app_params": app.describe(),
            "pair_messages": world.sim.network.pair_messages.copy(),
            "pair_bytes": world.sim.network.pair_bytes.copy(),
            "spans": world.obs.spans if world.obs.spans.enabled else None,
        },
    )


def _publish_summary_metrics(world: World, execution_time: float) -> None:
    """Fold end-of-run aggregates into the metrics registry.

    Derived LAP success rates are published as gauges so a plain snapshot
    dump (``repro metrics``) shows Table 3's per-predictor numbers without
    post-processing; the raw counters stay available for exact arithmetic.
    """
    m = world.obs.metrics
    m.gauge("run.execution_cycles",
            "simulated execution time").set(execution_time)
    m.gauge("run.barrier_episodes",
            "completed global barriers").set(world.barrier_events)
    acquires = m.counter("lock.acquires", "granted lock acquires")
    for lock_id, count in world.lock_acquires.items():
        acquires.inc(count, lock=lock_id)
    if world.lap_stats is not None:
        lap_acquires = m.counter("lap.acquires",
                                 "lock acquires seen by LAP scoring")
        same_owner = m.counter("lap.same_owner", "grants back to the "
                               "previous owner (excluded from scoring)")
        scored = m.counter("lap.scored", "scored ownership-transfer events")
        hits = m.counter("lap.hits", "prediction hits per technique variant")
        for s in world.lap_stats.per_lock:
            for counter, count in ((lap_acquires, s.acquires),
                                   (same_owner, s.same_owner),
                                   (scored, s.scored)):
                if count:
                    counter.inc(count, lock=s.lock_id)
            for variant, count in s.hits.items():
                if count:
                    hits.inc(count, lock=s.lock_id, variant=variant)
        rate = m.gauge("lap.hit_rate",
                       "per-predictor LAP success rate (Table 3)")
        for variant, value in world.lap_stats.overall_rates().items():
            if variant == "events" or value is None:
                continue
            rate.set(value, variant=variant)
    net = world.sim.net_stats
    if net is not None:
        injected = m.counter("net.faults.injected",
                             "injected network faults by effect")
        injected.inc(net.dropped, effect="drop")
        injected.inc(net.duplicated, effect="dup")
        injected.inc(net.jittered, effect="jitter")
        injected.inc(net.stalls, effect="stall")
        recovery = m.counter("net.transport",
                             "reliable-transport recovery events")
        recovery.inc(net.retries, event="retry")
        recovery.inc(net.timeouts, event="timeout")
        recovery.inc(net.dup_suppressed, event="dup_suppressed")
        recovery.inc(net.acks_sent, event="ack_sent")
        recovery.inc(net.lap_fallbacks, event="lap_fallback")
    rec = world.recovery
    if rec is not None:
        rs = rec.stats
        events = m.counter("recovery.events",
                           "crash / recovery protocol events")
        events.inc(rs.crashes, event="crash")
        events.inc(rs.revivals, event="restart")
        events.inc(rs.checkpoints, event="checkpoint")
        events.inc(rs.heartbeats_sent, event="heartbeat")
        events.inc(rs.leases_expired, event="lease_expired")
        events.inc(rs.peers_declared_dead, event="declared_dead")
        events.inc(rs.frames_blackholed, event="frame_blackholed")
        events.inc(rs.sends_suppressed, event="send_suppressed")
        events.inc(rs.parked_probes, event="parked_probe")
        events.inc(rs.tokens_regenerated, event="token_regenerated")
        events.inc(rs.waiters_purged, event="waiter_purged")
        events.inc(rs.barrier_reconfigs, event="barrier_reconfig")
        events.inc(rs.orphan_pages_restored, event="orphan_restored")
        events.inc(rs.rerouted_requests, event="request_rerouted")
