"""Run one (application, protocol) pair end to end and collect statistics."""
from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.apps.api import Application, AppContext
from repro.config import SimConfig
from repro.core.aec.protocol import AECNode
from repro.memory.layout import Layout
from repro.obs.spans import SpanRecorder
from repro.protocols.base import ProtocolNode, World
from repro.protocols.sc import SCNode
from repro.stats.breakdown import Breakdown
from repro.stats.fault_stats import AccessFaultStats
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
            check: bool = True, *, spans: Optional[SpanRecorder] = None,
            record_trace: Optional[str] = None) -> RunResult:
    """Simulate ``app`` under ``protocol``; returns the collected RunResult.

    Observation is an argument, not configuration: ``spans`` is a
    caller-owned recorder that collects the run's protocol episodes, and
    ``record_trace`` is a path the app-level event stream is written to.
    Neither changes a simulated number.
    """
    config = resolve_config(protocol, config)
    factory, _overrides = PROTOCOLS[protocol]

    machine = config.machine
    layout = Layout(machine.words_per_page)
    sync = SyncRegistry(machine.num_procs)
    app.declare(layout, sync)
    world = World(config, layout, sync, spans=spans,
                  record_trace=record_trace)

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
    world.spans.finish(execution_time)

    node_breakdowns = [Breakdown.from_dict(b) for b in world.sim.breakdowns()]
    fault_total = AccessFaultStats()
    for node in nodes:
        fault_total = fault_total.merge(node.fault_stats)

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
        },
    )

