"""Run one (application, protocol) pair end to end and collect statistics."""
from __future__ import annotations

import time
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional

from repro.apps.api import Application, AppContext
from repro.config import SimConfig
from repro.core.aec.protocol import AECNode, AECNoLapNode
from repro.memory.layout import Layout
from repro.obs.spans import SpanRecorder
from repro.protocols.base import ProtocolNode, World
from repro.protocols.sc import SCNode
from repro.recovery.crash import RECONFIG_KIND
from repro.stats.breakdown import Breakdown
from repro.stats.fault_stats import AccessFaultStats
from repro.stats.run_result import RunResult
from repro.sync.objects import SyncRegistry

#: builds one protocol node: ``factory(world, node_id)``
NodeFactory = Callable[[World, int], ProtocolNode]


def _imported_on_first_use(module: str, cls: str) -> NodeFactory:
    """A factory for ``module.cls`` that imports ``module`` on first call,
    so a run that never uses the protocol never pays for its import."""
    def make(world: World, node_id: int) -> ProtocolNode:
        return getattr(import_module(module), cls)(world, node_id)
    return make


#: protocol name -> node factory (a node class, or a lazy stand-in for one)
PROTOCOLS: Dict[str, NodeFactory] = {
    "aec": AECNode,
    "aec-nolap": AECNoLapNode,
    "tmk": _imported_on_first_use("repro.protocols.treadmarks.protocol",
                                  "TreadMarksNode"),
    "tmk-lh": _imported_on_first_use("repro.protocols.treadmarks.protocol",
                                     "LazyHybridNode"),
    "adsm": _imported_on_first_use("repro.protocols.adsm", "AdsmNode"),
    "munin": _imported_on_first_use("repro.protocols.munin", "MuninNode"),
    "munin-lap": _imported_on_first_use("repro.protocols.munin",
                                        "MuninLapNode"),
    "sc": SCNode,
    # fuzzing ground truth: AEC with one diff apply skipped (must fail)
    "aec-broken": _imported_on_first_use("repro.fuzz.broken",
                                         "BrokenAECNode"),
}


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
    factory = PROTOCOLS.get(protocol)
    if factory is None:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}")
    config = config if config is not None else SimConfig()

    machine = config.machine
    layout = Layout(machine.words_per_page)
    sync = SyncRegistry(machine.num_procs)
    app.declare(layout, sync)
    world = World(config, layout, sync, spans=spans,
                  record_trace=record_trace)

    nodes = [factory(world, i) for i in range(machine.num_procs)]
    if world.recovery is not None and RECONFIG_KIND not in nodes[0]._handlers:
        # refuse a permanent crash the protocol cannot reconfigure around
        # now, not at the coordinator's first death verdict mid-run
        for c in world.recovery.crashes:
            if not c.restart:
                raise ValueError(
                    f"protocol {protocol!r} has no crash recovery: the "
                    f"permanent crash of node {c.node} (restart=False) "
                    f"needs a protocol that reconfigures around dead "
                    f"peers, such as aec")
    for i, node in enumerate(nodes):
        world.sim.add_program(i, app.program(AppContext(node)))

    wall0 = time.perf_counter()
    execution_time = world.sim.run()
    wall = time.perf_counter() - wall0

    # each program's return value, kept by the engine when it finished
    results: List[Any] = [n.result for n in world.sim.nodes]
    check_report = None if world.checker is None else world.checker.finish()
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
    if world.spans is not None:
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
        net_faults=(world.sim.transport.stats
                    if world.sim.transport is not None else None),
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

