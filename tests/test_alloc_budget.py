"""Allocation-regression guard for the hot path.

The engine's per-event objects (events, messages, primitives, futures,
diffs) are ``__slots__`` classes precisely so the event loop does not churn
a ``__dict__`` per object.  This test runs a tiny ``is`` simulation under
SC, AEC and TreadMarks with ``tracemalloc`` armed around the simulator loop
only (setup excluded) and pins the transient allocation peak per processed
event.  If slots are
dropped somewhere hot — or a per-event code path starts allocating
wholesale — the peak jumps well past the budget and this fails.
"""
from __future__ import annotations

import tracemalloc

import pytest

from repro.apps.api import AppContext
from repro.apps.registry import make_app
from repro.config import SimConfig
from repro.harness.runner import PROTOCOLS
from repro.memory.layout import Layout
from repro.protocols.base import World
from repro.sync.objects import SyncRegistry

#: transient peak bytes allocated per processed event, measured ~370 B/event
#: under SC, ~230 under AEC and ~160 under TreadMarks on CPython 3.11 (heap
#: tuples + generator frames + numpy scratch + the result payloads the tiny
#: scenario keeps alive); the budget leaves at least ~2.5x
#: headroom for interpreter/platform variance while still catching
#: ``__dict__``-creep on the hot objects, which shows up as hundreds of
#: extra bytes per event.
PEAK_BYTES_PER_EVENT_BUDGET = 1000


def _build_world(app_name: str, protocol: str):
    config = SimConfig()
    factory = PROTOCOLS[protocol]
    app = make_app(app_name, "test")
    layout = Layout(config.machine.words_per_page)
    sync = SyncRegistry(config.machine.num_procs)
    app.declare(layout, sync)
    world = World(config, layout, sync)
    # as ``run_app`` does: each program runs on the engine directly, which
    # keeps its return value on the node's runtime
    for i in range(config.machine.num_procs):
        world.sim.add_program(i, app.program(AppContext(factory(world, i))))
    return world


@pytest.mark.parametrize("protocol", ["sc", "aec", "tmk"])
def test_sim_loop_allocation_peak_per_event(protocol):
    # warm run: import costs, numpy internals, memo tables
    warm = _build_world("is", protocol)
    warm.sim.run()

    world = _build_world("is", protocol)
    tracemalloc.start()
    try:
        world.sim.run()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = world.sim.events_processed
    assert events > 100, "scenario too small to be meaningful"
    per_event = peak / events
    assert per_event < PEAK_BYTES_PER_EVENT_BUDGET, (
        f"transient allocation peak {per_event:.0f} B/event exceeds the "
        f"{PEAK_BYTES_PER_EVENT_BUDGET} B budget — did a hot-path class "
        f"lose its __slots__?")


def test_hot_classes_stay_slotted():
    """The objects created per event must not carry instance dicts."""
    from repro.engine.events import Delay, Resolve, Send, Wait
    from repro.engine.future import Future
    from repro.machine.node import AccessCost
    from repro.memory.diff import Diff
    from repro.network.message import Message

    import numpy as np

    instances = [
        Delay(1.0), Send(0, Message("x")), Wait(Future()),
        Resolve(Future()), Message("x"), Future(), AccessCost(0.0, 0.0),
        Diff(0, np.empty(0, dtype=np.int32), np.empty(0)),
    ]
    for obj in instances:
        assert not hasattr(obj, "__dict__"), (
            f"{type(obj).__name__} grew a __dict__; hot-path objects must "
            f"use __slots__")
