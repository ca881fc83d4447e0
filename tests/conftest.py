"""Shared pytest fixtures and path setup for source checkouts."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from typing import Dict, Optional, Tuple

import pytest

from repro.config import MachineParams, SimConfig, config_digest


@pytest.fixture
def machine():
    return MachineParams()


@pytest.fixture
def small_machine():
    """A 4-node machine for focused protocol tests."""
    return MachineParams(num_procs=4)


@pytest.fixture
def config():
    return SimConfig()


@pytest.fixture
def small_config(small_machine):
    return SimConfig(machine=small_machine)


@pytest.fixture(scope="session")
def shared_run():
    """``shared_run(app, protocol, config=None, scale="test")``: the
    ``RunResult`` of one cell, simulated once per test session.

    For tests that only read a run: every caller of the same cell gets the
    same object, so none may mutate it.  Tests that compare two runs of
    one cell (determinism, observed vs plain, cold vs warm cache) call
    ``run_app`` themselves.
    """
    from repro.apps.registry import make_app
    from repro.harness.runner import run_app

    runs: Dict[Tuple[str, str, str, str], object] = {}

    def run(app: str, protocol: str, config: Optional[SimConfig] = None,
            scale: str = "test"):
        config = config if config is not None else SimConfig()
        key = (app, scale, protocol, config_digest(config))
        if key not in runs:
            runs[key] = run_app(make_app(app, scale, config=config),
                                protocol, config)
        return runs[key]

    return run


@pytest.fixture(scope="session")
def warm_cache(tmp_path_factory):
    """A disk cache that one plain ``repro sweep`` filled with every
    experiment cell at test scale; tests only read it."""
    from repro.harness.cli import main

    cache_dir = str(tmp_path_factory.mktemp("warm") / "cache")
    assert main(["sweep", "--scale", "test", "--cache-dir", cache_dir]) == 0
    return cache_dir


def make_world(num_procs=4, segments=(("data", 2048),), locks=2, barriers=1,
               config=None):
    """Build a World with segments/locks/barriers declared (no nodes)."""
    from repro.memory.layout import Layout
    from repro.protocols.base import World
    from repro.sync.objects import SyncRegistry

    config = config or SimConfig(machine=MachineParams(num_procs=num_procs))
    layout = Layout(config.machine.words_per_page)
    segs = {name: layout.allocate(name, n) for name, n in segments}
    sync = SyncRegistry(num_procs)
    for i in range(locks):
        sync.new_lock(f"L{i}")
    for i in range(barriers):
        sync.new_barrier(f"B{i}")
    world = World(config, layout, sync)
    world.test_segments = segs
    return world
