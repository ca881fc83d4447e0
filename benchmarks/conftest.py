"""Benchmark harness configuration.

Every benchmark reproduces one table or figure of the paper at the "bench"
scale (reduced input sizes, identical sharing/synchronization structure;
see repro.apps.registry).  One session-scoped sweep runs each cell the
benchmarks read once, and every benchmark renders from its results.

Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the rendered paper tables.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.harness import experiments as ex
from repro.harness.sweep import run_sweep

#: the scale every benchmark uses (override with REPRO_BENCH_SCALE=paper)
SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session")
def results():
    """Spec key -> result for every cell the benchmarks read (the machine
    ablations read test-scale cells whatever SCALE says)."""
    test_scale = ("ablation-scalability", "ablation-sensitivity")
    report = run_sweep(ex.experiment_cells(
        [n for n in ex.EXPERIMENTS if n not in test_scale], SCALE)
        + ex.experiment_cells(test_scale, "test"))
    assert not report.failures, report.summary()
    return report.results
