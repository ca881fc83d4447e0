"""Experiment harness: run (application, protocol) pairs, render the paper's
tables and figures, and sweep whole experiment grids in parallel."""
from repro.harness.runner import PROTOCOLS, run_app
from repro.harness.sweep import (DiskCache, RunSpec, SweepReport, make_spec,
                                 run_sweep)

__all__ = ["run_app", "PROTOCOLS",
           "RunSpec", "make_spec", "run_sweep",
           "SweepReport", "DiskCache"]
