"""``repro bench`` — explain where *simulated* time goes.

:mod:`repro.bench.attribution` attributes each node's simulated time to
span kinds (cross-checked against the Figure-4 breakdown) and
:mod:`repro.bench.flame` exports the same spans as collapsed stacks for
flamegraph tools.  Host speed is measured by ``perf/run.py`` (see
``BENCHMARK.json``), not here.
"""
from __future__ import annotations

from repro.bench.attribution import (ATTRIBUTION_KINDS,
                                     ATTRIBUTION_TOLERANCE,
                                     AttributionReport, attribute_result,
                                     attribute_spans)
from repro.bench.flame import spans_collapsed, write_collapsed

__all__ = [
    "ATTRIBUTION_KINDS", "ATTRIBUTION_TOLERANCE", "AttributionReport",
    "attribute_result", "attribute_spans",
    "spans_collapsed", "write_collapsed",
]
