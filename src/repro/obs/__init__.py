"""Simulated-time spans, their export, and host metadata.

A run's one event stream is ``World.spans``: the caller-owned
:class:`~repro.obs.spans.SpanRecorder` passed as ``run_app(...,
spans=...)``, else ``None`` (every recording site tests ``spans is
None``).  Spans export to Perfetto (:mod:`repro.obs.export`) and
are queried by :mod:`repro.tools`; ``repro explain`` is the one report
over them and the run's statistics.  Host time is not measured here: use
``perf/run.py`` or the stdlib ``cProfile``.
"""
from __future__ import annotations

from repro.obs.spans import SPAN_KINDS, Span, SpanRecorder

__all__ = ["SpanRecorder", "Span", "SPAN_KINDS"]
