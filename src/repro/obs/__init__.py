"""Simulated-time spans, their export, and host metadata.

A run's one event stream is ``World.spans``: a
:class:`~repro.obs.spans.SpanRecorder` of protocol episodes when
``SimConfig.obs_spans`` is on, else the shared
:class:`~repro.obs.spans.NullSpanRecorder` whose update methods are
no-ops (hot paths additionally guard on ``.enabled``).  Spans export to
Perfetto (:mod:`repro.obs.export`) and are queried by :mod:`repro.tools`
and :mod:`repro.bench`; ``repro metrics`` is a report over them and the
run's statistics.  Host time is not measured here: use ``perf/run.py``
or the stdlib ``cProfile``.
"""
from __future__ import annotations

from repro.obs.export import JsonlSink
from repro.obs.spans import (NULL_SPANS, SPAN_KINDS, NullSpanRecorder, Span,
                             SpanRecorder)

__all__ = [
    "SpanRecorder", "NullSpanRecorder", "NULL_SPANS", "Span", "SPAN_KINDS",
    "JsonlSink",
]
