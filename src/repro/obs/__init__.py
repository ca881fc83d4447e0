"""Unified observability: metrics and simulated-time spans.

One :class:`Observability` object per simulation run (``World.obs``)
bundles the two simulated-time instruments:

* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  labeled counters/gauges/histograms (LAP prediction telemetry, faults,
  lock/barrier episode statistics);
* ``obs.spans`` — a :class:`~repro.obs.spans.SpanRecorder` of protocol
  episodes: the run's one event stream, exportable to Perfetto
  (:mod:`repro.obs.export`) and queried by :mod:`repro.tools` and
  :mod:`repro.bench`.

Both default to shared null implementations whose update methods are
no-ops, so instrumentation points cost one method call when observability
is off (and hot paths additionally guard on ``.enabled``).  Host time is
not measured here: use ``perf/run.py`` or the stdlib ``cProfile``.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.export import JsonlSink
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NullMetricsRegistry, Snapshot)
from repro.obs.spans import (SPAN_KINDS, NullSpanRecorder, Span,
                             SpanRecorder)

__all__ = [
    "Observability", "MetricsRegistry", "NullMetricsRegistry", "Snapshot",
    "Counter", "Gauge", "Histogram", "SpanRecorder", "NullSpanRecorder",
    "Span", "SPAN_KINDS", "JsonlSink",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SimConfig

_NULL_METRICS = NullMetricsRegistry()
_NULL_SPANS = NullSpanRecorder()


class Observability:
    """The per-run bundle of simulated-time instruments."""

    __slots__ = ("metrics", "spans", "_sink")

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 sink: Optional[JsonlSink] = None) -> None:
        self.metrics = metrics if metrics is not None else _NULL_METRICS
        self.spans = spans if spans is not None else _NULL_SPANS
        self._sink = sink

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.spans.enabled

    @classmethod
    def from_config(cls, config: "SimConfig") -> "Observability":
        """Build from ``SimConfig`` flags (null instruments when off).

        The ``obs_*`` knobs are first-class ``SimConfig`` fields — read
        directly, never through ``getattr`` fallbacks, so an undeclared
        field is a loud ``AttributeError`` instead of a flag that silently
        escapes the canonical config digest.
        """
        metrics = MetricsRegistry() if config.obs_metrics else None
        spans: Optional[SpanRecorder] = None
        sink: Optional[JsonlSink] = None
        if config.obs_spans:
            if config.obs_spans_jsonl:
                sink = JsonlSink(config.obs_spans_jsonl)
            spans = SpanRecorder(capacity=config.obs_span_capacity, sink=sink)
        return cls(metrics, spans, sink)

    def finish(self, at: float) -> None:
        """End-of-run hook: close open spans, flush the streaming sink."""
        self.spans.finish(at)
        if self._sink is not None:
            self._sink.close()
            self._sink = None
