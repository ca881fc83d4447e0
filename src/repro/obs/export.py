"""Trace export: Chrome trace-event / Perfetto JSON.

A Chrome trace-event document (``{"traceEvents": [...]}``) opens in
https://ui.perfetto.dev or chrome://tracing.  Each finished span becomes
a complete ("X") event with microsecond timestamps derived from the
simulated cycle time (``MachineParams.cycle_ns``); instant spans become
"i" events.  Nodes map to threads (``tid``) of one simulator process
(``pid``), with "M" metadata records naming them.
"""
from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.spans import Span, SpanRecorder

#: default simulated cycle duration (10 ns = the paper's 100 MHz clock)
DEFAULT_CYCLE_NS = 10.0

_PID = 0  # one simulated machine = one trace process


def _cycles_to_us(cycles: float, cycle_ns: float) -> float:
    return cycles * cycle_ns / 1000.0


def span_to_trace_event(span: Span,
                        cycle_ns: float = DEFAULT_CYCLE_NS) -> Dict[str, Any]:
    """One span as a Chrome trace-event dict."""
    ts = _cycles_to_us(span.start, cycle_ns)
    event: Dict[str, Any] = {
        "name": span.name,
        "cat": span.kind,
        "pid": _PID,
        "tid": span.track,
        "ts": ts,
        "args": dict(span.args, cycles_start=span.start),
    }
    if span.end is not None and span.end > span.start:
        event["ph"] = "X"
        event["dur"] = _cycles_to_us(span.end - span.start, cycle_ns)
    else:
        event["ph"] = "i"
        event["s"] = "t"  # thread-scoped instant
    return event


def chrome_trace(spans: Union[SpanRecorder, Iterable[Span]],
                 cycle_ns: float = DEFAULT_CYCLE_NS,
                 process_name: str = "repro-sim") -> Dict[str, Any]:
    """A complete Chrome trace-event document for ``spans``.

    Span events are emitted in ascending timestamp order (spans finish out
    of start order, so the recorder's buffer is not already sorted), which
    keeps every per-track event sequence monotonic.  When ``spans`` is a
    :class:`SpanRecorder`, the ring buffer's eviction counts are surfaced
    in ``otherData`` so a viewer can tell a complete capture from a
    truncated one.
    """
    recorder: Optional[SpanRecorder] = None
    if isinstance(spans, SpanRecorder):
        recorder = spans
        spans = list(spans.spans)
    else:
        spans = list(spans)
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": _PID, "name": "process_name",
        "args": {"name": process_name},
    }]
    for track in sorted({s.track for s in spans}):
        events.append({
            "ph": "M", "pid": _PID, "tid": track, "name": "thread_name",
            "args": {"name": f"node {track}"},
        })
        events.append({
            "ph": "M", "pid": _PID, "tid": track, "name": "thread_sort_index",
            "args": {"sort_index": track},
        })
    events.extend(span_to_trace_event(s, cycle_ns)
                  for s in sorted(spans, key=lambda s: (s.start, s.track)))
    other: Dict[str, Any] = {"cycle_ns": cycle_ns}
    if recorder is not None:
        other["spans_completed"] = recorder.completed
        other["spans_dropped_total"] = recorder.dropped_total
        other["spans_dropped_by_kind"] = {
            kind: n for kind, n in sorted(recorder.dropped.items())}
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str,
                       spans: Union[SpanRecorder, Iterable[Span]],
                       cycle_ns: float = DEFAULT_CYCLE_NS,
                       process_name: str = "repro-sim") -> int:
    """Write the Perfetto-compatible JSON; returns the span count."""
    doc = chrome_trace(spans, cycle_ns, process_name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    # 2 metadata records per track + 1 process record
    return sum(1 for e in doc["traceEvents"] if e["ph"] != "M")
