"""Span-based tracing over *simulated* time.

A span is an interval ``[start, end]`` on one node's track: a lock episode
(request→grant wait, grant→release hold), a barrier episode, a diff
creation/application, a remote page fetch, or a LAP push→acquire window.
Spans nest naturally on a track (a diff creation inside a lock hold), which
Perfetto / chrome://tracing render as stacked slices.

The recorder keeps *finished* spans in a ring buffer of the most recent N
(one million by default), so a long run never exhausts memory and never
silently biases toward startup; evictions are counted per kind.

Open spans at run end are closed by :meth:`SpanRecorder.finish` with an
explicit ``truncated`` marker — a deadlocked barrier or an abandoned lock
wait shows up in the trace instead of vanishing.
"""
from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

#: canonical span kinds and the paper Figure 4 category each one explains
SPAN_KINDS = {
    "lock.wait": "synch",     # request -> grant
    "lock.hold": "busy",      # grant -> release (application CS work)
    "barrier": "synch",       # arrive -> complete
    "diff.create": "data",
    "diff.apply": "data",
    "page.fetch": "data",
    "lap.window": "synch",    # eager push received -> consumed/discarded
    "fault": "others",        # injected drop/dup (instant) or node stall
}


@dataclass(slots=True)
class Span:
    """One closed (or truncated-open) interval on a node's track."""

    track: int
    kind: str
    name: str
    start: float
    end: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


class SpanRecorder:
    """Records spans keyed by integer handles; ring-buffers finished ones."""

    def __init__(self, capacity: Optional[int] = 1_000_000) -> None:
        self.spans: Deque[Span] = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped: Counter = Counter()
        self.completed = 0
        self._open: Dict[int, Span] = {}
        self._ids = itertools.count(1)

    # ---- recording -------------------------------------------------------

    def begin(self, track: int, kind: str, name: str, start: float,
              **args: Any) -> int:
        """Open a span; returns the handle to pass to :meth:`end`."""
        sid = next(self._ids)
        self._open[sid] = Span(track, kind, name, start, None, args)
        return sid

    def end(self, span_id: int, end: float, **args: Any) -> Optional[Span]:
        """Close an open span (unknown/stale handles are ignored)."""
        span = self._open.pop(span_id, None)
        if span is None:
            return None
        span.end = end
        if args:
            span.args.update(args)
        self._store(span)
        return span

    def record(self, track: int, kind: str, name: str, start: float,
               end: float, **args: Any) -> None:
        """A span whose two ends are already known (``start == end`` is a
        zero-duration marker)."""
        self._store(Span(track, kind, name, start, end, args))

    def _store(self, span: Span) -> None:
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped[self.spans[0].kind] += 1
        self.spans.append(span)
        self.completed += 1

    def finish(self, at: float) -> int:
        """End-of-run hook: close every still-open span at time ``at``
        (marked truncated)."""
        n = 0
        for sid in sorted(self._open):
            span = self._open.pop(sid)
            span.end = max(at, span.start)
            span.args["truncated"] = True
            self._store(span)
            n += 1
        return n

    # ---- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def open_count(self) -> int:
        return len(self._open)

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def of_kind(self, *kinds: str) -> List[Span]:
        want = set(kinds)
        return [s for s in self.spans if s.kind in want]

    def by_track(self, track: int) -> List[Span]:
        return [s for s in self.spans if s.track == track]

    def counts(self) -> Counter:
        return Counter(s.kind for s in self.spans)

    def durations(self, kind: str) -> List[float]:
        return [s.duration for s in self.spans if s.kind == kind]

    def total_time(self, kind: str) -> float:
        return sum(self.durations(kind))

