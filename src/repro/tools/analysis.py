"""Run-analysis helpers: who-talks-to-whom matrices, ASCII span timelines
and lock-behaviour reports.

These operate on a finished run: either a :class:`~repro.stats.run_result.
RunResult` (for network matrices, carried in ``extra``) or the
:class:`~repro.obs.spans.SpanRecorder` a run records with
``SimConfig(obs_spans=True)`` (``result.extra["spans"]``).

Example::

    from repro import SimConfig, run_app
    from repro.apps.registry import make_app
    from repro.tools import render_matrix, render_timeline, lock_report

    cfg = SimConfig(obs_spans=True)
    result = run_app(make_app("is", "test"), "aec", config=cfg)
    print(render_matrix(result.extra["pair_messages"]))
    print(lock_report(result.extra["spans"]))
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.spans import Span, SpanRecorder

#: shading ramp for the ASCII heatmap, light to heavy
_RAMP = " .:-=+*#%@"


def message_matrix(result) -> np.ndarray:
    """The (src, dst) message-count matrix of a finished run."""
    m = result.extra.get("pair_messages")
    if m is None:
        raise ValueError("run has no pair_messages (older RunResult?)")
    return m


def render_matrix(matrix: np.ndarray, label: str = "messages") -> str:
    """An ASCII heatmap of a square (src, dst) matrix."""
    n = matrix.shape[0]
    peak = matrix.max() or 1
    out = [f"{label}: rows=sender, cols=receiver, peak={int(peak)}"]
    header = "     " + " ".join(f"{j:>3}" for j in range(n))
    out.append(header)
    for i in range(n):
        cells = []
        for j in range(n):
            v = matrix[i, j]
            shade = _RAMP[min(int(len(_RAMP) * v / (peak + 1)), len(_RAMP) - 1)]
            cells.append(f"{shade * 3}")
        out.append(f"{i:>3}  " + " ".join(cells))
    # top talkers
    flat = [(int(matrix[i, j]), i, j) for i in range(n) for j in range(n)
            if matrix[i, j]]
    flat.sort(reverse=True)
    for v, i, j in flat[:5]:
        out.append(f"  top: {i} -> {j}: {v}")
    return "\n".join(out)


def render_timeline(spans: SpanRecorder, node: Optional[int] = None,
                    kinds: Optional[Sequence[str]] = None,
                    buckets: int = 60) -> str:
    """An ASCII activity timeline: span starts per bucket of simulated
    time, one row per span kind."""
    events: List[Span] = list(spans.spans)
    if node is not None:
        events = [s for s in events if s.track == node]
    if kinds is not None:
        want = set(kinds)
        events = [s for s in events if s.kind in want]
    if not events:
        return "(no events)"
    t0 = min(s.start for s in events)
    t1 = max(s.start for s in events)
    width = max(t1 - t0, 1.0)
    per_kind: Dict[str, List[int]] = defaultdict(lambda: [0] * buckets)
    for s in events:
        idx = min(int((s.start - t0) / width * buckets), buckets - 1)
        per_kind[s.kind][idx] += 1
    out = [f"timeline: {len(events)} spans over "
           f"{width / 1e6:.2f}M cycles"
           + (f" (node {node})" if node is not None else "")]
    for kind, hist in sorted(per_kind.items()):
        peak = max(hist) or 1
        bar = "".join(
            _RAMP[min(int(len(_RAMP) * v / (peak + 1)), len(_RAMP) - 1)]
            for v in hist)
        out.append(f"  {kind:<18} |{bar}| peak={peak}")
    return "\n".join(out)


def lock_report(spans: SpanRecorder, top: int = 10) -> str:
    """Per-lock behaviour from ``lock.hold`` spans: acquires, owner
    diversity, ownership transfers and mean critical-section length."""
    holds: Dict[int, List[Span]] = defaultdict(list)
    for s in spans.of_kind("lock.hold"):
        lock = s.args.get("lock")
        if lock is not None:
            holds[lock].append(s)
    if not holds:
        return "(no lock activity traced)"
    rows = []
    for lock, hs in holds.items():
        hs.sort(key=lambda s: s.start)
        owners = [s.track for s in hs]
        transfers = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        avg_cs = sum(s.duration for s in hs) / len(hs)
        rows.append((len(hs), lock, len(set(owners)), transfers, avg_cs))
    rows.sort(reverse=True)
    out = [f"{'lock':>6} {'acquires':>9} {'owners':>7} {'transfers':>10} "
           f"{'avg CS (cy)':>12}"]
    for n, lock, owners, transfers, avg_cs in rows[:top]:
        out.append(f"{lock:>6} {n:>9} {owners:>7} {transfers:>10} "
                   f"{avg_cs:>12.0f}")
    if len(rows) > top:
        out.append(f"  ... and {len(rows) - top} more lock variables")
    return "\n".join(out)
