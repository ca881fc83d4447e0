"""Run-analysis helpers: who-talks-to-whom matrices, ASCII span timelines,
lock-behaviour reports and the metrics section of ``repro explain``.

These operate on a finished run: either a :class:`~repro.stats.run_result.
RunResult` (for network matrices, carried in ``extra``) or the
:class:`~repro.obs.spans.SpanRecorder` the caller handed to the run.

Example::

    from repro import run_app
    from repro.apps.registry import make_app
    from repro.obs import SpanRecorder
    from repro.tools import lock_report, message_matrix, render_matrix

    spans = SpanRecorder()
    result = run_app(make_app("is", "test"), "aec", spans=spans)
    print(render_matrix(message_matrix(result)))
    print(lock_report(spans))
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.lap.stats import VARIANTS
from repro.obs.spans import Span, SpanRecorder

#: shading ramp for the ASCII heatmap, light to heavy
_RAMP = " .:-=+*#%@"


def message_matrix(result) -> np.ndarray:
    """The (src, dst) message-count matrix of a finished run."""
    return result.extra["pair_messages"]


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
    """Per-lock behaviour from ``lock.hold`` and ``lock.wait`` spans:
    acquires, owner diversity, ownership transfers, mean critical-section
    length, and the total wait and hold cycles."""
    holds: Dict[int, List[Span]] = defaultdict(list)
    for s in spans.of_kind("lock.hold"):
        lock = s.args.get("lock")
        if lock is not None:
            holds[lock].append(s)
    if not holds:
        return "(no lock activity traced)"
    waits: Dict[int, float] = defaultdict(float)
    for s in spans.of_kind("lock.wait"):
        waits[s.args.get("lock")] += s.duration
    rows = []
    for lock, hs in holds.items():
        hs.sort(key=lambda s: s.start)
        owners = [s.track for s in hs]
        transfers = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        hold = sum(s.duration for s in hs)
        rows.append((len(hs), lock, len(set(owners)), transfers,
                     hold / len(hs), waits[lock], hold))
    rows.sort(reverse=True)
    out = [f"{'lock':>6} {'acquires':>9} {'owners':>7} {'transfers':>10} "
           f"{'avg CS (cy)':>12} {'wait (cy)':>12} {'hold (cy)':>12}"]
    for n, lock, owners, transfers, avg_cs, wait, hold in rows[:top]:
        out.append(f"{lock:>6} {n:>9} {owners:>7} {transfers:>10} "
                   f"{avg_cs:>12.0f} {wait:>12.0f} {hold:>12.0f}")
    if len(rows) > top:
        out.append(f"  ... and {len(rows) - top} more lock variables")
    return "\n".join(out)


#: span kinds whose durations :func:`metrics_report` summarizes
EPISODE_KINDS = ("lock.wait", "lock.hold", "barrier")


def episode_stats(spans: SpanRecorder, kind: str) -> Dict[str, float]:
    """Count, sum, mean and exact nearest-rank p50/p90/p99 of the
    durations of ``kind`` spans (all zero when there are none)."""
    durations = sorted(spans.durations(kind))
    n = len(durations)
    total = sum(durations)
    out = {"count": n, "sum": total, "mean": total / n if n else 0.0}
    for q in (50, 90, 99):
        out[f"p{q}"] = durations[max(0, -(-q * n // 100) - 1)] if n else 0.0
    return out


def _counter_lines(counters: Dict[str, Any]) -> List[str]:
    return [f"  {name:<22} {value:>14.0f}"
            for name, value in counters.items()
            if isinstance(value, (int, float)) and value]


def metrics_report(result, spans: SpanRecorder) -> str:
    """The facts a run recorded, for ``repro explain``: lock and barrier
    episodes from the spans it was given, then access faults, LAP
    prediction and eager pushes, and network-fault and recovery counters
    from its stats."""
    rows = [f"  {kind:<10} {st['count']:>7} {st['sum']:>12.0f} "
            f"{st['mean']:>10.0f} {st['p50']:>10.0f} {st['p90']:>10.0f} "
            f"{st['p99']:>10.0f}"
            for kind, st in ((k, episode_stats(spans, k))
                             for k in EPISODE_KINDS) if st["count"]]
    header = (f"  {'kind':<10} {'count':>7} {'sum':>12} {'mean':>10} "
              f"{'p50':>10} {'p90':>10} {'p99':>10}")
    out = ["episodes (simulated cycles, from spans):",
           *([header, *rows] if rows else ["  (none traced)"]),
           "\n" + lock_report(spans)]
    faults = result.fault_stats
    n = faults.total_faults
    mean = faults.fault_cycles / n if n else 0.0
    out.append(f"\naccess faults: {n} total, {faults.fault_cycles:.0f} "
               f"cycles (mean {mean:.0f})")
    out.extend(_counter_lines(dataclasses.asdict(faults)))
    lap = result.lap_stats
    if lap is not None:
        scored = sum(s.scored for s in lap.per_lock)
        out.append(f"\nLAP success rates (Table 3; {scored} scored "
                   f"transfers):")
        for variant, rate in lap.overall_rates().items():
            if variant != "events" and rate is not None:
                out.append(f"  {variant:<22} {rate:>14.6f}")
        out.append(f"  {'lock':>6} {'acquires':>9} {'same owner':>11} "
                   f"{'scored':>7} " + " ".join(VARIANTS))
        for s in lap.per_lock:
            if s.acquires:
                out.append(f"  {s.lock_id:>6} {s.acquires:>9} "
                           f"{s.same_owner:>11} {s.scored:>7} " + " ".join(
                               f"{s.hits[v]:>{len(v)}}" for v in VARIANTS))
        d = result.diff_stats
        wasted = ", ".join(f"{reason} {b}" for reason, b
                           in sorted(d.lap_wasted_bytes.items()))
        out.append(f"LAP eager pushes: {d.lap_pushes} pushes, "
                   f"{d.lap_pushed_bytes} bytes pushed, "
                   f"{d.lap_wasted_total} bytes wasted"
                   + (f" ({wasted})" if wasted else ""))
    for title, stats in (("network faults", result.net_faults),
                         ("recovery", result.recovery)):
        if stats is not None:
            out.append(f"\n{title}:")
            out.extend(_counter_lines(dataclasses.asdict(stats)))
    return "\n".join(out)
