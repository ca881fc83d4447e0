"""Per-node simulated-time attribution derived from spans.

Answers "where did each node's execution time go?" from the span record:
lock waits, barrier stalls, diff creation/application, remote page
fetches, LAP windows and injected faults, with the uncovered remainder
attributed to ``compute`` (local work plus anything unspanned, e.g. page
twinning and message service time).

Spans overlap — a diff creation can be hidden behind a barrier stall, a
LAP window brackets a lock wait — so naive per-kind duration sums double
count.  The attribution instead runs a sweep line over each node's track
and charges every elementary interval to the *innermost* active span (the
one that started last), exactly the convention a flamegraph uses for self
time.  By construction the per-kind totals are disjoint, their sum is the
covered time, and ``covered + compute == execution_time`` exactly (up to
float rounding, checked against :data:`ATTRIBUTION_TOLERANCE`).

The Figure-4 cross-check maps each span kind to its paper category
(:data:`repro.obs.spans.SPAN_KINDS`) and compares against the engine's
own :class:`~repro.stats.breakdown.Breakdown`.  The two views measure
different things (the engine charges waits net of overlapped interrupt
service; spans record wall intervals of whole episodes), so the
cross-check reports deltas instead of demanding equality — a large drift
flags an instrumentation bug, not noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import SPAN_KINDS, Span, SpanRecorder
from repro.stats.breakdown import Breakdown

#: span kinds that participate in attribution; ``lock.hold`` is excluded
#: on purpose — a hold brackets application compute plus nested protocol
#: work, which would swallow the very categories being attributed
ATTRIBUTION_KINDS = ("lock.wait", "barrier", "diff.create", "diff.apply",
                     "page.fetch", "lap.window", "fault")

#: relative tolerance on "per-node attribution sums to execution time"
ATTRIBUTION_TOLERANCE = 1e-6


def exclusive_stacks(spans: List[Span]) -> Dict[Tuple[int, ...], float]:
    """Exclusive cycles per stack of active spans, one node's track.

    A stack is a tuple of indices into ``spans``, outermost first; its
    last entry is the innermost span (the one that started last), which
    owns the stack's cycles.  Attribution charges them to that span's
    kind, the flamegraph to the joined span names.
    """
    events: List[Tuple[float, int, int]] = []
    for idx, span in enumerate(spans):
        if span.end is not None and span.end > span.start:
            events.append((span.start, 1, idx))
            events.append((span.end, 0, idx))
    # ends sort before starts at equal times: a span beginning exactly as
    # another ends never sees it as an enclosing parent
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, int] = {}
    out: Dict[Tuple[int, ...], float] = {}
    last_t = 0.0
    for order, (t, typ, idx) in enumerate(events):
        if active and t > last_t:
            stack = tuple(sorted(active, key=active.__getitem__))
            out[stack] = out.get(stack, 0.0) + (t - last_t)
        if typ == 1:
            active[idx] = order
        else:
            active.pop(idx, None)
        last_t = t
    return out


@dataclass
class AttributionReport:
    """Where each node's simulated execution time went."""

    execution_time: float
    #: node -> kind -> exclusive cycles, including the "compute" remainder
    per_node: Dict[int, Dict[str, float]]
    #: spans evicted from the recorder's ring (attribution under-covers)
    spans_dropped: int = 0
    #: optional Figure-4 cross-check: category -> (span cycles, breakdown
    #: cycles), averaged over nodes
    figure4: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def nodes(self) -> List[int]:
        return sorted(self.per_node)

    def totals(self) -> Dict[str, float]:
        """Per-kind cycles summed over nodes."""
        out: Dict[str, float] = {}
        for kinds in self.per_node.values():
            for kind, cycles in kinds.items():
                out[kind] = out.get(kind, 0.0) + cycles
        return out

    def node_residual(self, node: int) -> float:
        """``sum(kinds) - execution_time`` for one node (should be ~0)."""
        return sum(self.per_node[node].values()) - self.execution_time

    def check(self, tolerance: float = ATTRIBUTION_TOLERANCE) -> List[str]:
        """Violations of the sums-to-exec-time invariant (empty = clean)."""
        problems = []
        scale = max(self.execution_time, 1.0)
        for node in self.nodes:
            residual = self.node_residual(node)
            if abs(residual) > tolerance * scale:
                problems.append(
                    f"node {node}: attribution off by {residual:.1f} cycles "
                    f"({residual / scale:.2e} of execution time)")
            compute = self.per_node[node].get("compute", 0.0)
            if compute < -tolerance * scale:
                problems.append(
                    f"node {node}: covered time exceeds execution time "
                    f"by {-compute:.1f} cycles")
        return problems

    def render(self) -> str:
        kinds = [k for k in ATTRIBUTION_KINDS
                 if any(self.per_node[n].get(k) for n in self.nodes)]
        kinds.append("compute")
        header = "node " + "".join(f"{k:>13}" for k in kinds) + f"{'sum%':>8}"
        lines = [f"simulated-time attribution "
                 f"(T = {self.execution_time / 1e6:.2f} Mcycles)", header]
        for node in self.nodes:
            row = self.per_node[node]
            covered = sum(row.values())
            pct = 100.0 * covered / self.execution_time \
                if self.execution_time else 0.0
            lines.append(f"{node:>4} "
                         + "".join(f"{row.get(k, 0.0) / 1e6:>13.3f}"
                                   for k in kinds)
                         + f"{pct:>7.2f}%")
        totals = self.totals()
        n = len(self.nodes) or 1
        lines.append(" avg "
                     + "".join(f"{totals.get(k, 0.0) / n / 1e6:>13.3f}"
                               for k in kinds) + f"{100.0:>7.2f}%")
        if self.figure4:
            lines.append("")
            lines.append("Figure-4 cross-check "
                         "(avg Mcycles/node: spans vs engine breakdown):")
            for cat, (from_spans, from_engine) in sorted(
                    self.figure4.items()):
                delta = from_spans - from_engine
                lines.append(f"  {cat:<7} spans {from_spans / 1e6:>10.3f}  "
                             f"engine {from_engine / 1e6:>10.3f}  "
                             f"delta {delta / 1e6:>+10.3f}")
        if self.spans_dropped:
            lines.append(f"warning: {self.spans_dropped} spans were evicted "
                         f"from the ring buffer; attribution under-covers")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "execution_time": self.execution_time,
            "per_node": {str(n): dict(k) for n, k in self.per_node.items()},
            "spans_dropped": self.spans_dropped,
            "figure4": {cat: {"spans": a, "breakdown": b}
                        for cat, (a, b) in self.figure4.items()},
            "violations": self.check(),
        }


def attribute_spans(spans: Iterable[Span], num_nodes: int,
                    execution_time: float,
                    dropped: int = 0) -> AttributionReport:
    """Build the attribution from raw spans (kinds outside the attribution
    set are ignored; tracks >= ``num_nodes`` too)."""
    by_track: Dict[int, List[Span]] = {n: [] for n in range(num_nodes)}
    want = set(ATTRIBUTION_KINDS)
    for span in spans:
        if span.kind in want and span.track in by_track:
            by_track[span.track].append(span)
    per_node: Dict[int, Dict[str, float]] = {}
    for node, node_spans in by_track.items():
        kinds: Dict[str, float] = {}
        for stack, cycles in exclusive_stacks(node_spans).items():
            kind = node_spans[stack[-1]].kind
            kinds[kind] = kinds.get(kind, 0.0) + cycles
        covered = sum(kinds.values())
        kinds["compute"] = execution_time - covered
        per_node[node] = kinds
    return AttributionReport(execution_time=execution_time,
                             per_node=per_node, spans_dropped=dropped)


def attribute_result(result: Any,
                     spans: Optional[SpanRecorder]) -> AttributionReport:
    """Attribution for a :class:`RunResult` from the recorder its run was
    given (``run_app(..., spans=spans)``).

    Also fills the Figure-4 cross-check from the result's per-node engine
    breakdowns.
    """
    if spans is None:
        raise ValueError("no spans recorded; pass run_app(..., "
                         "spans=SpanRecorder())")
    report = attribute_spans(spans.spans, result.num_procs,
                             result.execution_time,
                             dropped=spans.dropped_total)
    report.figure4 = _figure4_crosscheck(report, result.node_breakdowns)
    return report


def _figure4_crosscheck(report: AttributionReport,
                        node_breakdowns: List[Breakdown]
                        ) -> Dict[str, Tuple[float, float]]:
    """Average per-node (span-derived, engine-charged) cycles per category.

    Only categories the span vocabulary can see are compared: ``synch``
    and ``data``.  ``busy``/``ipc``/``others`` are engine-only (compute,
    bus transfers, interrupt entry) and ``fault`` spans model injected
    faults, not a Figure-4 cost.
    """
    n = len(report.nodes) or 1
    span_cat: Dict[str, float] = {}
    for kinds in report.per_node.values():
        for kind, cycles in kinds.items():
            cat = SPAN_KINDS.get(kind)
            if cat in ("synch", "data"):
                span_cat[cat] = span_cat.get(cat, 0.0) + cycles
    out: Dict[str, Tuple[float, float]] = {}
    for cat in ("synch", "data"):
        engine = sum(b.cycles.get(cat, 0.0) for b in node_breakdowns)
        out[cat] = (span_cat.get(cat, 0.0) / n, engine / n)
    return out
