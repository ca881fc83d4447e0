"""Collapsed-stack ("folded") export for flamegraph tools.

The folded format — one ``frame;frame;frame value`` line per unique
stack — is what ``flamegraph.pl``, inferno and https://www.speedscope.app
consume.  :func:`spans_collapsed` folds *simulated* time: each node is a
root frame, and nested/overlapping spans become stacks via the
attribution's sweep line (:func:`~repro.tools.attribution.exclusive_stacks`)
with the whole active stack kept.  Values are exclusive cycles, so the
graph's widths add up correctly.  Time covered by no span lands on the
bare node frame (compute).
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.obs.spans import Span
from repro.tools.attribution import exclusive_stacks

#: folded stacks: stack string -> accumulated integer value
Folded = Dict[str, int]


def spans_collapsed(spans: Iterable[Span], num_nodes: int,
                    execution_time: Optional[float] = None) -> Folded:
    """Fold simulated-time spans into per-node stacks (values in cycles).

    With ``execution_time`` given, each node's uncovered remainder is
    charged to its bare root frame so every node column has equal total
    width (the run's execution time).
    """
    by_track: Dict[int, List[Span]] = {n: [] for n in range(num_nodes)}
    for span in spans:
        if span.track in by_track:
            by_track[span.track].append(span)
    folded: Folded = {}
    for node in range(num_nodes):
        root = f"node{node}"
        node_spans = by_track[node]
        stacks: Dict[str, float] = {}
        for stack, cycles in exclusive_stacks(node_spans).items():
            key = ";".join([root, *(node_spans[i].name for i in stack)])
            stacks[key] = stacks.get(key, 0.0) + cycles
        covered = 0.0
        for key, cycles in stacks.items():
            covered += cycles
            value = int(round(cycles))
            if value:
                folded[key] = value
        if execution_time is not None:
            rest = int(round(execution_time - covered))
            if rest > 0:
                folded[root] = rest
    return folded


def write_collapsed(folded: Folded, path: str) -> int:
    """Write folded stacks (sorted for diffability); returns line count."""
    lines = [f"{stack} {value}" for stack, value in sorted(folded.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")
    return len(lines)
