"""Collapsed-stack ("folded") export for flamegraph tools.

The folded format — one ``frame;frame;frame value`` line per unique
stack — is what ``flamegraph.pl``, inferno and https://www.speedscope.app
consume.  :func:`spans_collapsed` folds *simulated* time: each node is a
root frame; nested/overlapping spans become stacks via the same
innermost-wins sweep line the attribution uses, except the whole active
stack is kept (values are exclusive cycles, so the graph's widths add up
correctly).  Time covered by no span lands on the bare node frame
(compute).
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import Span

#: folded stacks: stack string -> accumulated integer value
Folded = Dict[str, int]


def _track_stacks(spans: List[Span], root: str) -> Dict[Tuple[str, ...],
                                                        float]:
    """Exclusive time per active-stack tuple for one node's spans."""
    events: List[Tuple[float, int, int]] = []
    for idx, span in enumerate(spans):
        if span.end is not None and span.end > span.start:
            events.append((span.start, 1, idx))
            events.append((span.end, 0, idx))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, Tuple[float, int]] = {}
    out: Dict[Tuple[str, ...], float] = {}
    last_t: Optional[float] = None
    order = 0
    for t, typ, idx in events:
        if active and last_t is not None and t > last_t:
            frames = tuple(spans[i].name for i in
                           sorted(active, key=active.__getitem__))
            stack = (root,) + frames
            out[stack] = out.get(stack, 0.0) + (t - last_t)
        if typ == 1:
            active[idx] = (spans[idx].start, order)
            order += 1
        else:
            active.pop(idx, None)
        last_t = t
    return out


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
        stacks = _track_stacks(by_track[node], root)
        covered = 0.0
        for stack, cycles in stacks.items():
            covered += cycles
            value = int(round(cycles))
            if value:
                folded[";".join(stack)] = folded.get(";".join(stack), 0) \
                    + value
        if execution_time is not None:
            rest = int(round(execution_time - covered))
            if rest > 0:
                folded[root] = folded.get(root, 0) + rest
    return folded


def write_collapsed(folded: Folded, path: str) -> int:
    """Write folded stacks (sorted for diffability); returns line count."""
    lines = [f"{stack} {value}" for stack, value in sorted(folded.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")
    return len(lines)
