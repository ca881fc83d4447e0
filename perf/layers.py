"""Host-time layers of the simulator, and the roll-up of a cProfile run
into them.

Every module under ``src/repro`` belongs to exactly one layer, named after
the package it lives in (the longest matching package prefix wins).  Two
classes are carved out of their module because they are layers of their
own: ``MachineParams`` in ``config.py`` (the memoized cost model) belongs
to ``machine``, and ``ReliableTransport`` in ``protocols/base.py`` to
``protocols.transport``.  The benchmark's own frames (the files next to
this one) drive ``run_app`` the way the harness does, so they are charged
to ``harness``.

Frames outside both trees (numpy, builtins, the standard library) are
charged to the layer that called them: an external function's self time is
split over its callers by the pstats caller edges, walking up through
external callers until a layer is reached.
"""
from __future__ import annotations

import inspect
import os
import pstats
from typing import Dict, List, Optional, Tuple

LAYERS = ("engine", "apps", "core.aec", "core.lap", "protocols.base",
          "protocols.transport", "protocols.treadmarks", "protocols.sc",
          "memory", "machine", "network", "check", "faults", "recovery",
          "fuzz", "obs", "harness")

#: package prefix -> layer; ``repro`` itself catches harness, bench, stats,
#: sync, tools, the package init and the rest of config.py, and
#: ``repro.protocols`` catches munin and adsm, which no workload runs
PACKAGE_LAYER = {
    "repro": "harness",
    "repro.engine": "engine",
    "repro.apps": "apps",
    "repro.core": "core.aec",
    "repro.core.aec": "core.aec",
    "repro.core.lap": "core.lap",
    "repro.protocols": "protocols.base",
    "repro.protocols.treadmarks": "protocols.treadmarks",
    "repro.protocols.sc": "protocols.sc",
    "repro.memory": "memory",
    "repro.machine": "machine",
    "repro.network": "network",
    "repro.check": "check",
    "repro.faults": "faults",
    "repro.recovery": "recovery",
    "repro.fuzz": "fuzz",
    "repro.obs": "obs",
}

#: (module, class) -> layer, overriding the module's layer for the class body
CLASS_LAYER = {
    ("repro.config", "MachineParams"): "machine",
    ("repro.protocols.base", "ReliableTransport"): "protocols.transport",
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: pstats function key: (filename, first line, function name)
Func = Tuple[str, int, str]


def module_name(path: str, src: str) -> str:
    """The dotted module name of the source file ``path`` under ``src``."""
    parts = os.path.relpath(path, src)[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def module_layer(module: str) -> str:
    """The layer of a dotted module name under ``repro``."""
    best = ""
    for prefix in PACKAGE_LAYER:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    if not best:
        raise ValueError(f"{module!r} is not a repro module")
    return PACKAGE_LAYER[best]


class LayerMap:
    """Resolves a source location to its layer (``None`` = external)."""

    def __init__(self) -> None:
        import importlib

        import repro
        self._src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        #: filename -> [(first line, last line, layer)]
        self._spans: Dict[str, List[Tuple[int, int, str]]] = {}
        for (module, cls), layer in CLASS_LAYER.items():
            obj = getattr(importlib.import_module(module), cls)
            lines, first = inspect.getsourcelines(obj)
            path = os.path.abspath(inspect.getsourcefile(obj))
            self._spans.setdefault(path, []).append(
                (first, first + len(lines) - 1, layer))
        self._cache: Dict[str, Optional[str]] = {}

    def _file_layer(self, filename: str) -> Optional[str]:
        if filename not in self._cache:
            path = os.path.abspath(filename)
            layer: Optional[str] = None
            if os.path.dirname(path) == _BENCH_DIR:
                layer = "harness"
            elif path.startswith(os.path.join(self._src, "repro") + os.sep):
                layer = module_layer(module_name(path, self._src))
            self._cache[filename] = layer
        return self._cache[filename]

    def layer(self, func: Func) -> Optional[str]:
        filename, line, _name = func
        layer = self._file_layer(filename)
        if layer is not None:
            for first, last, span_layer in self._spans.get(
                    os.path.abspath(filename), ()):
                if first <= line <= last:
                    return span_layer
        return layer


def rollup(stats: pstats.Stats,
           layers: LayerMap) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from one profile, plus the
    profile's total self time under the ``"@total"`` key."""
    raw = stats.stats  # type: ignore[attr-defined]
    out: Dict[str, Dict[str, float]] = {
        name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    owners: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func, path: frozenset) -> Dict[str, float]:
        """Which layers ``func``'s time is charged to (weights sum to 1):
        its own layer, or else its callers', weighted by the time spent
        under each caller edge; a frame without callers is ``harness``."""
        layer = layers.layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        edges = [(caller, edge[3]) for caller, edge in raw[func][4].items()
                 if caller in raw and caller not in path]
        weight = sum(w for _caller, w in edges)
        dist: Dict[str, float] = {}
        for caller, w in edges:
            share = w / weight if weight > 0 else 1.0 / len(edges)
            for name, part in owner(caller, path | {func}).items():
                dist[name] = dist.get(name, 0.0) + share * part
        owners[func] = dist or {"harness": 1.0}
        return owners[func]

    total = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in raw.items():
        total += tt
        layer = layers.layer(func)
        if layer is not None:
            out[layer]["calls"] += nc
        for name, part in owner(func, frozenset()).items():
            out[name]["self_s"] += tt * part
    out["@total"] = {"self_s": total, "calls": 0}
    return out
