"""Record/replay front end for app-level event streams.

Recording (``run_app(..., record_trace=PATH)``) taps
:class:`~repro.apps.api.AppContext`: every shared-memory
access, synchronization operation and compute delay a program issues is
appended (in per-processor program order) to an in-memory buffer and
written out as JSON lines when the run finishes.  Replay loads the file as
a :class:`TraceApp` — a standalone application that re-issues exactly the
same operations with exactly the same written values, so under the same
protocol and configuration the simulation is **bit-identical** in every
sim-side number (execution cycles, messages, bytes, events).

File format (one JSON object per line):

* line 1 — header: ``{"format": "repro-app-trace", "version": 4, "app",
  "protocol", "num_procs", "volatile_segments", "segments": [[name,
  nwords], ...], "locks": [[name, group], ...], "barriers": [name, ...],
  "config": <canonical config dict>, "baseline": {execution_time,
  messages_total, network_bytes, events_processed}}``.  ``segments`` are
  in allocation order, so replay reconstructs identical base addresses.
* following lines — events: ``{"p": proc, "op": ...}`` with op-specific
  fields (``s`` segment index, ``i`` start, ``n`` words, ``v`` values,
  ``c`` cycles, ``l`` lock, ``b`` barrier).

Replaying under a *different* protocol also works (the op stream is just
an application), but bit-identity is only guaranteed against the recorded
protocol+config: programs that branch on read values could have taken a
different path there.
"""
from __future__ import annotations

import json
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.apps.api import Application, AppContext
from repro.memory.layout import Layout
from repro.sync.objects import SyncRegistry

TRACE_FORMAT = "repro-app-trace"
#: v2: ``config`` no longer carries the trace's own output path.
#: v3: the machine dict lost ``topology`` (every run is on the mesh).
#: v4: it lost the fault-layer and recovery timers (module constants now)
TRACE_VERSION = 4


class TraceRecorder:
    """Buffers one run's app-level events; written as JSONL on close."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: (proc, op) tuples; op uses segment *names* until close
        self.events: List[Tuple[int, Tuple]] = []

    def rec(self, proc: int, op: Tuple) -> None:
        self.events.append((proc, op))

    def close(self, app: Application, layout: Layout, sync: SyncRegistry,
              protocol: str, config: Any,
              baseline: Optional[Dict[str, Any]] = None) -> str:
        """Write the trace file; returns the path."""
        from repro.config import canonical_config_dict
        seg_names = list(layout.segments)
        seg_index = {name: i for i, name in enumerate(seg_names)}
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "app": app.name,
            "protocol": protocol,
            "num_procs": sync.num_procs,
            "volatile_segments": list(app.volatile_segments),
            "segments": [[name, layout.segments[name].nwords]
                         for name in seg_names],
            "locks": [[lv.name, lv.group] for lv in sync.locks],
            "barriers": [bv.name for bv in sync.barriers],
            "config": canonical_config_dict(config),
            "baseline": baseline or {},
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for proc, op in self.events:
                fh.write(json.dumps(_event_doc(proc, op, seg_index)) + "\n")
        return self.path


def _event_doc(proc: int, op: Tuple,
               seg_index: Dict[str, int]) -> Dict[str, Any]:
    kind = op[0]
    doc: Dict[str, Any] = {"p": proc, "op": kind}
    if kind == "cmp":
        doc["c"] = op[1]
    elif kind in ("acq", "rel", "ntc"):
        doc["l"] = op[1]
    elif kind == "bar":
        doc["b"] = op[1]
    elif kind == "rd":
        doc["s"] = seg_index[op[1]]
        doc["i"] = op[2]
        doc["n"] = op[3]
    elif kind == "wr":
        doc["s"] = seg_index[op[1]]
        doc["i"] = op[2]
        doc["v"] = list(op[3])
    else:  # pragma: no cover - recorder only emits the kinds above
        raise ValueError(f"unknown op {op!r}")
    return doc


def _event_op(doc: Dict[str, Any]) -> Tuple:
    kind = doc["op"]
    if kind == "cmp":
        return ("cmp", float(doc["c"]))
    if kind in ("acq", "rel", "ntc"):
        return (kind, int(doc["l"]))
    if kind == "bar":
        return ("bar", int(doc["b"]))
    if kind == "rd":
        return ("rd", int(doc["s"]), int(doc["i"]), int(doc["n"]))
    if kind == "wr":
        return ("wr", int(doc["s"]), int(doc["i"]),
                tuple(float(v) for v in doc["v"]))
    raise ValueError(f"unknown trace op {kind!r}")


class TraceApp(Application):
    """A recorded run replayed as a standalone application."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if header.get("format") != TRACE_FORMAT:
                raise ValueError(f"{path} is not a {TRACE_FORMAT} file")
            if header.get("version") != TRACE_VERSION:
                raise ValueError(
                    f"{path}: unsupported trace version "
                    f"{header.get('version')!r}")
            self.header = header
            self.num_procs = int(header["num_procs"])
            self._ops: List[List[Tuple]] = [[] for _ in
                                            range(self.num_procs)]
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                self._ops[int(doc["p"])].append(_event_op(doc))
        self.name = f"trace[{header['app']}]"
        self.volatile_segments = tuple(header.get("volatile_segments", ()))

    @property
    def recorded_protocol(self) -> str:
        return self.header["protocol"]

    @property
    def baseline(self) -> Dict[str, Any]:
        """Sim-side numbers of the recorded run (for replay verification)."""
        return dict(self.header.get("baseline", {}))

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "path": self.path,
                "recorded_protocol": self.recorded_protocol,
                "events": sum(len(ops) for ops in self._ops)}

    def declare(self, layout: Layout, sync: SyncRegistry) -> None:
        self.segments = [layout.allocate(name, nwords)
                         for name, nwords in self.header["segments"]]
        for name, group in self.header["locks"]:
            sync.new_lock(name, group)
        for name in self.header["barriers"]:
            sync.new_barrier(name)

    def program(self, ctx: AppContext) -> Generator:
        if ctx.nprocs != self.num_procs:
            raise ValueError(
                f"trace was recorded on {self.num_procs} procs but the "
                f"machine has {ctx.nprocs}; set machine.num_procs to match")
        from repro.fuzz.generator import interpret
        checksum = yield from interpret(ctx, self._ops[ctx.proc],
                                        self.segments)
        return checksum

    def check(self, results: List[Any]) -> None:
        """Replay has no semantic oracle of its own; sim-side bit-identity
        (and, when enabled, the HB checker) is the correctness contract."""
