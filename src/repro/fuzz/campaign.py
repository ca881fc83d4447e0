"""Fuzzing campaign driver: seeds x protocols x fault plans, certified.

A campaign certifies generated workloads with the consistency checker
armed through :func:`repro.check.oracle.certify`, one sweep for the whole
grid (so cells are disk-cached, multiprocessing-parallel, and
content-addressed by their full config — every (spec, protocol,
fault-seed) is a distinct cache cell): the happens-before checker's report
must be clean, every processor's checksum must equal the analytic
expectation, and the final memory image must be word-identical to the
same workload's fault-free SC oracle image.

Failures are minimized inline by :mod:`repro.fuzz.shrink` and can be filed
directly into a corpus directory as JSON reproducers (see
``tests/corpus/``), turning every campaign catch into a regression test
that :func:`replay_corpus_entry` runs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.oracle import certify
from repro.faults.plan import NO_FAULTS, resolve_plan
from repro.fuzz.broken import BROKEN_PROTOCOL
from repro.fuzz.generator import (WorkloadSpec, generate_spec, spec_from_dict,
                                  spec_to_dict)
from repro.fuzz.shrink import shrink_spec, spec_cell

@dataclass
class CampaignCell:
    """Verdict for one (seed, protocol, plan) cell."""

    seed: int
    protocol: str
    plan: str
    key: str
    #: None = healthy; otherwise a short failure signature
    failure: Optional[str] = None
    execution_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "protocol": self.protocol,
                "plan": self.plan, "key": self.key, "ok": self.ok,
                "failure": self.failure,
                "execution_time": self.execution_time}


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` call."""

    scale: str
    protocols: Tuple[str, ...]
    plans: Tuple[str, ...]
    seeds: Tuple[int, ...]
    cells: List[CampaignCell] = field(default_factory=list)
    #: minimized reproducers (corpus documents) for every distinct failure
    reproducers: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0

    @property
    def failures(self) -> List[CampaignCell]:
        return [c for c in self.cells if not c.ok]

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-fuzz-campaign",
            "version": 1,
            "scale": self.scale,
            "protocols": list(self.protocols),
            "plans": list(self.plans),
            "seeds": list(self.seeds),
            "total_cells": len(self.cells),
            "failed_cells": len(self.failures),
            "clean": self.clean,
            "executed": self.executed,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "cells": [c.to_dict() for c in self.cells],
            "reproducers": self.reproducers,
        }

    def summary(self) -> str:
        parts = [f"{len(self.seeds)} workloads",
                 f"{len(self.cells)} cells "
                 f"({','.join(self.protocols)} x {','.join(self.plans)})",
                 f"{self.executed} executed", f"{self.cached} cached",
                 f"{self.wall_seconds:.1f}s wall"]
        verdict = ("all clean" if self.clean
                   else f"{len(self.failures)} FAILED"
                        f" ({len(self.reproducers)} minimized)")
        return "campaign: " + ", ".join(parts) + " -> " + verdict


def corpus_doc(spec: WorkloadSpec, protocol: str, plan: str, scale: str,
               failure: str, shrunk_from: Optional[WorkloadSpec] = None,
               shrink_runs: int = 0) -> Dict[str, Any]:
    """A corpus JSON document: a minimized reproducer plus its provenance."""
    doc: Dict[str, Any] = {
        "format": "repro-fuzz-corpus",
        "version": 1,
        "name": f"seed{spec.seed}-{protocol}-{plan}",
        "found": {"protocol": protocol, "plan": plan, "scale": scale,
                  "failure": failure},
        "spec": spec_to_dict(spec),
    }
    if shrunk_from is not None:
        doc["shrunk_from"] = {"spec": spec_to_dict(shrunk_from),
                              "shrink_runs": shrink_runs}
    return doc


@dataclass
class CorpusRun:
    """One protocol's replay of a corpus entry."""

    protocol: str
    #: ``spec_failure`` signature; None = healthy
    failure: Optional[str]
    #: the protocol is the deliberately broken ground truth
    must_fail: bool

    @property
    def ok(self) -> bool:
        return (self.failure is not None) == self.must_fail


def replay_corpus_entry(doc: Dict[str, Any],
                        protocols: Sequence[str] = ("aec", "tmk")
                        ) -> List[CorpusRun]:
    """Replay a corpus entry under the fault plan it was found with.

    It runs on ``protocols`` and on the protocol it was found on.  Every
    run must be healthy — a filed bug stays fixed — except on
    ``aec-broken``, which must keep failing (else the checker lost
    detection power).
    """
    spec = spec_from_dict(doc.get("spec", doc))
    found = doc.get("found", {})
    plan = resolve_plan(found.get("plan"))
    runs = list(protocols)
    if found.get("protocol") and found["protocol"] not in runs:
        runs.append(found["protocol"])
    verdicts, _sweep = certify([spec_cell(spec, p, plan) for p in runs])
    return [CorpusRun(p, v.failure, p == BROKEN_PROTOCOL)
            for p, v in zip(runs, verdicts)]


def run_campaign(seeds: Sequence[int],
                 protocols: Sequence[str] = ("aec", "tmk"),
                 plans: Sequence[str] = (NO_FAULTS, "lossy-1pct",
                                        "crash-one-node"),
                 scale: str = "test",
                 jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 shrink: bool = True,
                 max_shrink_runs: int = 300,
                 corpus_dir: Optional[str] = None,
                 progress=None) -> CampaignReport:
    """Certify ``seeds x protocols x plans`` in one
    :func:`~repro.check.oracle.certify` sweep.

    Per seed, one fault-free SC cell provides the oracle image; all cells
    go through the sweep cache, so re-running a campaign (or widening it
    with more seeds) only executes new cells.  With
    ``shrink=True`` every failing cell's spec is minimized inline; with
    ``corpus_dir`` the minimized reproducers are also written there as
    JSON corpus documents.
    """
    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    plan_objs = {name: resolve_plan(name) for name in plans}
    specs = {int(seed): generate_spec(int(seed), scale) for seed in seeds}
    grid = [(seed, protocol, plan_name) for seed in specs
            for protocol in protocols for plan_name in plans]
    verdicts, sweep = certify(
        [spec_cell(specs[seed], protocol, plan_objs[plan_name])
         for seed, protocol, plan_name in grid],
        scale=scale, jobs=jobs, cache_dir=cache_dir, progress=progress)

    report = CampaignReport(scale=scale, protocols=tuple(protocols),
                            plans=tuple(plans),
                            seeds=tuple(sorted(specs)),
                            executed=sweep.executed,
                            cached=sweep.hits_disk,
                            wall_seconds=sweep.wall_seconds)
    for (seed, protocol, plan_name), verdict in zip(grid, verdicts):
        result = verdict.result
        report.cells.append(CampaignCell(
            seed=seed, protocol=protocol, plan=plan_name,
            key=verdict.cell.key, failure=verdict.failure,
            execution_time=result.execution_time if result else 0.0))

    if shrink and report.failures:
        # one minimized reproducer per distinct (seed, protocol, plan)
        for cell in report.failures:
            say(f"shrinking seed {cell.seed} under {cell.protocol}"
                f"/{cell.plan}: {cell.failure}")
            # the shrinker certifies the same cell, so it fails there too
            res = shrink_spec(specs[cell.seed], cell.protocol,
                              faults=plan_objs[cell.plan],
                              max_runs=max_shrink_runs)
            say("  " + res.summary())
            report.reproducers.append(corpus_doc(
                res.minimal, cell.protocol, cell.plan, scale,
                res.minimal_failure, shrunk_from=specs[cell.seed],
                shrink_runs=res.runs))

    if corpus_dir and report.reproducers:
        os.makedirs(corpus_dir, exist_ok=True)
        for doc in report.reproducers:
            path = os.path.join(corpus_dir, doc["name"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            say(f"wrote {path}")

    return report
