"""One benchmark process: build a workload's cells, run them round after
round for a time budget, and print what was measured as one JSON line.

``run.py`` starts this file as a fresh, single-threaded child process, one
at a time.  A round runs every cell of the workload once, in an order drawn
from the seed; between cells, outside their time, the heap is collected
and the host speed probed (``probe_speed``).  Rounds repeat until the
next one would overrun the budget (at least one round; with tracing on,
untraced and cProfile-traced rounds alternate, starting untraced, and at
least one of each runs).  Every round must reproduce the first round's
simulated numbers exactly, otherwise the process exits with status 3.  A
cell that raises, fails its check, gets a non-clean checker report or
diverges from the SC image is counted as failed, and the round goes on.

Usage::

    python3 perf/worker.py WORKLOAD SEED SECONDS [--trace] [--probe]
                           [--smoke] [--spawned T]

``--probe`` stops after set-up (imports and input generation) and reports
only the set-up time; ``--smoke`` shrinks the cells (see ``build_cells``);
``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time includes interpreter start.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import pstats
import random
import sys
import time
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: app workloads: name -> (protocol, bench-scale apps run once per round)
APP_WORKLOADS = {
    # lock grants, LAP prediction and update-set pushes carry the time
    "aec-lock": ("aec", ("water-ns", "raytrace")),
    # the same AEC code through barrier reconciliation and page fetches
    "aec-barrier": ("aec", ("ocean", "fft", "is", "water-sp")),
    # the paper's competitor: no AEC or LAP code runs
    "tmk": ("tmk", ("is", "raytrace", "water-ns", "fft", "ocean",
                    "water-sp")),
}
WORKLOADS = (*APP_WORKLOADS, "certify")

#: generated workloads certified by ``certify``; every one of them is clean
#: under every plan below (see README.md for seeds known to fail)
CERTIFY_SPECS = range(42, 92)
SMOKE_SPECS = 3
FAULT_PLANS = ("none", "lossy-1pct", "crash-one-node")
#: clean certify cells peak below 7k events; a livelock stops here
CERTIFY_MAX_EVENTS = 100_000

EXIT_NONDETERMINISTIC = 3

#: the host speed at which reported times are stated: a host on which
#: ``reference_work`` takes this long (about the sizing host, when quiet)
REF_NOMINAL_S = 0.003
#: the speed probe after a cell lasts this share of the cell's time, so a
#: long cell is rescaled by the speed averaged over a long window
PROBE_SHARE = 0.05
#: a contended host slows the simulator less than the reference work:
#: regressing log cell time on log probe time gave slopes of 0.62-0.85
#: over 12 cell types (see README.md), so times are rescaled by the probe
#: ratio to this power
SPEED_EXPONENT = 0.8


class _Slot:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def reference_work() -> float:
    """Wall seconds of a fixed piece of pure-Python work: heap pushes and
    pops, dict updates and method calls, the operations the simulator's
    event loop is made of.  It is part of the benchmark, not of the
    program, so no change to the program moves it; the ratio of its time
    to ``REF_NOMINAL_S`` is how much slower than nominal the shared host
    currently runs."""
    t0 = perf_counter()
    slots = [_Slot() for _ in range(16)]
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    acc = 0
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = (i * 31) % 509
        table[key] = table.get(key, 0) + 1
        acc ^= slots[i & 15].bump(key)
        if len(heap) > 64:
            when, j = heapq.heappop(heap)
            acc ^= when + j
    return perf_counter() - t0


def probe_speed(seconds: float) -> float:
    """Mean time of ``reference_work`` over at least ``seconds`` of it
    (at least one run): the host speed averaged over that window."""
    total = 0.0
    runs = 0
    while runs == 0 or total < seconds:
        total += reference_work()
        runs += 1
    return total / runs


def nominal_scale(probe_s: float) -> float:
    """Factor that takes a time measured while ``reference_work`` took
    ``probe_s`` to the nominal host speed."""
    return (REF_NOMINAL_S / probe_s) ** SPEED_EXPONENT


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass(frozen=True)
class Cell:
    """One simulation: ``run_app(make_app(app, scale), protocol)``."""

    name: str
    app: str
    scale: str
    protocol: str
    config: Any
    #: the generated workload behind an ``image:fuzz:`` app, else None
    spec: Any = None


def build_cells(workload: str, seed: int, smoke: bool = False) -> List[Cell]:
    """The cells of one round, in the order ``seed`` draws.  ``smoke``
    shrinks them (apps at test scale, 3 generated workloads) to check the
    benchmark's plumbing quickly."""
    from repro.config import SimConfig
    rng = random.Random(seed)
    if workload in APP_WORKLOADS:
        protocol, apps = APP_WORKLOADS[workload]
        order = list(apps)
        rng.shuffle(order)
        config = SimConfig(seed=seed)
        scale = "test" if smoke else "bench"
        return [Cell(f"{app}/{protocol}", app, scale, protocol, config)
                for app in order]
    if workload != "certify":
        raise ValueError(f"unknown workload {workload!r}")
    from repro.faults import get_plan
    from repro.fuzz.generator import config_for_spec, generate_spec
    specs = list(CERTIFY_SPECS[:SMOKE_SPECS] if smoke else CERTIFY_SPECS)
    rng.shuffle(specs)
    base = SimConfig(seed=seed, max_events=CERTIFY_MAX_EVENTS)
    cells = []
    for spec_seed in specs:
        spec = generate_spec(spec_seed, "test")
        config = config_for_spec(spec, base)
        app = f"image:fuzz:{spec_seed}"
        # the SC cell comes first: it provides the oracle image
        cells.append(Cell(f"fuzz:{spec_seed}/sc", app, "test", "sc", config,
                          spec))
        for protocol in ("aec", "tmk"):
            for plan in FAULT_PLANS:
                faults = None if plan == "none" else get_plan(plan)
                cells.append(Cell(
                    f"fuzz:{spec_seed}/{protocol}/{plan}", app, "test",
                    protocol, config.replace(check_consistency=True,
                                             faults=faults), spec))
    return cells


def certify(cell: Cell, result: Any, images: Dict[int, Any]) -> Optional[str]:
    """Why ``result`` is wrong, or None.  App cells were already checked
    by ``run_app``; generated-workload cells are certified the way the
    fuzz campaign does it: clean checker report, per-processor checksums,
    and a final memory image word-identical to the SC cell's."""
    if cell.spec is None:
        return None
    import numpy as np

    from repro.fuzz.generator import GeneratedApp
    report = result.check_report
    if report is not None and not report.clean:
        return "checker: " + ",".join(sorted(report.counts))
    try:
        GeneratedApp(cell.spec).check([r[0] for r in result.app_results])
    except AssertionError as exc:
        return f"checksum: {exc}"
    image = result.app_results[0][1]
    if cell.protocol == "sc":
        images[cell.spec.seed] = image
        return None
    want = images.get(cell.spec.seed)
    if want is None:
        return "no SC image to compare with"
    for name, words in want.items():
        if not np.array_equal(image[name], words):
            return f"diverges from SC in {name}"
    return None


class SimRunClock:
    """Timestamps entry to and exit from ``Simulator.run``.

    ``run_app`` builds the world before calling ``Simulator.run`` and
    finalizes it afterwards; these two stamps split a cell's wall time into
    set-up, simulation and finalization.  The method is wrapped in place,
    for the life of this process.
    """

    def __init__(self) -> None:
        from repro.engine.simulator import Simulator
        self.entered = 0.0
        self.exited = 0.0
        original = Simulator.run
        clock = self

        def run(sim):
            clock.entered = perf_counter()
            try:
                return original(sim)
            finally:
                clock.exited = perf_counter()

        Simulator.run = run


def _counters(result: Any) -> Dict[str, int]:
    lap_scored = lap_hits = 0
    if result.lap_stats is not None:
        for lock in result.lap_stats.per_lock:
            lap_scored += lock.scored
            lap_hits += lock.hits["lap"]
    diffs = result.diff_stats
    net = result.net_faults
    return {
        "events": result.events_processed,
        "lock_acquires": sum(result.lock_acquires.values()),
        "barriers": result.barrier_events,
        "lap_scored": lap_scored,
        "lap_hits": lap_hits,
        "diffs_created": diffs.diffs_created,
        "diffs_applied": diffs.diffs_applied,
        "diffs_wasted": diffs.diffs_wasted,
        "diff_bytes": diffs.diff_bytes_total,
        "retries": net.retries if net else 0,
        "timeouts": net.timeouts if net else 0,
        "faults_injected": (net.dropped + net.duplicated + net.jittered
                            + net.stalls) if net else 0,
        "violations": (result.check_report.total_violations
                       if result.check_report is not None else 0),
        "crashes": result.recovery.crashes if result.recovery else 0,
    }


def run_round(cells: List[Cell], clock: SimRunClock,
              profile: Optional[cProfile.Profile] = None) -> Dict[str, Any]:
    """Run every cell once: the cells' times at nominal host speed, and the
    round's simulated numbers.

    After each cell the heap is collected and the host speed probed, both
    outside the cell's time: every cell starts from a collected heap, so
    its time and the process's peak memory do not depend on which cells
    ran before it.  Each cell's times are rescaled to nominal host speed
    from the mean of the probes just before and after it (``raw_wall_s``
    keeps the unscaled sum).  ``profile``, if given, runs during the cells
    only.
    """
    from repro.apps.registry import make_app
    from repro.harness.runner import run_app
    images: Dict[int, Any] = {}
    raw = setup = simulate = finalize = 0.0
    probe = probe_speed(0.05)
    cell_s: Dict[str, float] = {}
    sims: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    failures: List[str] = []
    for cell in cells:
        clock.entered = clock.exited = 0.0
        if profile is not None:
            profile.enable()
        t0 = perf_counter()
        try:
            app = make_app(cell.app, cell.scale, config=cell.config)
            result = run_app(app, cell.protocol, config=cell.config,
                             check=cell.spec is None)
            t1 = perf_counter()
            problem = certify(cell, result, images)
        except Exception as exc:  # a failed cell is counted; the round goes on
            t1 = perf_counter()
            result = None
            problem = f"{type(exc).__name__}: {exc}"
        t2 = perf_counter()
        if profile is not None:
            profile.disable()
        if problem is not None:
            failures.append(f"{cell.name}: {problem}")
        if result is not None:
            sims[cell.name] = [result.execution_time, result.messages_total,
                               result.network_bytes, result.events_processed]
            for key, value in _counters(result).items():
                counters[key] = counters.get(key, 0) + value
        del result
        gc.collect()
        before, probe = probe, probe_speed(PROBE_SHARE * (t2 - t0))
        scale = nominal_scale((before + probe) / 2)
        raw += t2 - t0
        cell_s[cell.name] = (t2 - t0) * scale
        if clock.entered:
            setup += (clock.entered - t0) * scale
            simulate += (clock.exited - clock.entered) * scale
            finalize += (t1 - clock.exited) * scale
    return {"wall_s": sum(cell_s.values()), "raw_wall_s": raw,
            "cell_s": cell_s, "setup_s": setup, "sim_s": simulate,
            "finalize_s": finalize, "sims": sims, "counters": counters,
            "failures": failures}


def measure(cells: List[Cell], seconds: float, trace: bool
            ) -> List[Dict[str, Any]]:
    """Rounds until the budget is spent; see the module docstring."""
    from layers import LayerMap, rollup
    clock = SimRunClock()
    layer_map = LayerMap() if trace else None
    # set-up objects (modules, inputs) live for the whole process: keep
    # them out of the collections between cells, which then cost ~0.2 ms
    gc.collect()
    gc.freeze()
    start = perf_counter()
    rounds: List[Dict[str, Any]] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = perf_counter()
        if traced:
            profile = cProfile.Profile()
            row = run_round(cells, clock, profile)
            scale = row["wall_s"] / row["raw_wall_s"]
            row["layers"] = {
                layer: {"self_s": v["self_s"] * scale, "calls": v["calls"]}
                for layer, v in rollup(pstats.Stats(profile),
                                       layer_map).items()}
        else:
            row = run_round(cells, clock)
        row["elapsed_s"] = perf_counter() - t0
        row["traced"] = traced
        if rounds and (row["sims"] != rounds[0]["sims"]
                       or row["counters"] != rounds[0]["counters"]):
            print(f"nondeterministic: round {len(rounds)} "
                  f"({'traced' if traced else 'untraced'}) differs from "
                  f"round 0 in its simulated numbers", file=sys.stderr)
            sys.exit(EXIT_NONDETERMINISTIC)
        rounds.append(row)
        if len(rounds) < (2 if trace else 1):
            continue
        nxt = trace and len(rounds) % 2 == 1
        same = [r["elapsed_s"] for r in rounds if r["traced"] == nxt]
        if perf_counter() - start + median(same) > seconds:
            return rounds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)

    use_source_tree()
    t0 = perf_counter()
    import repro.apps.registry  # noqa: F401
    import repro.fuzz.generator  # noqa: F401
    import repro.harness.runner  # noqa: F401
    from repro.obs.host import peak_rss_bytes
    import_s = perf_counter() - t0
    cells = build_cells(args.workload, args.seed, args.smoke)
    spawned = args.spawned if args.spawned is not None else time.monotonic()
    startup_s = time.monotonic() - spawned
    gc.collect()
    scale = nominal_scale(median(reference_work() for _ in range(5)))
    out: Dict[str, Any] = {"import_s": import_s * scale,
                           "startup_s": startup_s * scale}
    if not args.probe:
        rounds = measure(cells, args.seconds, args.trace)
        out.update(
            attempted=len(cells) * len(rounds),
            failed=sum(len(r["failures"]) for r in rounds),
            failures=sorted({f for r in rounds for f in r["failures"]})[:20],
            sim=[sum(v[i] for v in rounds[0]["sims"].values())
                 for i in range(4)],
            counters=rounds[0]["counters"],
            peak_rss_bytes=peak_rss_bytes(),
            rounds=[{k: v for k, v in r.items()
                     if k not in ("sims", "counters", "failures")}
                    for r in rounds])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
