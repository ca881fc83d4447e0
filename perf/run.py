"""Host-performance benchmark of the simulator: end-to-end and per layer.

One run of one workload (the form ``BENCHMARK.json`` declares)::

    python3 perf/run.py --workload aec-lock --seed 42 --seconds 20 --trace 0

starts a few set-up probes and then one measuring process (``worker.py``),
one process at a time, and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The full benchmark::

    python3 perf/run.py [--seed N] [--runs R] [--seconds S] [--out FILE]

runs every workload ``R`` times untraced, rotating the workload order every
round, then once traced, prints every metric by name with its unit, and
exits with status 1 if the simulated numbers differ between runs.
``--smoke`` makes it one short round per workload.  Two saved outputs are
compared with::

    python3 perf/run.py --compare PARENT.json CHANGE.json

See README.md for the metrics, the workloads and how to read a comparison.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import LAYERS
from worker import EXIT_NONDETERMINISTIC, WORKLOADS, use_source_tree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: set-up probes per run: each is a fresh process that stops after set-up
PROBES = 9
#: a single-workload run must end within 180 s: children still running
#: this long after it started are killed and the run fails
DEADLINE_S = 170.0
#: simulated numbers: identical in every run of one seed
EXACT = ("sim_cycles", "sim_msgs", "sim_bytes")
#: one thread per process: no BLAS or OpenMP pools
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """A child process failed; no result can be reported."""

    def __init__(self, message: str, status: int = 2) -> None:
        super().__init__(message)
        self.status = status


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, seconds: float, *, trace: bool = False,
          probe: bool = False, smoke: bool = False,
          deadline: float) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh process and parse its JSON line."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(seconds),
           "--spawned", repr(time.monotonic())]
    cmd += [flag for flag, on in (("--trace", trace), ("--probe", probe),
                                  ("--smoke", smoke)) if on]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **SINGLE_THREAD},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out") from exc
    if proc.returncode != 0:
        status = 1 if proc.returncode == EXIT_NONDETERMINISTIC else 2
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n"
                         + proc.stderr.strip(), status)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_of(rows: Sequence[Dict[str, Any]], key: str) -> float:
    return median(r[key] for r in rows)


def measure_run(workload: str, seed: int, seconds: float, trace: bool,
                smoke: bool = False) -> Dict[str, Any]:
    """One run: set-up probes, then the measuring process.  Returns every
    metric this run measures (end-to-end untraced, per-layer traced).
    Host times come from the worker already rescaled to nominal host
    speed (see README.md)."""
    deadline = time.monotonic() + DEADLINE_S
    probes = [spawn(workload, seed, seconds, probe=True, smoke=smoke,
                    deadline=deadline)
              for _ in range(1 if smoke else PROBES)]
    child = spawn(workload, seed, seconds, trace=trace, smoke=smoke,
                  deadline=deadline)
    starts = probes + [child]
    plain = [r for r in child["rounds"] if not r["traced"]]
    metrics: Dict[str, float] = {}
    if trace:
        traced = [r for r in child["rounds"] if r["traced"]]
        c = child["counters"]
        metrics.update({
            "trace.overhead": (_median_of(traced, "wall_s")
                               / _median_of(plain, "wall_s")),
            "trace.total_s": median(r["layers"]["@total"]["self_s"]
                                    for r in traced),
            "host.slowdown": median(r["raw_wall_s"] / r["wall_s"]
                                    for r in plain),
            "harness.import_s": _median_of(starts, "import_s"),
            "harness.cell_setup_s": _median_of(plain, "setup_s"),
            "harness.finalize_s": _median_of(plain, "finalize_s"),
            "engine.events": c["events"],
            "engine.events_per_s": c["events"] / _median_of(plain, "sim_s"),
            "sync.lock_acquires": c["lock_acquires"],
            "sync.barriers": c["barriers"],
            "core.lap.scored": c["lap_scored"],
            "core.lap.hit_rate": (c["lap_hits"] / c["lap_scored"]
                                  if c["lap_scored"] else 0.0),
            "memory.diffs_created": c["diffs_created"],
            "memory.diffs_applied": c["diffs_applied"],
            "memory.diffs_wasted": c["diffs_wasted"],
            "memory.diff_bytes": c["diff_bytes"],
            "protocols.transport.retries": c["retries"],
            "protocols.transport.timeouts": c["timeouts"],
            "faults.injected": c["faults_injected"],
            "check.violations": c["violations"],
            "recovery.crashes": c["crashes"],
        })
        rows = [r["layers"] for r in traced]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = median(
                r[layer]["self_s"] for r in rows)
            metrics[f"{layer}.share"] = median(
                r[layer]["self_s"] / r["@total"]["self_s"] for r in rows)
            metrics[f"{layer}.calls"] = median(r[layer]["calls"] for r in rows)
    else:
        cycles, msgs, nbytes, _events = child["sim"]
        metrics.update({
            # per-cell medians, summed: a burst of host noise in one cell
            # of a round does not move the whole round
            "run_s": sum(median(r["cell_s"][name] for r in plain)
                         for name in plain[0]["cell_s"]),
            "setup_s": (_median_of(starts, "startup_s")
                        + _median_of(plain, "setup_s")),
            "peak_rss_mb": child["peak_rss_bytes"] / 2 ** 20,
            "sim_cycles": cycles,
            "sim_msgs": msgs,
            "sim_bytes": nbytes,
        })
    return {"correct": child["failed"] == 0, "attempted": child["attempted"],
            "failed": child["failed"], "failures": child["failures"],
            "rounds": len(child["rounds"]), "values": metrics}


def result_line(run: Dict[str, Any], specs: List[Dict[str, Any]]) -> str:
    """The run's JSON result line: every declared metric with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in run["values"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {s["name"]: {"value": run["values"][s["name"]],
                                "unit": s["unit"]} for s in specs}})


# ------------------------------------------------------------ statistics

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """Compare one metric's runs on two commits: (verdict, win fraction).

    better: at least 10 paired runs, the change wins at least 9 in 10 of
    them (ties count for neither) and the medians differ by more than the
    parent's quartile spread.  unresolved: either side's quartile spread,
    as a share of its median, exceeds the bound, unless every change run
    beats every parent run.  worse: the change's median is worse than the
    parent's by more than the bound.  unchanged: none of these.
    """
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    beats_all = (max(change) < min(parent) if lower_is_better
                 else min(change) > max(parent))
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    worse_by = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    if (len(pairs) >= 10 and win_frac >= 0.9
            and sign * (pm - cm) > p3 - p1):
        return "better", win_frac
    if spread > bound and not beats_all:
        return "unresolved", win_frac
    if worse_by > bound:
        return "worse", win_frac
    return "unchanged", win_frac


# --------------------------------------------------------------- reports

def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(doc: Dict[str, Any], bench: Dict[str, Any]) -> None:
    """Every metric by name with its unit: medians over the untraced runs
    with quartiles and run count, then the traced run's layer metrics."""
    for workload, data in doc["workloads"].items():
        runs = data["runs"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, {failed}/{attempted} "
              f"cells failed (failed_frac {failed / attempted:.4g})")
        for spec in bench["end_to_end"]:
            q1, q2, q3 = quartiles([r["values"][spec["name"]] for r in runs])
            print(f"  {spec['name']:<22} {_fmt(q2):>14} {spec['unit']:<7} "
                  f"[q1 {_fmt(q1)}, q3 {_fmt(q3)}, n={len(runs)}]")
        trace = data["trace"]
        print(f"  -- traced run ({trace['rounds']} rounds)")
        for spec in bench["per_layer"]:
            print(f"  {spec['name']:<34} "
                  f"{_fmt(trace['values'][spec['name']]):>14} {spec['unit']}")
        for failure in sorted({f for r in runs + [trace]
                               for f in r["failures"]}):
            print(f"  FAILED {failure}")


def print_comparison(parent: Dict[str, Any], change: Dict[str, Any],
                     bench: Dict[str, Any]) -> int:
    """Per workload and end-to-end metric: both sides' quartiles, the pair
    win fraction and a verdict; then per-layer self time and call deltas.
    Returns 1 if any verdict is ``worse``."""
    status = 0
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            print(f"\n== {workload}: missing from the change; skipped")
            continue
        p_runs = parent["workloads"][workload]["runs"]
        c_runs = change["workloads"][workload]["runs"]
        print(f"\n== {workload}: parent n={len(p_runs)}, "
              f"change n={len(c_runs)}")
        print(f"  {'metric':<14} {'parent median [q1, q3]':>34}  "
              f"{'change median [q1, q3]':>34}  {'wins':>5}  verdict")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [r["values"][name] for r in p_runs]
            c = [r["values"][name] for r in c_runs]
            word, wins = verdict(p, c, spec["bound"],
                                 spec["better"] == "lower")
            status = max(status, int(word == "worse"))
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:<14} {_fmt(pq[1]):>14} [{_fmt(pq[0])}, "
                  f"{_fmt(pq[2])}]  {_fmt(cq[1]):>14} [{_fmt(cq[0])}, "
                  f"{_fmt(cq[2])}]  {wins:5.2f}  {word} "
                  f"(bound {spec['bound'] * 100:g}%) {spec['unit']}")
        pt = parent["workloads"][workload]["trace"]["values"]
        ct = change["workloads"][workload]["trace"]["values"]
        print(f"  {'layer':<22} {'self_s parent':>13} {'change':>10} "
              f"{'delta':>8}  {'calls parent':>12} {'change':>10} "
              f"{'delta':>9}")
        for layer in LAYERS:
            ps, cs = pt[f"{layer}.self_s"], ct[f"{layer}.self_s"]
            pc, cc = pt[f"{layer}.calls"], ct[f"{layer}.calls"]
            rel = f"{(cs - ps) / ps:+8.1%}" if ps else f"{'n/a':>8}"
            print(f"  {layer:<22} {ps:13.4f} {cs:10.4f} {rel}  "
                  f"{_fmt(pc):>12} {_fmt(cc):>10} {_fmt(cc - pc):>9}")
    return status


# ------------------------------------------------------------------ main

def run_suite(seed: int, runs: int, seconds: float, smoke: bool
              ) -> Dict[str, Any]:
    """Every workload ``runs`` times (order rotated each round), then one
    traced run each.  Raises BenchError on differing simulated numbers."""
    results: Dict[str, Dict[str, Any]] = {w: {"runs": []} for w in WORKLOADS}
    for rnd in range(runs):
        order = WORKLOADS[rnd % len(WORKLOADS):] + \
            WORKLOADS[:rnd % len(WORKLOADS)]
        for workload in order:
            print(f"run {rnd + 1}/{runs}: {workload}", file=sys.stderr,
                  flush=True)
            results[workload]["runs"].append(
                measure_run(workload, seed, seconds, False, smoke))
    for workload in WORKLOADS:
        print(f"traced run: {workload}", file=sys.stderr, flush=True)
        results[workload]["trace"] = measure_run(workload, seed, seconds,
                                                 True, smoke)
    for workload, data in results.items():
        for name in EXACT:
            seen = {r["values"][name] for r in data["runs"]}
            if len(seen) > 1:
                raise BenchError(f"{workload}: {name} differs between runs "
                                 f"of seed {seed}: {sorted(seen)}", 1)
    use_source_tree()
    from repro.obs.host import host_metadata
    return {"format": "repro-perf", "version": 1, "seed": seed,
            "runs": runs, "seconds": seconds, "smoke": smoke,
            "host": host_metadata(), "workloads": results}


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(
        description="Host-performance benchmark of the simulator.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one run of one workload (prints the result "
                             "line)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", help="write the full benchmark's runs here")
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload, apps at test scale, "
                             "3 fuzz specs")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        return print_comparison(docs[0], docs[1], bench)
    if args.runs < 1 or args.seconds < 0:
        parser.error("--runs must be >= 1 and --seconds >= 0")
    try:
        if args.workload:
            run = measure_run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
            specs = bench["per_layer" if args.trace else "end_to_end"]
            line = result_line(run, specs)
            print(f"{args.workload} seed {args.seed}: {run['rounds']} rounds,"
                  f" {run['failed']}/{run['attempted']} cells failed")
            for failure in run["failures"]:
                print(f"  FAILED {failure}")
            for spec in specs:
                print(f"  {spec['name']} {_fmt(run['values'][spec['name']])}"
                      f" {spec['unit']}")
            print(line)
            return 0
        seconds = 0.0 if args.smoke else args.seconds
        doc = run_suite(args.seed, 1 if args.smoke else args.runs, seconds,
                        args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    print_report(doc, bench)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
