"""Command-line interface: run single simulations or whole experiments.

Examples::

    repro run --app is --protocol aec --scale test
    repro explain --app is --protocol aec --trace-out /tmp/is.json
    repro run --app is --protocol aec --check-consistency
    repro run --app fuzz:17 --protocol aec --check-consistency
    repro check is water-ns --protocols aec tmk --json report.json
    repro compare --app raytrace --scale bench
    repro trace record /tmp/is.trace.jsonl --app is --protocol aec
    repro trace replay /tmp/is.trace.jsonl --verify
    repro fuzz run --seeds 25 --jobs 4 --json campaign.json
    repro fuzz replay 17 --protocol aec
    repro fuzz shrink tests/corpus/entry.json --protocol aec-broken
    repro fuzz corpus tests/corpus
    repro experiment table3 --scale test
    repro experiment all --scale bench
    repro sweep --scale test --jobs 4 --cache-dir .repro-cache
    repro cache inspect --cache-dir .repro-cache
    repro cache clear --cache-dir .repro-cache
    repro run --app ocean --protocol aec --faults lossy-1pct -v
    repro check ocean --protocols aec tmk --faults lossy-1pct
    repro faults list
    repro faults explain jitter
    repro run --app is --protocol aec --faults dup-heavy --check-consistency
    repro explain --app is --faults lossy-1pct --folded /tmp/is.folded
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.registry import APP_NAMES, SCALES, make_app
from repro.config import SimConfig
from repro.faults import BUILTIN_PLANS, NO_FAULTS, get_plan, resolve_plan
from repro.fuzz.generator import (config_for_spec, generate_spec, load_spec,
                                  spec_from_dict)
from repro.harness import experiments as ex
from repro.harness import sweep as sw
from repro.harness.runner import PROTOCOLS, run_app
from repro.obs.spans import SpanRecorder
from repro.stats.run_result import RunResult


class UsageError(Exception):
    """Bad input on the command line: :func:`main` prints it, exits 2."""


def _make_config(app_id: str, args, **overrides) -> SimConfig:
    """The SimConfig for running ``app_id`` under the parsed ``args``
    (whichever shared options the subcommand took; ``overrides`` win).
    Generated and recorded workloads also fix the machine size."""
    kwargs: Dict[str, Any] = {}
    for name in ("update_set_size", "check_consistency"):
        if getattr(args, name, None) is not None:
            kwargs[name] = getattr(args, name)
    kwargs["faults"] = resolve_plan(getattr(args, "faults", None))
    kwargs.update(overrides)
    config = SimConfig(**kwargs)
    prefix, _, rest = app_id.partition(":")
    if prefix == "fuzz" and rest:
        return config_for_spec(load_spec(rest, args.scale), config)
    if prefix == "trace" and rest:
        from repro.fuzz.trace import TraceApp
        return config.replace(machine=dataclasses.replace(
            config.machine, num_procs=TraceApp(rest).num_procs))
    return config


def _resolve_app(app_id: str, args, **overrides):
    """``(app, config)`` for running ``app_id``; an unknown id or an
    unreadable spec/trace file is a :class:`UsageError`."""
    try:
        config = _make_config(app_id, args, **overrides)
        return make_app(app_id, args.scale, config=config), config
    except (ValueError, OSError) as exc:
        raise UsageError(exc) from None


def _run(args, protocol: str, spans: Optional[SpanRecorder] = None,
         record_trace: Optional[str] = None) -> RunResult:
    """Run ``args.app`` under ``protocol``, observed by ``spans`` and
    ``record_trace`` (see :func:`run_app`)."""
    app, config = _resolve_app(args.app, args)
    return run_app(app, protocol, config=config, spans=spans,
                   record_trace=record_trace)


def _fault_plan_arg(spec: str) -> str:
    """argparse type for --faults: validates NAME, NAME@SEED or none."""
    try:
        resolve_plan(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def _to_stderr(msg: str) -> None:
    print(msg, file=sys.stderr)


def _report(result: RunResult, args) -> int:
    """Print a run's summary lines; exit code 1 on checker violations
    (``-v`` lists every violation, not just the first ten)."""
    print(result.summary())
    for stats in (result.net_faults, result.recovery):
        if stats is not None:
            print(f"  {stats.summary()}")
    if not args.check_consistency:
        return 0
    rep = result.check_report
    print(f"  {rep.summary()}")
    shown = rep.violations if args.verbose else rep.violations[:10]
    for v in shown:
        print(f"    {v.describe()}")
    if len(rep.violations) > len(shown):
        print(f"    ... {len(rep.violations) - len(shown)} more "
              f"(rerun with -v)")
    return 0 if rep.clean else 1


def _cmd_run(args) -> int:
    result = _run(args, args.protocol)
    rc = _report(result, args)
    if args.verbose:
        mhz = result.clock_hz / 1e6
        print(f"  execution time : {result.execution_time:,.0f} cycles "
              f"({result.simulated_seconds:.2f} s at {mhz:.0f} MHz)")
        print(f"  messages       : {result.messages_total:,} "
              f"({result.network_bytes:,} bytes)")
        print(f"  faults         : {result.fault_stats.total_faults:,} "
              f"(cold {result.fault_stats.cold_faults:,})")
        d = result.diff_stats
        print(f"  diffs          : {d.diffs_created:,} created "
              f"(avg {d.avg_diff_bytes:.0f} B), {d.diffs_applied:,} applied, "
              f"{100 * d.hidden_create_fraction:.1f}% creation hidden")
        print(f"  simulated evts : {result.events_processed:,} "
              f"in {result.wall_seconds:.1f}s wall")
    return rc


def _cmd_check(args) -> int:
    """Certify apps: in-run HB sanitizer, the app's own check and the
    cross-protocol memory oracle."""
    from repro.check.oracle import certify

    # resolve every id before running any: a bad one exits 2 up front
    configs = [(app_id, _resolve_app(app_id, args,
                                     check_consistency=True)[1])
               for app_id in args.apps or APP_NAMES]
    cells = [(app_id, protocol, config) for app_id, config in configs
             for protocol in args.protocols]
    verdicts, _sweep = certify(cells, scale=args.scale)
    doc = {"scale": args.scale, "runs": []}
    failed = 0
    for (app_id, protocol, _config), (_cell, result, div, failure) in zip(
            cells, verdicts):
        failed += failure is not None
        if div is None:  # a run raised: "error: <exception>"
            error = failure.split(": ", 1)[1]
            doc["runs"].append({"app": app_id, "protocol": protocol,
                                "error": error})
            print(f"FAIL {app_id:<10} {protocol:<9} {error}")
            continue
        rep = result.check_report
        doc["runs"].append({"app": app_id, "protocol": protocol,
                            "failure": failure, "check": rep.to_dict(),
                            "divergence": div.to_dict()})
        print(f"{'ok  ' if failure is None else 'FAIL'} {app_id:<10} "
              f"{protocol:<9} {rep.summary()}")
        if not rep.clean:
            for v in (rep.violations if args.verbose
                      else rep.violations[:10]):
                print(f"       {v.describe()}")
        if failure is not None and failure.startswith("appcheck:"):
            print(f"       {failure}")
        if not div.clean:
            print("       " + div.summary().replace("\n", "\n       "))
    doc["failed_runs"] = failed
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"violation report written to {args.json}")
    total = len(doc["runs"])
    print(f"checked {total} runs: {total - failed} clean, {failed} failed")
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    for protocol in args.protocols:
        print(_run(args, protocol).summary())
    return 0


def _cmd_trace_record(args) -> int:
    result = _run(args, args.protocol, record_trace=args.out)
    print(result.summary())
    print(f"app-level trace written to {args.out} "
          f"(replay with 'repro trace replay {args.out}')")
    return 0


def _cmd_trace_replay(args) -> int:
    """Re-run a recorded op stream, optionally verifying sim-side
    bit-identity against the recorded baseline."""
    from repro.config import config_from_dict
    from repro.fuzz.trace import TraceApp

    try:
        app = TraceApp(args.trace)
        config = config_from_dict(app.header["config"])
    except (OSError, ValueError) as exc:
        raise UsageError(f"{args.trace}: {exc}") from None
    protocol = args.protocol or app.recorded_protocol
    if args.verify and protocol != app.recorded_protocol:
        raise UsageError(f"--verify needs the recorded protocol "
                         f"({app.recorded_protocol!r}), not {protocol!r}")
    result = run_app(app, protocol, config=config)
    print(result.summary())
    if not args.verify:
        return 0
    # the baseline holds RunResult fields (cycles, messages, bytes, events)
    baseline = app.baseline
    mismatches = [f"  {k}: recorded {want!r}, replayed {got!r}"
                  for k, want in baseline.items()
                  if (got := getattr(result, k, None)) != want]
    if mismatches:
        _to_stderr("\n".join(["replay DIVERGED from the recorded run:",
                              *mismatches]))
        return 1
    print(f"replay verified: bit-identical to the recorded run "
          f"({', '.join(sorted(baseline))})")
    return 0


def _fuzz_target(args):
    """``(spec, protocol, plan name, plan)`` for ``fuzz replay|shrink``.
    SPEC is a seed or a spec/corpus JSON file; the command line wins over
    a corpus entry's ``found`` record."""
    try:
        try:
            spec, doc = generate_spec(int(args.spec), args.scale), {}
        except ValueError:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            spec = spec_from_dict(doc.get("spec", doc))
        found = doc.get("found", {})
        plan_name = args.faults or found.get("plan")
        plan = resolve_plan(plan_name)
    except (OSError, ValueError) as exc:
        raise UsageError(exc) from None
    return spec, args.protocol or found.get("protocol", "aec"), plan_name, plan


def _cmd_fuzz_run(args) -> int:
    from repro.fuzz.campaign import run_campaign
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    report = run_campaign(
        seeds, protocols=tuple(args.protocols),
        plans=tuple(args.plans), scale=args.scale, jobs=args.jobs,
        cache_dir=args.cache_dir, shrink=not args.no_shrink,
        max_shrink_runs=args.max_shrink_runs,
        corpus_dir=args.corpus_dir,
        progress=_to_stderr if args.verbose else None)
    print(report.summary())
    for cell in report.failures:
        print(f"  FAIL seed={cell.seed} {cell.protocol}/{cell.plan}: "
              f"{cell.failure}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"campaign report written to {args.json}")
    return 0 if report.clean else 1


def _cmd_fuzz_replay(args) -> int:
    from repro.fuzz.shrink import spec_failure
    spec, protocol, plan_name, plan = _fuzz_target(args)
    failure = spec_failure(spec, protocol, faults=plan)
    label = (f"fuzz seed {spec.seed} ({spec.num_procs}p, "
             f"{len(spec.phases)} phases) under {protocol}"
             + (f"/{plan_name}" if plan else ""))
    if failure is None:
        print(f"{label}: healthy (checker, checksums and final memory "
              f"all clean)")
        return 0
    print(f"{label}: FAILS -> {failure}")
    return 1


def _cmd_fuzz_shrink(args) -> int:
    from repro.fuzz.campaign import corpus_doc
    from repro.fuzz.shrink import shrink_spec
    spec, protocol, plan_name, plan = _fuzz_target(args)
    try:
        res = shrink_spec(spec, protocol, faults=plan,
                          max_runs=args.max_runs,
                          progress=_to_stderr if args.verbose else None)
    except ValueError as exc:
        raise UsageError(exc) from None
    print(res.summary())
    print(f"minimal: {res.minimal}")
    if args.out:
        out_doc = corpus_doc(res.minimal, protocol, plan_name or NO_FAULTS,
                             args.scale, res.minimal_failure,
                             shrunk_from=spec, shrink_runs=res.runs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"reproducer written to {args.out}")
    return 0


def _cmd_fuzz_corpus(args) -> int:
    """Replay every corpus entry as a regression test."""
    from repro.fuzz.campaign import replay_corpus_entry
    paths = sorted(glob.glob(os.path.join(args.dir, "*.json")))
    if not paths:
        raise UsageError(f"no corpus entries under {args.dir}")
    failed = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        name = doc.get("name", os.path.basename(path))
        for run in replay_corpus_entry(doc, args.protocols):
            failed += 0 if run.ok else 1
            if run.must_fail:
                note = (f"still reproduces: {run.failure}" if run.ok
                        else "reproducer LOST (no longer fails)")
            else:
                note = "clean" if run.ok else run.failure
            print(f"{'ok  ' if run.ok else 'FAIL'} {name:<28} "
                  f"{run.protocol:<10} {note}")
    total = len(paths)
    print(f"corpus: {total} entr{'y' if total == 1 else 'ies'}, "
          f"{failed} failed expectation(s)")
    return 1 if failed else 0


def _cmd_explain(args) -> int:
    """One run, every report it records: summary, metrics, attribution
    with its Figure-4 cross-check, span timeline and traffic matrix."""
    from repro.obs.export import write_chrome_trace
    from repro.tools import (attribute_result, message_matrix,
                             metrics_report, render_matrix, render_timeline,
                             spans_collapsed, write_collapsed)
    spans = SpanRecorder()
    result = _run(args, args.protocol, spans=spans)
    report = attribute_result(result, spans)
    print("\n\n".join([
        result.summary(), metrics_report(result, spans), report.render(),
        render_timeline(spans, kinds=["page.fetch", "diff.create",
                                      "lock.hold", "fault"]),
        render_matrix(message_matrix(result))]))
    if args.trace_out:
        n = write_chrome_trace(args.trace_out, spans,
                               cycle_ns=1e9 / result.clock_hz,
                               process_name=f"{result.app}/{result.protocol}")
        print(f"\nchrome trace ({n} events) written to {args.trace_out}")
    if args.folded:
        n = write_collapsed(spans_collapsed(spans.spans, result.num_procs,
                                            result.execution_time),
                            args.folded)
        print(f"\n{n} collapsed stacks (simulated cycles) written to "
              f"{args.folded}: feed to flamegraph.pl or speedscope.app")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"\nattribution written to {args.json}")
    problems = report.check()
    if problems:
        _to_stderr("\n".join(f"TOLERANCE VIOLATION: {p}" for p in problems))
    return 1 if problems else 0


def _cmd_sweep(args) -> int:
    names = args.experiments or list(ex.EXPERIMENTS)
    try:
        specs = ex.experiment_cells(names, args.scale)
    except ValueError as exc:
        raise UsageError(exc) from None
    # each flag is a first-class SimConfig field, so the rebuilt specs get
    # their own cache keys: checker-on and per-plan (name, seed, rules)
    # cells never alias plain ones.  --metrics changes no cell: its
    # aggregates are sums over the cached results.
    overrides: Dict[str, Any] = {}
    if args.check_consistency:
        overrides["check_consistency"] = True
    if args.faults:
        overrides["faults"] = resolve_plan(args.faults)
    if overrides:
        specs = [sw.RunSpec(s.app, s.scale, s.protocol,
                            s.config.replace(**overrides), s.check)
                 for s in specs]
    report = sw.run_sweep(specs, jobs=args.jobs, cache_dir=args.cache_dir,
                          progress=_to_stderr if args.verbose else None)
    print(report.summary())
    if args.metrics:
        print(report.metrics_summary())
    dirty = 0
    if args.check_consistency:
        for spec in report.specs:
            rep = getattr(report.results.get(spec.key), "check_report", None)
            if rep is not None and not rep.clean:
                dirty += 1
                _to_stderr(f"  VIOLATIONS {spec.name}: {rep.summary()}")
        if not dirty and not report.failures:
            print("all cells consistency-clean")
    return 1 if (_report_failures(report) or dirty) else 0


def _report_failures(report: sw.SweepReport) -> bool:
    """Print every failed cell of a sweep; whether there was one."""
    for spec, error in report.failures:
        print(f"  FAILED {spec.name}: {error}", file=sys.stderr)
    return bool(report.failures)


def _cmd_cache(args) -> int:
    cache = sw.DiskCache(args.cache_dir)
    if args.action == "clear":
        print(f"removed {cache.clear()} cached cells from {cache.root}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"cache at {cache.root} is empty")
        return 0
    print(f"cache at {cache.root}: {len(entries)} cells")
    current = sw.provenance()
    hdr = (f"{'key':<12} {'app':<10} {'scale':<6} {'protocol':<9} "
           f"{'procs':>5} {'seed':>5} {'|U|':>3} {'chk':>3} "
           f"{'Mcycles':>10} {'KiB':>8} {'build':<6}")
    print(hdr)
    print("-" * len(hdr))
    stale = 0
    for doc in entries:
        spec = doc.get("spec", {})
        config = spec.get("config", {})
        machine = config.get("machine", {})
        result = doc.get("result", {})
        mcy = result.get("execution_time", 0.0) / 1e6
        kib = doc.get("payload_bytes", 0) / 1024.0
        prov = doc.get("provenance")
        build = ("ok" if prov == current
                 else "?" if prov is None else "STALE")
        stale += build != "ok"
        print(f"{doc['key'][:12]:<12} {spec.get('app', '?'):<10} "
              f"{spec.get('scale', '?'):<6} {spec.get('protocol', '?'):<9} "
              f"{machine.get('num_procs', '?'):>5} "
              f"{config.get('seed', '?'):>5} "
              f"{config.get('update_set_size', '?'):>3} "
              f"{'y' if spec.get('check') else 'n':>3} "
              f"{mcy:>10.2f} {kib:>8.1f} {build:<6}")
    if stale:
        rev = current.get("git_rev") or "unknown"
        print(f"{stale} entries were not produced by this build "
              f"(repro {current.get('repro_version')} @ {rev}); "
              f"results may predate protocol changes — "
              f"use 'repro cache clear' to force re-runs")
    return 0


def _cmd_faults(args) -> int:
    """List built-in fault plans or explain one."""
    if args.action == "list":
        for name, plan in sorted(BUILTIN_PLANS.items()):
            bits = [f"{len(items)} {what}" for what, items in (
                ("rule(s)", plan.rules), ("stall(s)", plan.stalls),
                ("crash(es)", plan.crashes)) if items]
            print(f"{name:<16} {', '.join(bits)}")
        print("\nuse NAME@SEED to override a plan's fault seed "
              "(e.g. lossy-1pct@7)")
        return 0
    if not args.plan:
        raise UsageError(f"the {args.action!r} action needs a PLAN argument")
    try:
        plan = get_plan(args.plan)
    except ValueError as exc:
        raise UsageError(exc) from None
    print(plan.describe())
    return 0


def _cmd_experiment(args) -> int:
    """Sweep the named experiments' cells, then render from that sweep."""
    names = list(ex.EXPERIMENTS) if args.name == "all" else [args.name]
    report = sw.run_sweep(ex.experiment_cells(names, args.scale),
                          jobs=args.jobs, cache_dir=args.cache_dir)
    if _report_failures(report):
        return 1
    for name in names:
        print(ex.EXPERIMENTS[name].render(report.results, args.scale))
        print()
    return 0


# ------------------------------------------------------------ parser tables

Arg = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> Arg:
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def _shared_options() -> Dict[str, Arg]:
    """Every option that two or more subcommands take, declared once and
    keyed by its first flag.  Built per parser, not at import: protocols
    registered at runtime (test fixtures) are choices."""
    protocols = sorted(PROTOCOLS)
    return {flags[0]: (flags, kwargs) for flags, kwargs in [
        # no choices=: prefixed ids (fuzz:SEED, trace:PATH) resolve lazily
        _arg("--app", required=True, metavar="APP",
             help=f"one of {', '.join(APP_NAMES)}, or fuzz:SEED / "
                  f"trace:PATH"),
        _arg("--protocol", choices=protocols, default="aec"),
        _arg("--protocols", nargs="+", choices=protocols,
             default=["aec", "tmk"]),
        _arg("--scale", choices=SCALES, default="test"),
        _arg("--update-set-size", type=int, default=2),
        _arg("--faults", metavar="PLAN", type=_fault_plan_arg,
             help="inject network faults per a built-in plan "
                  "(NAME or NAME@SEED; see 'repro faults list')"),
        _arg("--check-consistency", action="store_true"),
        _arg("--verbose", "-v", action="store_true"),
        _arg("--cache-dir", metavar="DIR"),
        _arg("--jobs", type=int, default=1, metavar="N"),
        _arg("--json", metavar="FILE"),
        _arg("spec", metavar="SPEC",
             help="seed integer, spec JSON, or corpus JSON"),
    ]}


#: the shared options of every command that simulates one app
_RUN = ["--app", "--protocol", "--scale", "--update-set-size"]

#: subcommand path -> (help, handler, arguments); a command group maps to
#: (help, dest of its sub-command) and precedes its members.  An argument
#: is a shared option's flag, an ``_arg`` overriding some of a shared
#: option's keywords, or an ``_arg`` for an option only this command takes.
COMMANDS: Dict[str, tuple] = {
    "run": ("simulate one application/protocol", _cmd_run, [
        *_RUN, "--verbose",
        _arg("--check-consistency",
             help="run the happens-before sanitizer alongside the "
                  "simulation (nonzero exit on violations)"),
        "--faults",
    ]),
    "check": ("certify apps: HB sanitizer, app check and cross-protocol "
              "memory oracle",
              _cmd_check, [
        # no argparse choices= here: empty nargs="*" defaults trip choice
        # validation on some 3.x releases; _resolve_app validates instead
        _arg("apps", nargs="*", metavar="APP",
             help=f"apps to certify (default: all of "
                  f"{', '.join(APP_NAMES)})"),
        "--protocols", "--scale", "--update-set-size",
        _arg("--json", help="write the full violation report as JSON"),
        _arg("--verbose",
             help="print every violation, not just the first few"),
        _arg("--faults", help="certify under injected faults (the SC "
                              "oracle image stays fault-free)"),
    ]),
    "compare": ("one app under several protocols", _cmd_compare, [
        "--app", _arg("--protocols", default=["tmk", "aec-nolap", "aec"]),
        "--scale", "--update-set-size",
    ]),
    "explain": ("run once with spans and report where its simulated time "
                "went (nonzero exit if the attribution fails to sum to "
                "execution time)", _cmd_explain, [
        *_RUN, "--faults",
        _arg("--trace-out", metavar="FILE",
             help="write the spans as a Chrome/Perfetto trace"),
        _arg("--folded", metavar="FILE",
             help="write collapsed stacks for flamegraph tools"),
        _arg("--json", help="write the attribution as JSON"),
    ]),
    "trace": ("app-level trace record/replay", "trace_cmd"),
    "trace record": ("run once and record the app-level event stream",
                     _cmd_trace_record, [
        _arg("out", metavar="OUT.jsonl",
             help="output path for the JSONL app trace"),
        *_RUN, "--faults",
    ]),
    "trace replay": ("re-run a recorded app trace (bit-identical sim "
                     "numbers)", _cmd_trace_replay, [
        _arg("trace", metavar="TRACE.jsonl",
             help="app trace recorded by 'trace record'"),
        _arg("--protocol", default=None,
             help="replay under a different protocol "
                  "(default: the recorded one)"),
        _arg("--verify", action="store_true",
             help="fail unless execution cycles, messages, bytes "
                  "and events match the recorded baseline exactly"),
    ]),
    "fuzz": ("protocol fuzzing: generated-workload campaigns, single-spec "
             "replay, delta-debugging shrink, corpus regression replay",
             "fuzz_cmd"),
    "fuzz run": ("campaign: seeds x protocols x fault plans, certified "
                 "against the checker and the SC oracle", _cmd_fuzz_run, [
        _arg("--seeds", type=int, default=25, metavar="N",
             help="number of generated workloads (default 25)"),
        _arg("--seed-start", type=int, default=0, metavar="S",
             help="first seed (default 0)"),
        _arg("--protocols", metavar="PROTO",
             help="protocols to fuzz (default: aec tmk)"),
        _arg("--plans", nargs="+", type=_fault_plan_arg,
             default=["none", "lossy-1pct", "crash-one-node"],
             metavar="PLAN",
             help="fault plans per cell; 'none' = fault-free "
                  "(default: none lossy-1pct crash-one-node)"),
        "--scale", "--jobs",
        _arg("--cache-dir",
             help="sweep disk cache (re-runs only execute new cells)"),
        _arg("--json", help="write the CampaignReport as JSON"),
        _arg("--corpus-dir", metavar="DIR",
             help="file minimized reproducers into this directory"),
        _arg("--no-shrink", action="store_true",
             help="report failures without minimizing them"),
        _arg("--max-shrink-runs", type=int, default=300, metavar="N"),
        "--verbose",
    ]),
    "fuzz replay": ("run one generated workload or corpus entry and "
                    "certify it", _cmd_fuzz_replay, [
        "spec",
        _arg("--protocol", default=None,
             help="protocol (default: the corpus entry's, else aec)"),
        "--scale", "--faults",
    ]),
    "fuzz shrink": ("delta-debug a failing spec to a minimal reproducer",
                    _cmd_fuzz_shrink, [
        "spec",
        _arg("--protocol", default=None,
             help="protocol to shrink against (default: the "
                  "corpus entry's, else aec)"),
        "--scale", "--faults",
        _arg("--max-runs", type=int, default=400, metavar="N"),
        _arg("--out", metavar="FILE",
             help="write the minimized reproducer as corpus JSON"),
        "--verbose",
    ]),
    "fuzz corpus": ("replay a reproducer corpus as regression tests",
                    _cmd_fuzz_corpus, [
        _arg("dir", nargs="?", default="tests/corpus", metavar="DIR"),
        _arg("--protocols", metavar="PROTO",
             help="healthy protocols that must stay clean "
                  "(default: aec tmk)"),
    ]),
    "experiment": ("reproduce a table, figure or ablation", _cmd_experiment, [
        _arg("name", choices=(*ex.EXPERIMENTS, "all")),
        "--scale",
        _arg("--jobs", help="run the experiment's cells on N processes"),
        _arg("--cache-dir",
             help="read/write run results through this disk cache"),
    ]),
    "sweep": ("run experiment cells in parallel through the disk cache",
              _cmd_sweep, [
        _arg("experiments", nargs="*", metavar="EXPERIMENT",
             help="experiments to expand (default: all of "
                  f"{', '.join(ex.EXPERIMENTS)})"),
        "--scale",
        _arg("--jobs", help="worker processes (1 = run misses inline)"),
        _arg("--cache-dir",
             help="persist results to this content-addressed cache"),
        _arg("--verbose", help="print per-cell progress to stderr"),
        _arg("--check-consistency",
             help="run every cell with the happens-before sanitizer "
                  "(distinct cache keys; nonzero exit on violations)"),
        _arg("--faults", help="run every cell under this fault plan "
                              "(distinct cache keys per plan and fault "
                              "seed)"),
        _arg("--metrics", action="store_true",
             help="print sweep-level aggregates summed over the cells' "
                  "results (same cache keys)"),
    ]),
    "faults": ("list or explain the built-in fault plans (run an app "
               "under one with 'run --faults PLAN')", _cmd_faults, [
        _arg("action", choices=("list", "explain")),
        _arg("plan", nargs="?", metavar="PLAN",
             help="plan name (NAME or NAME@SEED) for explain"),
    ]),
    "cache": ("inspect or clear a sweep disk cache", _cmd_cache, [
        _arg("action", choices=("inspect", "clear")),
        _arg("--cache-dir", required=True),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_options()
    root = argparse.ArgumentParser(
        prog="repro",
        description="AEC protocol reproduction (ICPP 1997)")
    groups = {"": root.add_subparsers(dest="command", required=True)}
    for path, (help_, target, *rest) in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        parser = groups[group].add_parser(name, help=help_)
        if isinstance(target, str):
            groups[path] = parser.add_subparsers(dest=target, required=True)
            continue
        parser.set_defaults(fn=target)
        for entry in rest[0]:
            flags, kwargs = _arg(entry) if isinstance(entry, str) else entry
            if flags[0] in shared:
                flags, base = shared[flags[0]]
                kwargs = {**base, **kwargs}
            parser.add_argument(*flags, **kwargs)
    return root


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
