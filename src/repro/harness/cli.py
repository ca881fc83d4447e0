"""Command-line interface: run single simulations or whole experiments.

Examples::

    repro run --app is --protocol aec --scale test
    repro run --app is --protocol aec --trace-out /tmp/is.json
    repro run --app is --protocol aec --check-consistency
    repro run --app fuzz:17 --protocol aec --check-consistency
    repro check is water-ns --protocols aec tmk --json report.json
    repro compare --app raytrace --scale bench
    repro trace export /tmp/aec.json --app is --scale test
    repro trace record /tmp/is.trace.jsonl --app is --protocol aec
    repro trace replay /tmp/is.trace.jsonl --verify
    repro fuzz run --seeds 25 --jobs 4 --json campaign.json
    repro fuzz replay 17 --protocol aec
    repro fuzz shrink tests/corpus/entry.json --protocol aec-broken
    repro fuzz corpus tests/corpus
    repro metrics --app is --protocol aec --scale test
    repro experiment table3 --scale test
    repro experiment all --scale bench
    repro sweep --scale test --jobs 4 --cache-dir .repro-cache
    repro cache inspect --cache-dir .repro-cache
    repro cache clear --cache-dir .repro-cache
    repro run --app ocean --protocol aec --faults lossy-1pct -v
    repro check ocean --protocols aec tmk --faults lossy-1pct
    repro faults list
    repro faults explain jitter
    repro faults run dup-heavy --app is --protocol aec
    repro bench attr --app is --protocol aec --scale test
    repro bench flame /tmp/is.folded --app is --protocol aec
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.apps.registry import APP_NAMES, SCALES, make_app
from repro.config import SimConfig
from repro.harness import experiments as ex
from repro.harness import sweep as sw
from repro.harness import tables
from repro.harness.runner import PROTOCOLS, run_app

EXPERIMENTS = ("table1", "table2", "table3", "table4",
               "fig3", "fig4", "fig5", "fig6",
               "ablation-upset", "ablation-robustness", "all")


def _make_config(args, **overrides) -> SimConfig:
    """Build a SimConfig from the shared CLI arguments."""
    kwargs = dict(update_set_size=args.update_set_size, seed=args.seed)
    if getattr(args, "trace", False) or getattr(args, "trace_out", None):
        kwargs["obs_spans"] = True
    if getattr(args, "check_consistency", False):
        kwargs["check_consistency"] = True
    if getattr(args, "faults", None):
        from repro.faults import get_plan
        kwargs["faults"] = get_plan(args.faults)
    if getattr(args, "record_trace", None):
        kwargs["record_trace"] = args.record_trace
    kwargs.update(overrides)
    config = SimConfig(**kwargs)
    # generated workloads ride in the config (cache identity + machine size)
    app_id = getattr(args, "app", None)
    if app_id and app_id.startswith("fuzz:"):
        from repro.fuzz.generator import config_for_spec, load_spec
        spec = load_spec(app_id[len("fuzz:"):], getattr(args, "scale", "test"))
        config = config_for_spec(spec, config)
    elif app_id and app_id.startswith("trace:"):
        import dataclasses as _dc

        from repro.fuzz.trace import TraceApp
        nprocs = TraceApp(app_id[len("trace:"):]).num_procs
        config = config.replace(machine=_dc.replace(
            config.machine, num_procs=nprocs))
    return config


def _fault_plan_arg(spec: str) -> str:
    """argparse type for --faults: validates NAME or NAME@SEED early."""
    from repro.faults import get_plan
    try:
        get_plan(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def _write_trace(result, path: str) -> bool:
    from repro.obs.export import write_chrome_trace
    spans = result.extra.get("spans")
    if spans is None:
        print(f"no spans recorded; {path} not written", file=sys.stderr)
        return False
    cycle_ns = 1e9 / result.clock_hz
    try:
        # pass the recorder itself so ring-buffer drop counts land in the
        # trace metadata
        n = write_chrome_trace(path, spans, cycle_ns=cycle_ns,
                               process_name=f"{result.app}/{result.protocol}")
    except OSError as exc:
        print(f"error: cannot write trace to {path}: {exc}", file=sys.stderr)
        return False
    dropped = spans.dropped_total
    note = f" ({dropped} dropped by ring buffer)" if dropped else ""
    print(f"chrome trace written to {path} ({n} events{note})")
    return True


def _print_check_report(rep, verbose: bool, limit: int = 10) -> None:
    print(f"  {rep.summary()}")
    shown = rep.violations[:limit] if not verbose else rep.violations
    for v in shown:
        print(f"    {v.describe()}")
    if len(rep.violations) > len(shown):
        print(f"    ... {len(rep.violations) - len(shown)} more "
              f"(rerun with -v)")


def _resolve_app(app_id: str, scale: str, config=None):
    """make_app with CLI-friendly failure: None + stderr instead of raising."""
    try:
        return make_app(app_id, scale, config=config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    config = _make_config(args)
    app = _resolve_app(args.app, args.scale, config)
    if app is None:
        return 2
    result = run_app(app, args.protocol, config=config)
    if config.record_trace:
        print(f"app-level trace written to {config.record_trace}")
    print(result.summary())
    if result.net_faults is not None:
        print(f"  {result.net_faults.summary()}")
    if result.recovery is not None:
        print(f"  {result.recovery.summary()}")
    if args.check_consistency:
        _print_check_report(result.check_report, args.verbose)
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
    rc = 0
    if args.check_consistency and not result.check_report.clean:
        rc = 1
    if args.trace_out and not _write_trace(result, args.trace_out):
        rc = 1
    return rc


def _cmd_check(args) -> int:
    """Certify apps: in-run HB sanitizer + cross-protocol memory oracle."""
    import json as _json

    from repro.check.oracle import (DivergenceReport, compare_images,
                                    run_with_image)
    from repro.memory.layout import Layout
    from repro.sync.objects import SyncRegistry

    apps = args.apps or list(APP_NAMES)
    # prefixed ids (fuzz:SEED, trace:PATH) resolve lazily inside make_app
    unknown = [a for a in apps if a not in APP_NAMES and ":" not in a]
    if unknown:
        print(f"error: unknown app(s) {', '.join(unknown)}; "
              f"choose from {', '.join(APP_NAMES)}", file=sys.stderr)
        return 2
    doc = {"scale": args.scale, "seed": args.seed, "runs": []}
    oracle_images = {}
    failed = 0
    for app_name in apps:
        for protocol in args.protocols:
            config = _make_config(args, check_consistency=True)
            app = make_app(app_name, args.scale)
            # the sanitizer + oracle ARE the validation here: the app's own
            # coarse check() would abort a broken run with a stack trace
            # instead of letting the violation report localize the bug
            result, image = run_with_image(app, protocol, config=config,
                                           check=False)
            rep = result.check_report
            entry = {"app": app_name, "protocol": protocol,
                     "check": rep.to_dict()}
            ok = rep.clean
            div = None
            if args.oracle:
                oracle_image = oracle_images.get(app_name)
                if oracle_image is None:
                    _o, oracle_image = run_with_image(
                        make_app(app_name, args.scale), "sc",
                        config=SimConfig(update_set_size=args.update_set_size,
                                         seed=args.seed))
                    oracle_images[app_name] = oracle_image
                layout = Layout(config.machine.words_per_page)
                sync = SyncRegistry(config.machine.num_procs)
                make_app(app_name, args.scale).declare(layout, sync)
                div = DivergenceReport(app=app_name, protocol=protocol,
                                       oracle_protocol="sc", seed=config.seed)
                compare_images(image, oracle_image, layout, div,
                               volatile=tuple(app.volatile_segments))
                entry["divergence"] = div.to_dict()
                ok = ok and div.clean
            doc["runs"].append(entry)
            failed += 0 if ok else 1
            status = "ok  " if ok else "FAIL"
            print(f"{status} {app_name:<10} {protocol:<9} {rep.summary()}")
            if not rep.clean:
                for v in (rep.violations if args.verbose
                          else rep.violations[:10]):
                    print(f"       {v.describe()}")
            if div is not None and not div.clean:
                print("       " + div.summary().replace("\n", "\n       "))
    doc["failed_runs"] = failed
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"violation report written to {args.json}")
    total = len(doc["runs"])
    print(f"checked {total} runs: {total - failed} clean, {failed} failed")
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    for protocol in args.protocols:
        config = _make_config(args)
        result = run_app(make_app(args.app, args.scale), protocol,
                         config=config)
        print(result.summary())
        if getattr(args, "trace", False):
            spans = result.extra.get("spans")
            if spans is not None:
                print("  " + spans.summary().replace("\n", "\n  "))
    return 0


def _cmd_trace(args) -> int:
    if args.trace_cmd == "export":
        config = _make_config(args, obs_spans=True)
        result = run_app(make_app(args.app, args.scale), args.protocol,
                         config=config)
        print(result.summary())
        return 0 if _write_trace(result, args.out) else 1

    if args.trace_cmd == "record":
        config = _make_config(args, record_trace=args.out)
        app = _resolve_app(args.app, args.scale, config)
        if app is None:
            return 2
        result = run_app(app, args.protocol, config=config)
        print(result.summary())
        print(f"app-level trace written to {args.out} "
              f"(replay with 'repro trace replay {args.out}')")
        return 0

    # trace_cmd == "replay": re-run a recorded op stream, optionally
    # verifying sim-side bit-identity against the recorded baseline
    from repro.config import config_from_dict
    from repro.fuzz.trace import TraceApp

    try:
        app = TraceApp(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    protocol = args.protocol or app.recorded_protocol
    # replay under the recorded config, but never re-record over the
    # input file
    try:
        config = config_from_dict(app.header["config"])
    except ValueError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    config = config.replace(record_trace="")
    result = run_app(app, protocol, config=config)
    print(result.summary())
    if not args.verify:
        return 0
    if protocol != app.recorded_protocol:
        print(f"error: --verify needs the recorded protocol "
              f"({app.recorded_protocol!r}), not {protocol!r}",
              file=sys.stderr)
        return 2
    baseline = app.baseline
    got = {"execution_time": result.execution_time,
           "messages_total": result.messages_total,
           "network_bytes": result.network_bytes,
           "events_processed": result.events_processed}
    mismatches = [f"  {k}: recorded {baseline[k]!r}, replayed {got[k]!r}"
                  for k in got if k in baseline and baseline[k] != got[k]]
    if mismatches:
        print("replay DIVERGED from the recorded run:", file=sys.stderr)
        for line in mismatches:
            print(line, file=sys.stderr)
        return 1
    print(f"replay verified: bit-identical to the recorded run "
          f"({', '.join(sorted(set(baseline) & set(got)))})")
    return 0


def _load_fuzz_source(source: str, scale: str):
    """Resolve a fuzz CLI SPEC argument to (spec, corpus_doc_or_None)."""
    import json as _json

    from repro.fuzz.generator import load_spec, spec_from_dict
    doc = None
    try:
        int(source)
    except ValueError:
        with open(source, "r", encoding="utf-8") as fh:
            doc = _json.load(fh)
        return spec_from_dict(doc.get("spec", doc)), doc
    return load_spec(source, scale), None


def _cmd_fuzz(args) -> int:
    from repro.fuzz.broken import ensure_registered
    ensure_registered()  # corpus entries may reference aec-broken

    def _to_stderr(msg):
        print(msg, file=sys.stderr)

    say = _to_stderr if getattr(args, "verbose", False) else None

    if args.fuzz_cmd == "run":
        import json as _json

        from repro.fuzz.campaign import run_campaign
        seeds = range(args.seed_start, args.seed_start + args.seeds)
        report = run_campaign(
            seeds, protocols=tuple(args.protocols),
            plans=tuple(args.plans), scale=args.scale, jobs=args.jobs,
            cache_dir=args.cache_dir, shrink=not args.no_shrink,
            max_shrink_runs=args.max_shrink_runs,
            corpus_dir=args.corpus_dir, progress=say)
        print(report.summary())
        for cell in report.failures:
            print(f"  FAIL seed={cell.seed} {cell.protocol}/{cell.plan}: "
                  f"{cell.failure}", file=sys.stderr)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            print(f"campaign report written to {args.json}")
        return 0 if report.clean else 1

    if args.fuzz_cmd == "replay":
        from repro.fuzz.shrink import spec_failure
        try:
            spec, doc = _load_fuzz_source(args.spec, args.scale)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        found = (doc or {}).get("found", {})
        protocol = args.protocol or found.get("protocol", "aec")
        plan = None
        plan_name = args.faults or found.get("plan")
        if plan_name and plan_name != "none":
            from repro.faults import get_plan
            plan = get_plan(plan_name)
        failure = spec_failure(spec, protocol, faults=plan,
                               oracle=args.oracle)
        label = (f"fuzz seed {spec.seed} ({spec.num_procs}p, "
                 f"{len(spec.phases)} phases) under {protocol}"
                 + (f"/{plan_name}" if plan else ""))
        if failure is None:
            print(f"{label}: healthy (checker, checksums and final memory "
                  f"all clean)")
            return 0
        print(f"{label}: FAILS -> {failure}")
        return 1

    if args.fuzz_cmd == "shrink":
        import json as _json

        from repro.fuzz.campaign import corpus_doc
        from repro.fuzz.shrink import shrink_spec
        try:
            spec, doc = _load_fuzz_source(args.spec, args.scale)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        found = (doc or {}).get("found", {})
        protocol = args.protocol or found.get("protocol", "aec")
        plan = None
        plan_name = args.faults or found.get("plan")
        if plan_name and plan_name != "none":
            from repro.faults import get_plan
            plan = get_plan(plan_name)
        try:
            res = shrink_spec(spec, protocol, faults=plan,
                              oracle=args.oracle,
                              max_runs=args.max_runs, progress=say)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(res.summary())
        print(f"minimal: {res.minimal}")
        if args.out:
            out_doc = corpus_doc(res.minimal, protocol,
                                 plan_name or "none", args.scale,
                                 res.minimal_failure, shrunk_from=spec,
                                 shrink_runs=res.runs)
            with open(args.out, "w", encoding="utf-8") as fh:
                _json.dump(out_doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"reproducer written to {args.out}")
        return 0

    # fuzz_cmd == "corpus": replay every corpus entry as a regression test
    import glob as _glob
    import json as _json

    from repro.fuzz.generator import spec_from_dict
    from repro.fuzz.shrink import spec_failure
    paths = sorted(_glob.glob(os.path.join(args.dir, "*.json")))
    if not paths:
        print(f"error: no corpus entries under {args.dir}", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _json.load(fh)
        spec = spec_from_dict(doc.get("spec", doc))
        name = doc.get("name", os.path.basename(path))
        # healthy protocols must stay clean on every corpus entry
        for protocol in args.protocols:
            failure = spec_failure(spec, protocol)
            ok = failure is None
            failed += 0 if ok else 1
            status = "ok  " if ok else "FAIL"
            print(f"{status} {name:<28} {protocol:<10} "
                  + ("clean" if ok else failure))
        # the entry must still reproduce on the protocol it was found on
        found = doc.get("found", {})
        bad_protocol = found.get("protocol")
        if bad_protocol and bad_protocol not in args.protocols:
            plan = None
            if found.get("plan") and found["plan"] != "none":
                from repro.faults import get_plan
                plan = get_plan(found["plan"])
            failure = spec_failure(spec, bad_protocol, faults=plan)
            ok = failure is not None
            failed += 0 if ok else 1
            status = "ok  " if ok else "FAIL"
            note = (f"still reproduces: {failure}" if ok
                    else "reproducer LOST (no longer fails)")
            print(f"{status} {name:<28} {bad_protocol:<10} {note}")
    total = len(paths)
    print(f"corpus: {total} entr{'y' if total == 1 else 'ies'}, "
          f"{failed} failed expectation(s)")
    return 1 if failed else 0


def _cmd_metrics(args) -> int:
    config = _make_config(args, obs_metrics=True)
    result = run_app(make_app(args.app, args.scale), args.protocol,
                     config=config)
    print(result.summary())
    print()
    print(result.metrics.render())
    return 0


def _cmd_analyze(args) -> int:
    from repro.tools import (lock_report, message_matrix, render_matrix,
                             render_timeline)
    config = SimConfig(update_set_size=args.update_set_size, seed=args.seed,
                       obs_spans=True, obs_spans_jsonl=args.trace_out or "")
    result = run_app(make_app(args.app, args.scale), args.protocol,
                     config=config)
    spans = result.extra["spans"]
    print(result.summary())
    print()
    print(spans.summary())
    print()
    print(lock_report(spans))
    print()
    print(render_timeline(spans, kinds=["page.fetch", "diff.create",
                                        "lock.hold"]))
    print()
    print(render_matrix(message_matrix(result)))
    if args.trace_out:
        print(f"\nspans written to {args.trace_out} "
              f"({spans.completed} spans)")
    return 0


def _cmd_sweep(args) -> int:
    names = args.experiments or list(ex.EXPERIMENT_CELLS)
    try:
        specs = ex.experiment_cells(names, args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check_consistency:
        # the flag is a first-class SimConfig field, so rebuilding the spec
        # changes its cache key: checker-on cells never alias checker-off
        specs = [sw.RunSpec(s.app, s.scale, s.protocol,
                            s.config.replace(check_consistency=True), s.check)
                 for s in specs]
    if args.faults:
        # same story: the fault plan (name, seed, rules) is part of the
        # canonical config, so every plan gets its own cache cells
        from repro.faults import get_plan
        plan = get_plan(args.faults)
        specs = [sw.RunSpec(s.app, s.scale, s.protocol,
                            s.config.replace(faults=plan), s.check)
                 for s in specs]
    if args.metrics:
        # metrics-on cells snapshot the registry into each RunResult so
        # the report can merge them; distinct cache keys again
        specs = [sw.RunSpec(s.app, s.scale, s.protocol,
                            s.config.replace(obs_metrics=True), s.check)
                 for s in specs]
    def _to_stderr(msg):
        print(msg, file=sys.stderr)
    report = sw.run_sweep(specs, jobs=args.jobs, cache_dir=args.cache_dir,
                          progress=_to_stderr if args.verbose else None)
    print(report.summary())
    if args.verbose:
        aggregates = report.metrics_summary()
        if aggregates is not None:
            print(aggregates)
    dirty = 0
    if args.check_consistency:
        for spec in report.specs:
            rep = report.results.get(spec.key)
            rep = rep.check_report if rep is not None else None
            if rep is not None and not rep.clean:
                dirty += 1
                print(f"  VIOLATIONS {spec.label}: {rep.summary()}",
                      file=sys.stderr)
        if not dirty and not report.failures:
            print("all cells consistency-clean")
    for label, error in report.failures:
        print(f"  FAILED {label}: {error}", file=sys.stderr)
    return 1 if (report.failures or dirty) else 0


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
        if prov is None:
            build = "?"
            stale += 1
        elif prov == current:
            build = "ok"
        else:
            build = "STALE"
            stale += 1
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
    """List built-in fault plans, explain one, or run an app under one."""
    from repro.faults import BUILTIN_PLANS, get_plan

    if args.action == "list":
        for name in sorted(BUILTIN_PLANS):
            plan = BUILTIN_PLANS[name]
            bits = []
            if plan.rules:
                bits.append(f"{len(plan.rules)} rule(s)")
            if plan.stalls:
                bits.append(f"{len(plan.stalls)} stall(s)")
            if plan.crashes:
                bits.append(f"{len(plan.crashes)} crash(es)")
            print(f"{name:<16} {', '.join(bits)}")
        print("\nuse NAME@SEED to override a plan's fault seed "
              "(e.g. lossy-1pct@7)")
        return 0
    if not args.plan:
        print(f"error: the {args.action!r} action needs a PLAN argument",
              file=sys.stderr)
        return 2
    try:
        plan = get_plan(args.plan)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "explain":
        print(plan.describe())
        return 0
    # action == "run"
    if not args.app:
        print("error: the 'run' action needs --app", file=sys.stderr)
        return 2
    config = SimConfig(seed=args.seed, faults=plan,
                       check_consistency=args.check_consistency)
    result = run_app(make_app(args.app, args.scale), args.protocol,
                     config=config)
    print(result.summary())
    print(f"  {result.net_faults.summary()}")
    if result.recovery is not None:
        print(f"  {result.recovery.summary()}")
    if args.check_consistency:
        _print_check_report(result.check_report, verbose=True)
        return 0 if result.check_report.clean else 1
    return 0


def _cmd_experiment(args) -> int:
    names = EXPERIMENTS[:-1] if args.name == "all" else (args.name,)
    scale = args.scale
    if args.cache_dir:
        sw.set_cache_dir(args.cache_dir)
    if args.jobs > 1:
        # pre-warm the cache in parallel; rendering below then only reads
        cell_names = [n for n in names if n in ex.EXPERIMENT_CELLS]
        sw.run_sweep(ex.experiment_cells(cell_names, scale), jobs=args.jobs)
    for name in names:
        if name == "table1":
            print(tables.render_table1())
        elif name == "table2":
            print(tables.render_table2(ex.table2(scale)))
        elif name == "table3":
            print(tables.render_table3(ex.table3(scale)))
        elif name == "table4":
            print(tables.render_table4(ex.table4(scale)))
        elif name == "fig3":
            print(tables.render_compare(
                "Figure 3: access-fault overhead, AEC-noLAP=100 vs AEC.",
                ex.figure3(scale)))
        elif name == "fig4":
            print(tables.render_compare(
                "Figure 4: execution time, AEC-noLAP=100 vs AEC.",
                ex.figure4(scale)))
        elif name == "fig5":
            print(tables.render_compare(
                "Figure 5: execution time, TreadMarks=100 vs AEC.",
                ex.figure5(scale)))
        elif name == "fig6":
            print(tables.render_compare(
                "Figure 6: execution time, TreadMarks=100 vs AEC.",
                ex.figure6(scale)))
        elif name == "ablation-upset":
            print(tables.render_update_set(ex.ablation_update_set_size(scale)))
        elif name == "ablation-robustness":
            print(tables.render_robustness(ex.ablation_lap_robustness(scale)))
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(name)
        print()
    return 0


def _cmd_bench(args) -> int:
    from repro import bench

    config = _make_config(args, obs_spans=True)
    result = run_app(make_app(args.app, args.scale), args.protocol,
                     config=config)
    if args.bench_cmd == "attr":
        report = bench.attribute_result(result)
        print(result.summary())
        print()
        print(report.render())
        problems = report.check()
        if args.json:
            import json as _json
            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            print(f"\nattribution written to {args.json}")
        if problems:
            print()
            for p in problems:
                print(f"TOLERANCE VIOLATION: {p}", file=sys.stderr)
            return 1
        return 0

    # bench_cmd == "flame"
    folded = bench.spans_collapsed(result.extra["spans"].spans,
                                   result.num_procs, result.execution_time)
    print(result.summary())
    n = bench.write_collapsed(folded, args.out)
    print(f"{n} collapsed stacks (simulated cycles) written to {args.out} — "
          f"feed to flamegraph.pl or speedscope.app")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="AEC protocol reproduction (ICPP 1997)")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one application/protocol")
    # no choices=: prefixed ids (fuzz:SEED, trace:PATH) resolve lazily
    run.add_argument("--app", required=True, metavar="APP",
                     help=f"one of {', '.join(APP_NAMES)}, or fuzz:SEED / "
                          f"trace:PATH")
    run.add_argument("--protocol", choices=sorted(PROTOCOLS), default="aec")
    run.add_argument("--scale", choices=SCALES, default="test")
    run.add_argument("--update-set-size", type=int, default=2)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--verbose", "-v", action="store_true")
    run.add_argument("--trace", action="store_true",
                     help="record protocol spans during the run")
    run.add_argument("--trace-out", metavar="FILE",
                     help="write spans as a Chrome/Perfetto trace "
                          "(implies --trace)")
    run.add_argument("--check-consistency", action="store_true",
                     help="run the happens-before sanitizer alongside the "
                          "simulation (nonzero exit on violations)")
    run.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg,
                     help="inject network faults per a built-in plan "
                          "(NAME or NAME@SEED; see 'repro faults list')")
    run.add_argument("--record-trace", metavar="FILE",
                     help="record the app-level event stream as JSONL "
                          "(replay with 'repro trace replay FILE')")
    run.set_defaults(fn=_cmd_run)

    chk = sub.add_parser(
        "check",
        help="certify apps: HB sanitizer + cross-protocol memory oracle")
    # no argparse choices= here: empty nargs="*" defaults trip choice
    # validation on some 3.x releases; _cmd_check validates instead
    chk.add_argument("apps", nargs="*", metavar="APP",
                     help=f"apps to certify (default: all of "
                          f"{', '.join(APP_NAMES)})")
    chk.add_argument("--protocols", nargs="+", choices=sorted(PROTOCOLS),
                     default=["aec", "tmk"])
    chk.add_argument("--scale", choices=SCALES, default="test")
    chk.add_argument("--update-set-size", type=int, default=2)
    chk.add_argument("--seed", type=int, default=42)
    chk.add_argument("--no-oracle", dest="oracle", action="store_false",
                     help="skip the SC divergence oracle (sanitizer only)")
    chk.add_argument("--json", metavar="FILE",
                     help="write the full violation report as JSON")
    chk.add_argument("--verbose", "-v", action="store_true",
                     help="print every violation, not just the first few")
    chk.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg,
                     help="certify under injected faults (the SC oracle "
                          "image stays fault-free)")
    chk.set_defaults(fn=_cmd_check)

    cmp_ = sub.add_parser("compare", help="one app under several protocols")
    cmp_.add_argument("--app", choices=APP_NAMES, required=True)
    cmp_.add_argument("--protocols", nargs="+",
                      choices=sorted(PROTOCOLS),
                      default=["tmk", "aec-nolap", "aec"])
    cmp_.add_argument("--scale", choices=SCALES, default="test")
    cmp_.add_argument("--update-set-size", type=int, default=2)
    cmp_.add_argument("--seed", type=int, default=42)
    cmp_.add_argument("--trace", action="store_true",
                      help="record spans and print a per-protocol summary")
    cmp_.set_defaults(fn=_cmd_compare)

    trc = sub.add_parser(
        "trace",
        help="app-level trace record/replay, or Chrome trace export")
    tsub = trc.add_subparsers(dest="trace_cmd", required=True)

    trec = tsub.add_parser(
        "record", help="run once and record the app-level event stream")
    trec.add_argument("out", metavar="OUT.jsonl",
                      help="output path for the JSONL app trace")
    trec.add_argument("--app", required=True, metavar="APP",
                      help=f"one of {', '.join(APP_NAMES)}, or fuzz:SEED")
    trec.add_argument("--protocol", choices=sorted(PROTOCOLS), default="aec")
    trec.add_argument("--scale", choices=SCALES, default="test")
    trec.add_argument("--update-set-size", type=int, default=2)
    trec.add_argument("--seed", type=int, default=42)
    trec.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg)
    trec.set_defaults(fn=_cmd_trace)

    trep = tsub.add_parser(
        "replay",
        help="re-run a recorded app trace (bit-identical sim numbers)")
    trep.add_argument("trace", metavar="TRACE.jsonl",
                      help="app trace recorded by 'trace record' or "
                           "--record-trace")
    trep.add_argument("--protocol", choices=sorted(PROTOCOLS), default=None,
                      help="replay under a different protocol "
                           "(default: the recorded one)")
    trep.add_argument("--verify", action="store_true",
                      help="fail unless execution cycles, messages, bytes "
                           "and events match the recorded baseline exactly")
    trep.set_defaults(fn=_cmd_trace)

    texp = tsub.add_parser(
        "export", help="run once and export a Chrome/Perfetto span trace")
    texp.add_argument("out", metavar="OUT.json",
                      help="output path for the trace JSON")
    texp.add_argument("--app", choices=APP_NAMES, required=True)
    texp.add_argument("--protocol", choices=sorted(PROTOCOLS), default="aec")
    texp.add_argument("--scale", choices=SCALES, default="test")
    texp.add_argument("--update-set-size", type=int, default=2)
    texp.add_argument("--seed", type=int, default=42)
    texp.set_defaults(fn=_cmd_trace)

    fuz = sub.add_parser(
        "fuzz",
        help="protocol fuzzing: generated-workload campaigns, single-spec "
             "replay, delta-debugging shrink, corpus regression replay")
    fsub = fuz.add_subparsers(dest="fuzz_cmd", required=True)

    frun = fsub.add_parser(
        "run", help="campaign: seeds x protocols x fault plans, certified "
                    "against the checker and the SC oracle")
    frun.add_argument("--seeds", type=int, default=25, metavar="N",
                      help="number of generated workloads (default 25)")
    frun.add_argument("--seed-start", type=int, default=0, metavar="S",
                      help="first seed (default 0)")
    frun.add_argument("--protocols", nargs="+", default=["aec", "tmk"],
                      metavar="PROTO",
                      help="protocols to fuzz (default: aec tmk)")
    frun.add_argument("--plans", nargs="+",
                      default=["none", "lossy-1pct", "crash-one-node"],
                      metavar="PLAN",
                      help="fault plans per cell; 'none' = fault-free "
                           "(default: none lossy-1pct crash-one-node)")
    frun.add_argument("--scale", choices=SCALES, default="test")
    frun.add_argument("--jobs", type=int, default=1, metavar="N")
    frun.add_argument("--cache-dir", metavar="DIR",
                      help="sweep disk cache (re-runs only execute new "
                           "cells)")
    frun.add_argument("--json", metavar="FILE",
                      help="write the CampaignReport as JSON")
    frun.add_argument("--corpus-dir", metavar="DIR",
                      help="file minimized reproducers into this directory")
    frun.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimizing them")
    frun.add_argument("--max-shrink-runs", type=int, default=300,
                      metavar="N")
    frun.add_argument("--verbose", "-v", action="store_true")
    frun.set_defaults(fn=_cmd_fuzz)

    frep = fsub.add_parser(
        "replay", help="run one generated workload or corpus entry and "
                       "certify it")
    frep.add_argument("spec", metavar="SPEC",
                      help="seed integer, spec JSON, or corpus JSON")
    frep.add_argument("--protocol", default=None,
                      help="protocol (default: the corpus entry's, else "
                           "aec)")
    frep.add_argument("--scale", choices=SCALES, default="test")
    frep.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg)
    frep.add_argument("--oracle", choices=("analytic", "sc", "none"),
                      default="analytic",
                      help="final-memory oracle: analytic expectation "
                           "(default), a real SC run, or none")
    frep.set_defaults(fn=_cmd_fuzz)

    fshr = fsub.add_parser(
        "shrink", help="delta-debug a failing spec to a minimal reproducer")
    fshr.add_argument("spec", metavar="SPEC",
                      help="seed integer, spec JSON, or corpus JSON")
    fshr.add_argument("--protocol", default=None,
                      help="protocol to shrink against (default: the "
                           "corpus entry's, else aec)")
    fshr.add_argument("--scale", choices=SCALES, default="test")
    fshr.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg)
    fshr.add_argument("--oracle", choices=("analytic", "sc", "none"),
                      default="analytic")
    fshr.add_argument("--max-runs", type=int, default=400, metavar="N")
    fshr.add_argument("--out", metavar="FILE",
                      help="write the minimized reproducer as corpus JSON")
    fshr.add_argument("--verbose", "-v", action="store_true")
    fshr.set_defaults(fn=_cmd_fuzz)

    fcor = fsub.add_parser(
        "corpus", help="replay a reproducer corpus as regression tests")
    fcor.add_argument("dir", nargs="?", default="tests/corpus",
                      metavar="DIR")
    fcor.add_argument("--protocols", nargs="+", default=["aec", "tmk"],
                      metavar="PROTO",
                      help="healthy protocols that must stay clean "
                           "(default: aec tmk)")
    fcor.add_argument("--scale", choices=SCALES, default="test")
    fcor.set_defaults(fn=_cmd_fuzz)

    met = sub.add_parser("metrics",
                         help="run once and dump the metrics registry")
    met.add_argument("--app", choices=APP_NAMES, required=True)
    met.add_argument("--protocol", choices=sorted(PROTOCOLS), default="aec")
    met.add_argument("--scale", choices=SCALES, default="test")
    met.add_argument("--update-set-size", type=int, default=2)
    met.add_argument("--seed", type=int, default=42)
    met.set_defaults(fn=_cmd_metrics)

    ana = sub.add_parser("analyze",
                         help="run with spans and print lock/traffic "
                              "reports")
    ana.add_argument("--app", choices=APP_NAMES, required=True)
    ana.add_argument("--protocol", choices=sorted(PROTOCOLS), default="aec")
    ana.add_argument("--scale", choices=SCALES, default="test")
    ana.add_argument("--update-set-size", type=int, default=2)
    ana.add_argument("--seed", type=int, default=42)
    ana.add_argument("--trace-out", metavar="FILE",
                     help="also stream every span to FILE as JSON lines")
    ana.set_defaults(fn=_cmd_analyze)

    exp = sub.add_parser("experiment", help="reproduce a table or figure")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--scale", choices=SCALES, default="test")
    exp.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="pre-run the experiment's cells on N processes")
    exp.add_argument("--cache-dir", metavar="DIR",
                     help="read/write run results through this disk cache")
    exp.set_defaults(fn=_cmd_experiment)

    swp = sub.add_parser(
        "sweep",
        help="run experiment cells in parallel through the disk cache")
    swp.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help="experiments to expand (default: all of "
                          f"{', '.join(ex.EXPERIMENT_CELLS)})")
    swp.add_argument("--scale", choices=SCALES, default="test")
    swp.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (1 = run misses inline)")
    swp.add_argument("--cache-dir", metavar="DIR",
                     help="persist results to this content-addressed cache")
    swp.add_argument("--verbose", "-v", action="store_true",
                     help="print per-cell progress to stderr")
    swp.add_argument("--check-consistency", action="store_true",
                     help="run every cell with the happens-before sanitizer "
                          "(distinct cache keys; nonzero exit on violations)")
    swp.add_argument("--faults", metavar="PLAN", type=_fault_plan_arg,
                     help="run every cell under this fault plan "
                          "(distinct cache keys per plan and fault seed)")
    swp.add_argument("--metrics", action="store_true",
                     help="run every cell with the metrics registry on and "
                          "report sweep-level aggregates with -v "
                          "(distinct cache keys)")
    swp.set_defaults(fn=_cmd_sweep)

    flt = sub.add_parser(
        "faults",
        help="list/explain built-in fault plans, or run an app under one")
    flt.add_argument("action", choices=("list", "explain", "run"))
    flt.add_argument("plan", nargs="?", metavar="PLAN",
                     help="plan name (NAME or NAME@SEED) for explain/run")
    flt.add_argument("--app", choices=APP_NAMES,
                     help="application for the 'run' action")
    flt.add_argument("--protocol", choices=sorted(PROTOCOLS), default="aec")
    flt.add_argument("--scale", choices=SCALES, default="test")
    flt.add_argument("--seed", type=int, default=42,
                     help="application seed (the fault seed comes from the "
                          "plan, override with NAME@SEED)")
    flt.add_argument("--check-consistency", action="store_true",
                     help="also run the happens-before sanitizer")
    flt.set_defaults(fn=_cmd_faults)

    cch = sub.add_parser("cache", help="inspect or clear a sweep disk cache")
    cch.add_argument("action", choices=("inspect", "clear"))
    cch.add_argument("--cache-dir", required=True, metavar="DIR")
    cch.set_defaults(fn=_cmd_cache)

    ben = sub.add_parser(
        "bench",
        help="explain simulated time: per-node attribution and "
             "flamegraphs from spans")
    bsub = ben.add_subparsers(dest="bench_cmd", required=True)

    def _bench_run_args(sp):
        sp.add_argument("--app", choices=APP_NAMES, required=True)
        sp.add_argument("--protocol", choices=sorted(PROTOCOLS),
                        default="aec")
        sp.add_argument("--scale", choices=SCALES, default="test")
        sp.add_argument("--update-set-size", type=int, default=2)
        sp.add_argument("--seed", type=int, default=42)

    battr = bsub.add_parser(
        "attr",
        help="per-node simulated-time attribution from spans "
             "(nonzero exit if it fails to sum to execution time)")
    _bench_run_args(battr)
    battr.add_argument("--json", metavar="FILE",
                       help="also write the attribution as JSON")
    battr.set_defaults(fn=_cmd_bench)

    bflame = bsub.add_parser(
        "flame", help="export collapsed stacks for flamegraph tools")
    bflame.add_argument("out", metavar="OUT.folded",
                        help="output path for the collapsed stacks")
    _bench_run_args(bflame)
    bflame.set_defaults(fn=_cmd_bench)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
