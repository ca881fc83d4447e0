"""Parallel, disk-cached experiment runner.

The paper reproduction is a sweep over ``(app, scale, protocol, config)``
cells.  This module gives every cell an immutable identity — a
:class:`RunSpec` whose key is a canonical SHA-256 hash of the app,
scale, protocol, ``check`` flag and *full* configuration (machine
parameters, seed, fault plan, ...) — and materializes a set of cells in
one :func:`run_sweep` call: each distinct cell is read from the on-disk
content-addressed cache the call was given (pickle payload + JSON
metadata sidecar, see :class:`DiskCache`), else simulated, inline or
fanned out across a ``multiprocessing`` pool.  There is no process-wide
store: a result lives as long as the :class:`SweepReport` that holds it.

Keying by the full config fixes, by construction, the historical
under-keyed memo (which dropped ``check`` and every config field other
than ``update_set_size``/``seed``); freezing a *copy* of the caller's
config into each cell makes cells independent of execution order, so the
parallel path is result-identical to the serial one.  Determinism comes
from the seed frozen into each cell's config — workers never share
mutable state.
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.apps.registry import make_app
from repro.config import SimConfig, canonical_config_dict
from repro.harness.runner import run_app
from repro.stats.run_result import RunResult

#: bump when the RunResult layout or key composition changes incompatibly;
#: part of every cache key, so old entries miss instead of deserializing
#: into garbage.  v6: ``RunResult.metrics`` removed, ``DiffStats`` gained
#: the LAP push counters, ``FaultStats`` renamed ``AccessFaultStats``.
#: v7: the observation-only span and app-trace fields left ``SimConfig``
#: (and so the key); results carry no span recorder.
CACHE_FORMAT_VERSION = 7


@lru_cache(maxsize=1)
def provenance() -> Dict[str, Optional[str]]:
    """Which code produced a result: package version + git revision.

    Written into every cache metadata sidecar so ``repro cache inspect``
    can flag entries produced by a different build — cache *keys* only
    cover the configuration, so a protocol change silently keeps stale
    entries valid unless the provenance makes the mismatch visible.
    """
    import repro
    rev: Optional[str] = None
    try:
        root = os.path.dirname(os.path.abspath(repro.__file__))
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=5)
        if proc.returncode == 0:
            rev = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"repro_version": getattr(repro, "__version__", None),
            "git_rev": rev}


# --------------------------------------------------------------- RunSpec

@dataclass(frozen=True, eq=False)
class RunSpec:
    """One immutable experiment cell.

    ``config`` is a private snapshot of the run's configuration; build
    specs through :func:`make_spec`, which copies it, rather than
    constructing directly.
    """

    app: str
    scale: str
    protocol: str
    config: SimConfig
    check: bool = True

    def canonical(self) -> Dict[str, object]:
        """JSON-safe identity of the cell; the key hashes exactly this."""
        return {
            "version": CACHE_FORMAT_VERSION,
            "app": self.app,
            "scale": self.scale,
            "protocol": self.protocol,
            "check": self.check,
            "config": canonical_config_dict(self.config),
        }

    @cached_property
    def key(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        return f"{self.app}/{self.scale}/{self.protocol}"

    @property
    def name(self) -> str:
        """The label plus the knobs sweeps vary (update-set size, seed,
        checker, fault plan) where they differ from the defaults, and the
        key's first eight hex digits: two cells never share a name."""
        cfg, default = self.config, SimConfig()
        knobs = [f"{k}={getattr(cfg, k)}"
                 for k in ("update_set_size", "seed", "check_consistency")
                 if getattr(cfg, k) != getattr(default, k)]
        if cfg.faults is not None:
            knobs.append(f"faults={cfg.faults.name}@{cfg.faults.seed}")
        return " ".join([self.label, *knobs, self.key[:8]])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunSpec) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunSpec({self.label}, key={self.key[:12]})"


def make_spec(app: str, scale: str, protocol: str, *,
              config: Optional[SimConfig] = None,
              update_set_size: int = 2, seed: int = 42,
              check: bool = True, **config_overrides) -> RunSpec:
    """Build a :class:`RunSpec` with a frozen copy of its config.

    Either pass a prepared ``config`` (it is copied, never kept by
    reference) or let one be built from ``update_set_size``/``seed`` and
    any extra ``SimConfig`` field overrides.
    """
    if config is None:
        config = SimConfig(update_set_size=update_set_size, seed=seed)
    return RunSpec(app, scale, protocol, config.replace(**config_overrides),
                   check)


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one cell from scratch."""
    return run_app(make_app(spec.app, spec.scale, config=spec.config),
                   spec.protocol, config=spec.config, check=spec.check)


# ------------------------------------------------------------- DiskCache

class DiskCache:
    """Content-addressed on-disk cache of :class:`RunResult` payloads.

    Layout, under ``root``::

        <key[:2]>/<key>.pkl    pickled RunResult
        <key[:2]>/<key>.json   metadata sidecar: the spec's canonical dict
                               plus a small result summary (inspectable
                               without unpickling)

    Writes are atomic (temp file + ``os.replace``) so concurrent sweep
    workers never expose a torn entry; corrupt or stale entries deserialize
    to ``None`` and the cell is transparently re-run.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _paths(self, key: str) -> Tuple[str, str]:
        shard = os.path.join(self.root, key[:2])
        return (os.path.join(shard, key + ".pkl"),
                os.path.join(shard, key + ".json"))

    def load(self, key: str) -> Optional[RunResult]:
        pkl, _meta = self._paths(key)
        try:
            with open(pkl, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, OSError, ValueError):
            # corrupt / truncated / written by an incompatible version:
            # drop it and let the caller re-run the cell
            self._evict(key)
            return None
        if not isinstance(result, RunResult):
            self._evict(key)
            return None
        return result

    def store(self, spec: RunSpec, result: RunResult) -> None:
        pkl, meta = self._paths(spec.key)
        os.makedirs(os.path.dirname(pkl), exist_ok=True)
        self._write_atomic(pkl, pickle.dumps(
            result, protocol=pickle.HIGHEST_PROTOCOL))
        doc = {"spec": spec.canonical(), "result": result.meta(),
               "provenance": provenance()}
        self._write_atomic(meta, json.dumps(
            doc, indent=2, sort_keys=True).encode("utf-8"))

    def _write_atomic(self, path: str, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _evict(self, key: str) -> None:
        for path in self._paths(key):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ---- inspection -----------------------------------------------------

    def keys(self) -> List[str]:
        out = []
        for shard in sorted(os.listdir(self.root)):
            sdir = os.path.join(self.root, shard)
            if not os.path.isdir(sdir):
                continue
            for name in sorted(os.listdir(sdir)):
                if name.endswith(".pkl"):
                    out.append(name[:-len(".pkl")])
        return out

    def entries(self) -> List[Dict[str, object]]:
        """Metadata sidecars of every entry (key, spec, result summary)."""
        out = []
        for key in self.keys():
            pkl, meta = self._paths(key)
            doc: Dict[str, object] = {"key": key}
            try:
                with open(meta, "r", encoding="utf-8") as fh:
                    doc.update(json.load(fh))
            except (OSError, ValueError):
                doc["error"] = "missing or unreadable metadata sidecar"
            try:
                doc["payload_bytes"] = os.path.getsize(pkl)
            except OSError:
                pass
            out.append(doc)
        return out

    def clear(self) -> int:
        """Delete every entry; returns the number of cells removed."""
        keys = self.keys()
        for key in keys:
            self._evict(key)
        return len(keys)


# ------------------------------------------------------------ the sweep

@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    specs: List[RunSpec]
    results: Dict[str, RunResult]  # spec key -> result
    hits_disk: int = 0
    executed: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    duplicates: int = 0  # cells requested more than once, folded away
    #: (cell, error) for every cell that raised
    failures: List[Tuple[RunSpec, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.specs)

    def result_for(self, spec: RunSpec) -> RunResult:
        return self.results[spec.key]

    def aggregates(self) -> Dict[str, int]:
        """Fleet totals summed over every cell's :class:`RunResult`.

        The fleet LAP hit rate is recomputed from the summed hits and
        scored transfers, so cells weigh in by their scored events.
        """
        agg = dict.fromkeys((
            "lock_acquires", "lap_hits", "lap_scored", "lap_pushed_bytes",
            "lap_wasted_bytes", "retransmissions", "injected_faults",
            "crashes", "restarts", "declared_dead"), 0)
        for spec in self.specs:
            r = self.results.get(spec.key)
            if r is None:
                continue
            agg["lock_acquires"] += r.total_lock_acquires
            if r.lap_stats is not None:
                for s in r.lap_stats.per_lock:
                    agg["lap_hits"] += s.hits["lap"]
                    agg["lap_scored"] += s.scored
            agg["lap_pushed_bytes"] += r.diff_stats.lap_pushed_bytes
            agg["lap_wasted_bytes"] += r.diff_stats.lap_wasted_total
            net = r.net_faults
            if net is not None:
                agg["retransmissions"] += net.retries
                agg["injected_faults"] += (net.dropped + net.duplicated
                                           + net.jittered + net.stalls)
            rec = r.recovery
            if rec is not None:
                agg["crashes"] += rec.crashes
                agg["restarts"] += rec.revivals
                agg["declared_dead"] += rec.peers_declared_dead
        return agg

    def metrics_summary(self) -> str:
        """The :meth:`aggregates`, rendered (zero-valued lines omitted)."""
        agg = self.aggregates()
        lines = ["sweep aggregates (summed over cells):",
                 f"  lock acquires        {agg['lock_acquires']:>14,}"]
        hits, scored = agg["lap_hits"], agg["lap_scored"]
        if scored:
            lines.append(f"  fleet LAP hit rate   {hits / scored:>14.3f} "
                         f"({hits:,}/{scored:,} scored transfers)")
        pushed, wasted = agg["lap_pushed_bytes"], agg["lap_wasted_bytes"]
        if pushed or wasted:
            lines.append(f"  pushed update bytes  {pushed:>14,}")
            lines.append(f"  wasted update bytes  {wasted:>14,}"
                         + (f" ({100.0 * wasted / pushed:.1f}% of pushed)"
                            if pushed else ""))
        if agg["retransmissions"]:
            lines.append(f"  retransmissions      "
                         f"{agg['retransmissions']:>14,}")
        if agg["injected_faults"]:
            lines.append(f"  injected faults      "
                         f"{agg['injected_faults']:>14,}")
        if agg["crashes"]:
            lines.append(f"  node crashes         {agg['crashes']:>14,}"
                         f" ({agg['restarts']:,} restarted, "
                         f"{agg['declared_dead']:,} declared dead)")
        return "\n".join(lines)

    def summary(self) -> str:
        parts = [f"{self.total} cells", f"{self.executed} executed",
                 f"{self.hits_disk} disk hits",
                 f"jobs={self.jobs}", f"{self.wall_seconds:.1f}s wall"]
        if self.duplicates:
            parts.insert(1, f"{self.duplicates} duplicate requests folded")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        return "sweep: " + ", ".join(parts)


def _pool_execute(spec: RunSpec
                  ) -> Tuple[str, Optional[RunResult], Optional[str]]:
    """Top-level worker so ``multiprocessing`` can pickle it.

    Failures are returned as data, not raised — one broken cell must not
    abort the rest of a fan-out.
    """
    try:
        return spec.key, execute_spec(spec), None
    except Exception as exc:  # noqa: BLE001 - reported by the parent
        return spec.key, None, f"{type(exc).__name__}: {exc}"


def run_sweep(specs: Iterable[RunSpec], jobs: int = 1,
              cache_dir: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> SweepReport:
    """Materialize every cell in ``specs``, in parallel, through the cache.

    A cell requested more than once runs once.  ``jobs <= 1`` runs
    misses inline; ``jobs > 1`` fans them out over a ``multiprocessing``
    pool.  Because each cell's seed and config are frozen in its spec,
    scheduling order cannot affect any result and the parallel path is
    identical to the serial one.

    ``cache_dir`` opens a disk cache for this call only: a cell is read
    from it, else run and stored in it, so a warm re-run executes zero
    simulations.
    """
    disk = DiskCache(cache_dir) if cache_dir is not None else None

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    t0 = time.perf_counter()
    unique: List[RunSpec] = []
    seen = set()
    duplicates = 0
    for spec in specs:
        if spec.key in seen:
            duplicates += 1
            continue
        seen.add(spec.key)
        unique.append(spec)

    report = SweepReport(specs=unique, results={}, jobs=max(1, int(jobs)),
                         duplicates=duplicates)
    missing: List[RunSpec] = []
    for spec in unique:
        result = disk.load(spec.key) if disk is not None else None
        if result is None:
            missing.append(spec)
        else:
            report.results[spec.key] = result
            report.hits_disk += 1

    say(f"{len(unique)} cells: {report.hits_disk} cached, "
        f"{len(missing)} to run (jobs={report.jobs})")

    by_key = {spec.key: spec for spec in missing}
    if report.jobs > 1 and len(missing) > 1:
        with multiprocessing.Pool(processes=report.jobs) as pool:
            outcomes = pool.imap_unordered(_pool_execute, missing)
            for key, result, error in outcomes:
                _finish_cell(report, by_key[key], result, error, disk, say)
    else:
        for spec in missing:
            _key, result, error = _pool_execute(spec)
            _finish_cell(report, spec, result, error, disk, say)

    report.wall_seconds = time.perf_counter() - t0
    return report


def _finish_cell(report: SweepReport, spec: RunSpec,
                 result: Optional[RunResult], error: Optional[str],
                 disk: Optional[DiskCache],
                 say: Callable[[str], None]) -> None:
    if result is None:
        report.failures.append((spec, error or "unknown error"))
        say(f"FAILED {spec.name}: {error}")
        return
    report.results[spec.key] = result
    if disk is not None:
        disk.store(spec, result)
    report.executed += 1
    say(f"ran {spec.label} "
        f"(T={result.execution_time / 1e6:.2f}Mcy, "
        f"{result.wall_seconds:.1f}s wall)")
