"""Seeded property-based workload generator.

A :class:`WorkloadSpec` is pure frozen-dataclass data — like
:class:`~repro.faults.plan.FaultPlan` it survives ``dataclasses.asdict``,
rides inside :class:`~repro.config.SimConfig` (field ``workload``) and
therefore participates in the canonical config dict and every sweep cache
key.  ``generate_spec(seed, scale)`` draws one deterministically from the
workload design space the paper's analysis spans: critical-section length,
contention level (locks per phase, critical sections per processor) and
affinity skew (how strongly a processor favours its "home" lock — the
knob LAP exists to exploit).

A spec compiles to per-phase, per-processor op schedules
(:func:`compile_schedule`) interpreted against the ordinary
:class:`~repro.apps.api.AppContext` vocabulary.  Two phase kinds keep every
generated program data-race-free **by construction** — the checker and the
SC oracle must come back clean on a correct protocol, so any report is a
protocol bug, not workload noise:

* ``owner`` — the segment is block-partitioned by processor; each
  processor writes only its own block, a barrier publishes, then anyone
  reads any block (read-only epoch), and a second barrier closes the
  phase.
* ``locked`` — the phase's locks partition the segment into disjoint
  regions; every access to a region happens inside a critical section of
  its lock.  Writes are *commutative* read-modify-writes (add an
  integer-valued constant), so the final memory image is independent of
  lock-grant order and exactly predictable.

All written values are integer-valued float64s: sums are exact, so
:func:`expected_final` computes the final shared memory analytically and
``GeneratedApp.check`` verifies every processor's post-barrier checksum
against it.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generator, List, Sequence, Tuple

import numpy as np

from repro.apps.api import Application, AppContext
from repro.apps.util import block_range
from repro.memory.layout import Layout, Segment
from repro.sync.objects import SyncRegistry

PHASE_KINDS = ("owner", "locked")


@dataclass(frozen=True)
class PhaseSpec:
    """One barrier-delimited phase of a generated workload."""

    #: ``"owner"`` or ``"locked"`` (see module docstring)
    kind: str
    #: index into ``WorkloadSpec.segments``
    segment: int
    #: barrier object used by this phase (index < ``num_barriers``)
    barrier: int
    #: locked: global lock ids; lock ``i`` of ``L`` guards block ``i`` of
    #: the segment partitioned ``L`` ways (disjoint regions by construction)
    locks: Tuple[int, ...] = ()
    #: locked: critical sections per processor (contention level)
    cs_per_proc: int = 0
    #: words touched per access (critical-section length knob)
    span: int = 1
    #: locked: extra in-CS reads of the protected region
    extra_reads: int = 0
    #: owner: writes into the processor's own block
    writes: int = 0
    #: owner: post-barrier reads of arbitrary blocks
    reads: int = 0
    #: private computation between accesses
    compute_cycles: int = 0
    #: locked: probability a CS uses the processor's home lock
    #: (1.0 = perfect affinity, LAP's best case; 0.0 = uniform contention)
    affinity_skew: float = 0.0
    #: locked: announce intent via ``acquire_notice`` (LAP virtual queue)
    notice: bool = False

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.kind == "locked" and not self.locks:
            raise ValueError("locked phase needs at least one lock")
        if self.span < 1:
            raise ValueError("span must be >= 1")
        if not (0.0 <= self.affinity_skew <= 1.0):
            raise ValueError("affinity_skew must be in [0, 1]")


@dataclass(frozen=True)
class WorkloadSpec:
    """Pure-data identity of one generated workload.

    Everything a run needs — and nothing host-specific — so equal specs
    mean equal programs, and the canonical config hash covers the whole
    workload, not just its seed.
    """

    seed: int
    #: intended machine size; campaign/replay set ``machine.num_procs``
    #: from this (the compiled schedule adapts to the actual nprocs)
    num_procs: int
    #: segment sizes in words
    segments: Tuple[int, ...]
    num_locks: int
    num_barriers: int
    phases: Tuple[PhaseSpec, ...]

    def __post_init__(self) -> None:
        if self.num_procs < 1 or self.num_locks < 0 or self.num_barriers < 1:
            raise ValueError("invalid workload dimensions")
        if not self.segments or any(w < 1 for w in self.segments):
            raise ValueError("segments must be non-empty positive sizes")
        for ph in self.phases:
            if not (0 <= ph.segment < len(self.segments)):
                raise ValueError(f"phase references segment {ph.segment}")
            if not (0 <= ph.barrier < self.num_barriers):
                raise ValueError(f"phase references barrier {ph.barrier}")
            for lock in ph.locks:
                if not (0 <= lock < self.num_locks):
                    raise ValueError(f"phase references lock {lock}")

    @property
    def name(self) -> str:
        return f"fuzz:{self.seed}"

    def total_pages(self, words_per_page: int = 1024) -> int:
        return sum((w + words_per_page - 1) // words_per_page
                   for w in self.segments)


# ------------------------------------------------------------ generation

#: per-scale draw ranges: (lo, hi) inclusive unless noted
_RANGES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "test": dict(procs=(2, 5), nseg=(1, 3), seg_words=(16, 2048),
                 nlocks=(1, 6), nbars=(1, 3), phases=(2, 5),
                 cs=(1, 6), span=(1, 16), writes=(1, 5), reads=(0, 5),
                 extra_reads=(0, 3), compute=(0, 2000)),
    "bench": dict(procs=(4, 16), nseg=(1, 4), seg_words=(256, 8192),
                  nlocks=(1, 8), nbars=(1, 4), phases=(3, 8),
                  cs=(2, 10), span=(1, 64), writes=(1, 8), reads=(0, 8),
                  extra_reads=(0, 4), compute=(0, 10_000)),
    "paper": dict(procs=(8, 16), nseg=(2, 6), seg_words=(1024, 16384),
                  nlocks=(2, 12), nbars=(1, 4), phases=(4, 12),
                  cs=(4, 16), span=(1, 128), writes=(2, 12), reads=(0, 12),
                  extra_reads=(0, 4), compute=(0, 50_000)),
}

#: domain-separation constant so fuzz streams never collide with app seeds
_STREAM = 0xF0_52_EC


def _draw(rng: np.random.Generator, lo_hi: Tuple[int, int]) -> int:
    lo, hi = lo_hi
    return int(rng.integers(lo, hi + 1))


def generate_spec(seed: int, scale: str = "test") -> WorkloadSpec:
    """Deterministically derive one :class:`WorkloadSpec` from ``seed``.

    Same (seed, scale) always yields the identical spec — object equality,
    not just behavioural equality — which is what makes ``fuzz:SEED`` a
    stable application id and a stable cache-key component.
    """
    try:
        r = _RANGES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; "
                         f"choose from {tuple(_RANGES)}") from None
    rng = np.random.default_rng((_STREAM, int(seed),
                                 tuple(_RANGES).index(scale)))
    num_procs = _draw(rng, r["procs"])
    segments = tuple(_draw(rng, r["seg_words"])
                     for _ in range(_draw(rng, r["nseg"])))
    num_locks = _draw(rng, r["nlocks"])
    num_barriers = _draw(rng, r["nbars"])
    phases: List[PhaseSpec] = []
    for _ in range(_draw(rng, r["phases"])):
        segment = int(rng.integers(0, len(segments)))
        barrier = int(rng.integers(0, num_barriers))
        span = _draw(rng, r["span"])
        compute = _draw(rng, r["compute"])
        if rng.random() < 0.65:
            nlocks_phase = int(rng.integers(1, min(4, num_locks) + 1))
            lock0 = int(rng.integers(0, num_locks - nlocks_phase + 1))
            phases.append(PhaseSpec(
                kind="locked", segment=segment, barrier=barrier,
                locks=tuple(range(lock0, lock0 + nlocks_phase)),
                cs_per_proc=_draw(rng, r["cs"]), span=span,
                extra_reads=_draw(rng, r["extra_reads"]),
                compute_cycles=compute,
                affinity_skew=float(rng.choice(
                    [0.0, 0.25, 0.5, 0.75, 1.0])),
                notice=bool(rng.random() < 0.25)))
        else:
            phases.append(PhaseSpec(
                kind="owner", segment=segment, barrier=barrier,
                span=span, writes=_draw(rng, r["writes"]),
                reads=_draw(rng, r["reads"]), compute_cycles=compute))
    return WorkloadSpec(seed=int(seed), num_procs=num_procs,
                        segments=segments, num_locks=num_locks,
                        num_barriers=num_barriers, phases=tuple(phases))


# ----------------------------------------------------------- compilation
#
# Op vocabulary (plain tuples; shared with the trace replayer):
#   ("cmp", cycles)             private compute
#   ("acq"|"rel"|"ntc", lock)   lock acquire / release / acquire_notice
#   ("bar", barrier)            global barrier
#   ("rd", seg, start, n)       ordinary shared read
#   ("crd", seg, start, n)      checksum read: value folds into the
#                               program's return value (only emitted in
#                               schedule positions where the read is
#                               schedule-independent)
#   ("wr", seg, start, values)  absolute write (values: tuple of floats)
#   ("add", seg, start, n, c)   commutative read-modify-write: += c

def interpret(ctx: AppContext, ops: Sequence[Tuple],
              segments: Sequence[Segment]) -> Generator:
    """Execute an op schedule against an :class:`AppContext`.

    Returns the accumulated checksum of every ``crd`` read.
    """
    checksum = 0.0
    for op in ops:
        kind = op[0]
        if kind == "cmp":
            yield from ctx.compute(op[1])
        elif kind == "acq":
            yield from ctx.acquire(op[1])
        elif kind == "rel":
            yield from ctx.release(op[1])
        elif kind == "bar":
            yield from ctx.barrier(op[1])
        elif kind == "ntc":
            yield from ctx.acquire_notice(op[1])
        elif kind == "rd":
            yield from ctx.read(segments[op[1]], op[2], op[3])
        elif kind == "crd":
            data = yield from ctx.read(segments[op[1]], op[2], op[3])
            checksum += float(np.sum(data))
        elif kind == "wr":
            yield from ctx.write(segments[op[1]], op[2], op[3])
        elif kind == "add":
            _, si, start, n, const = op
            current = yield from ctx.read(segments[si], start, n)
            yield from ctx.write(
                segments[si], start,
                np.asarray(current, dtype=np.float64) + const)
        else:
            raise ValueError(f"unknown op {op!r}")
    return checksum


def _phase_rng(spec: WorkloadSpec, phase: int,
               proc: int) -> np.random.Generator:
    return np.random.default_rng((_STREAM, spec.seed, phase, proc))


#: words read back per segment by the checksum epilogue
CHECKSUM_WINDOW = 64

#: one op tuple per processor; a schedule is one phase per spec phase,
#: then the epilogue
Phase = Tuple[Tuple[Tuple, ...], ...]
Schedule = Tuple[Phase, ...]

#: compiled schedules (and their analytic walks) kept per process.  Every
#: cell of one spec — each run's ``program`` calls and its ``check`` — asks
#: for the same ``(spec, nprocs)``, and a campaign or certify round runs a
#: spec's cells back to back, so a handful of entries compiles each spec
#: once per round.
_MEMO_SIZE = 8


@lru_cache(maxsize=_MEMO_SIZE)
def compile_schedule(spec: WorkloadSpec, nprocs: int) -> Schedule:
    """Per-phase, per-processor op tuples (plus the checksum epilogue).

    The schedule partitions by the *actual* machine size, so a spec runs
    under any ``num_procs`` (shrinking exploits this); all draws come from
    per-(seed, phase, proc) streams, never from wall time or id().  The
    result is memoized, so it is immutable: nested tuples all the way down.
    """
    phases: List[Phase] = []
    for pi, ph in enumerate(spec.phases):
        seg_words = spec.segments[ph.segment]
        per_proc: List[List[Tuple]] = []
        for p in range(nprocs):
            rng = _phase_rng(spec, pi, p)
            ops: List[Tuple] = []
            if ph.kind == "owner":
                _compile_owner(ph, seg_words, nprocs, p, rng, ops)
            else:
                _compile_locked(ph, seg_words, p, rng, ops)
            ops.append(("bar", ph.barrier))
            per_proc.append(ops)
        if ph.kind == "owner":
            # read-only epoch: after the publish barrier everyone may read
            # any block; a second barrier closes the phase before the next
            # phase's writers start
            for p in range(nprocs):
                rng = _phase_rng(spec, pi, nprocs + p)
                ops = per_proc[p]
                for _ in range(ph.reads):
                    q = int(rng.integers(0, nprocs))
                    qs, qe = block_range(seg_words, nprocs, q) \
                        if seg_words >= nprocs else (0, seg_words)
                    if qe <= qs:
                        continue
                    span = min(ph.span, qe - qs)
                    off = qs + int(rng.integers(0, qe - qs - span + 1))
                    ops.append(("crd", ph.segment, off, span))
                ops.append(("bar", ph.barrier))
        phases.append(tuple(tuple(ops) for ops in per_proc))
    # epilogue: final barrier, then every processor reads the same window
    # of every segment — post-barrier, read-only, so the checksums must be
    # identical across processors and equal to expected_final()
    fin = spec.num_barriers  # dedicated epilogue barrier id
    epilogue = (("bar", fin),) + tuple(
        ("crd", si, 0, min(CHECKSUM_WINDOW, words))
        for si, words in enumerate(spec.segments))
    phases.append((epilogue,) * nprocs)
    return tuple(phases)


def _compile_owner(ph: PhaseSpec, seg_words: int, nprocs: int, p: int,
                   rng: np.random.Generator, ops: List[Tuple]) -> None:
    if seg_words >= nprocs:
        start, stop = block_range(seg_words, nprocs, p)
    else:
        # degenerate tiny segment: give it all to proc 0
        start, stop = (0, seg_words) if p == 0 else (0, 0)
    for _ in range(ph.writes):
        if ph.compute_cycles:
            ops.append(("cmp", float(ph.compute_cycles)))
        if stop <= start:
            continue
        span = min(ph.span, stop - start)
        off = start + int(rng.integers(0, stop - start - span + 1))
        values = tuple(float(v) for v in rng.integers(0, 256, size=span))
        ops.append(("wr", ph.segment, off, values))


def _compile_locked(ph: PhaseSpec, seg_words: int, p: int,
                    rng: np.random.Generator, ops: List[Tuple]) -> None:
    nlocks = len(ph.locks)
    home = ph.locks[p % nlocks]
    for _ in range(ph.cs_per_proc):
        if ph.compute_cycles:
            ops.append(("cmp", float(ph.compute_cycles)))
        if rng.random() < ph.affinity_skew:
            lock = home
        else:
            lock = ph.locks[int(rng.integers(0, nlocks))]
        region = ph.locks.index(lock)
        rs, re_ = block_range(seg_words, nlocks, region) \
            if seg_words >= nlocks else \
            ((0, seg_words) if region == 0 else (0, 0))
        if ph.notice:
            ops.append(("ntc", lock))
        ops.append(("acq", lock))
        if re_ > rs:
            span = min(ph.span, re_ - rs)
            off = rs + int(rng.integers(0, re_ - rs - span + 1))
            const = float(int(rng.integers(1, 9)))
            ops.append(("add", ph.segment, off, span, const))
            for _ in range(ph.extra_reads):
                off2 = rs + int(rng.integers(0, re_ - rs - span + 1))
                ops.append(("rd", ph.segment, off2, span))
        ops.append(("rel", lock))


@lru_cache(maxsize=_MEMO_SIZE)
def _walk_expected(spec: WorkloadSpec, nprocs: int
                   ) -> Tuple[Tuple[np.ndarray, ...], Tuple[float, ...]]:
    """Final memory and per-processor checksums, computed analytically.

    Valid because the generated program is schedule-independent by
    construction: owner blocks are disjoint within a phase, phases are
    barrier-ordered, and locked writes are exact integer additions.
    Checksum (``crd``) reads only occur in read-only epochs, i.e. after
    every write of their phase, so each phase applies all writes first and
    then evaluates that phase's reads against the updated memory.  The
    result is memoized: its arrays are read-only.
    """
    memory = [np.zeros(w, dtype=np.float64) for w in spec.segments]
    checksums = [0.0] * nprocs
    for phase_ops in compile_schedule(spec, nprocs):
        for proc_ops in phase_ops:
            for op in proc_ops:
                if op[0] == "wr":
                    _, si, off, values = op
                    memory[si][off:off + len(values)] = values
                elif op[0] == "add":
                    _, si, off, n, const = op
                    memory[si][off:off + n] += const
        for p, proc_ops in enumerate(phase_ops):
            for op in proc_ops:
                if op[0] == "crd":
                    _, si, off, n = op
                    checksums[p] += float(np.sum(memory[si][off:off + n]))
    for words in memory:
        words.flags.writeable = False
    return tuple(memory), tuple(checksums)


def expected_final(spec: WorkloadSpec, nprocs: int) -> List[np.ndarray]:
    """The final shared memory image (one fresh array per segment)."""
    return [words.copy() for words in _walk_expected(spec, nprocs)[0]]


class GeneratedApp(Application):
    """A :class:`WorkloadSpec` compiled into a runnable application."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.name = spec.name

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.spec.seed,
                "phases": len(self.spec.phases),
                "segments": list(self.spec.segments),
                "locks": self.spec.num_locks}

    def declare(self, layout: Layout, sync: SyncRegistry) -> None:
        self.segments = [layout.allocate(f"fz.s{i}", words)
                         for i, words in enumerate(self.spec.segments)]
        for i in range(self.spec.num_locks):
            sync.new_lock(f"fz.l{i}", group="fuzz")
        for i in range(self.spec.num_barriers):
            sync.new_barrier(f"fz.b{i}")
        sync.new_barrier("fz.fin")

    def program(self, ctx: AppContext) -> Generator:
        ops = [op for phase in compile_schedule(self.spec, ctx.nprocs)
               for op in phase[ctx.proc]]
        checksum = yield from interpret(ctx, ops, self.segments)
        return checksum

    def check(self, results: List[Any]) -> None:
        _memory, want = _walk_expected(self.spec, len(results))
        for p, got in enumerate(results):
            assert got == want[p], (
                f"proc {p}: checksum {got!r} != expected {want[p]!r}")


# -------------------------------------------------------- serialization

def spec_to_dict(spec: WorkloadSpec) -> Dict[str, Any]:
    """JSON-safe dict (tuples become lists, exactly like the canonical
    config dict)."""
    return dataclasses.asdict(spec)


def spec_from_dict(doc: Dict[str, Any]) -> WorkloadSpec:
    phases = tuple(PhaseSpec(**{**ph, "locks": tuple(ph.get("locks", ()))})
                   for ph in doc["phases"])
    return WorkloadSpec(seed=int(doc["seed"]),
                        num_procs=int(doc["num_procs"]),
                        segments=tuple(int(w) for w in doc["segments"]),
                        num_locks=int(doc["num_locks"]),
                        num_barriers=int(doc["num_barriers"]),
                        phases=phases)


def load_spec(source: str, scale: str = "test") -> WorkloadSpec:
    """Resolve a CLI spec argument: a seed integer, or a JSON file path
    (either a bare spec dict or a corpus document with a ``"spec"`` key).
    """
    try:
        return generate_spec(int(source), scale)
    except ValueError:
        pass
    with open(source, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return spec_from_dict(doc.get("spec", doc))


def config_for_spec(spec: WorkloadSpec, base=None):
    """A :class:`SimConfig` sized for ``spec`` with the workload riding in
    the canonical config (distinct cache cells per spec)."""
    from repro.config import SimConfig
    base = base if base is not None else SimConfig()
    machine = dataclasses.replace(base.machine, num_procs=spec.num_procs)
    return base.replace(machine=machine, workload=spec)
