"""Delta-debugging minimizer for failing workload specs.

Given a :class:`~repro.fuzz.generator.WorkloadSpec` that makes a protocol
fail — consistency-checker violations, wrong checksums, final memory
diverging from the oracle, or an outright exception — :func:`shrink_spec`
greedily reduces it while re-testing after every candidate edit, keeping
only edits that preserve *some* failure.  The result is a minimal
reproducer small enough to read: typically 2 nodes, one tiny segment, a
couple of critical sections.

The reduction passes (applied repeatedly until a fixpoint or the run
budget is exhausted):

1. drop whole phases,
2. reduce the machine to fewer processors (the compiled schedule
   re-partitions, so any spec runs at any ``num_procs``),
3. shrink segments to a handful of words (sub-page),
4. shrink per-phase knobs: critical sections, spans, writes, reads,
   extra reads, compute cycles,
5. drop locks from locked phases, then normalize lock/barrier ids dense.

Each distinct candidate is certified once per shrink, and every
certification is one full simulation plus the SC run that gives its
oracle image, so the budget is counted in *runs*, not edits.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.config import SimConfig
from repro.faults.plan import FaultPlan
from repro.fuzz.generator import PhaseSpec, WorkloadSpec, config_for_spec


def spec_cell(spec: WorkloadSpec, protocol: str,
              faults: Optional[FaultPlan] = None
              ) -> Tuple[str, str, SimConfig]:
    """``spec`` under ``protocol`` and ``faults`` with the checker armed,
    as a :func:`repro.check.oracle.certify` cell."""
    return (f"fuzz:{spec.seed}", protocol, config_for_spec(spec).replace(
        check_consistency=True, faults=faults))


def spec_failure(spec: WorkloadSpec, protocol: str,
                 faults: Optional[FaultPlan] = None) -> Optional[str]:
    """Certify ``spec``'s cell (:func:`spec_cell`): ``None`` when the run
    is completely healthy, otherwise its failure signature (``check:``,
    ``appcheck:``, ``diverge:`` or ``error:``)."""
    from repro.check.oracle import certify

    verdicts, _sweep = certify([spec_cell(spec, protocol, faults)])
    return verdicts[0].failure


@dataclass
class ShrinkResult:
    """Outcome of one :func:`shrink_spec` call."""

    original: WorkloadSpec
    minimal: WorkloadSpec
    #: failure signature of the minimal spec
    minimal_failure: str
    runs: int = 0

    def summary(self) -> str:
        o, m = self.original, self.minimal
        return (f"shrink: {o.num_procs}p/{len(o.phases)}ph/"
                f"{sum(o.segments)}w -> {m.num_procs}p/{len(m.phases)}ph/"
                f"{sum(m.segments)}w in {self.runs} runs; "
                f"failure: {self.minimal_failure}")


def _normalize(spec: WorkloadSpec) -> WorkloadSpec:
    """Renumber locks and barriers densely and drop unused ones."""
    locks = sorted({lock for ph in spec.phases for lock in ph.locks})
    bars = sorted({ph.barrier for ph in spec.phases})
    lmap = {old: new for new, old in enumerate(locks)}
    bmap = {old: new for new, old in enumerate(bars)}
    segs = sorted({ph.segment for ph in spec.phases})
    smap = {old: new for new, old in enumerate(segs)}
    phases = tuple(dataclasses.replace(
        ph, locks=tuple(lmap[lk] for lk in ph.locks),
        barrier=bmap[ph.barrier], segment=smap[ph.segment])
        for ph in spec.phases)
    return dataclasses.replace(
        spec, phases=phases,
        segments=tuple(spec.segments[s] for s in segs) or (spec.segments[0],),
        num_locks=len(locks), num_barriers=max(len(bars), 1))


def _phase_edits(ph: PhaseSpec) -> List[PhaseSpec]:
    """Candidate smaller versions of one phase, most aggressive first."""
    out = []

    def rep(**kw):
        try:
            out.append(dataclasses.replace(ph, **kw))
        except ValueError:
            pass

    if ph.kind == "locked":
        if ph.cs_per_proc > 1:
            rep(cs_per_proc=max(1, ph.cs_per_proc // 2))
            rep(cs_per_proc=ph.cs_per_proc - 1)
        if len(ph.locks) > 1:
            rep(locks=ph.locks[:1])
            rep(locks=ph.locks[:len(ph.locks) // 2] or ph.locks[:1])
        if ph.extra_reads:
            rep(extra_reads=0)
        if ph.affinity_skew:
            rep(affinity_skew=0.0)
        if ph.notice:
            rep(notice=False)
    else:
        if ph.writes > 1:
            rep(writes=max(1, ph.writes // 2))
            rep(writes=ph.writes - 1)
        if ph.reads:
            rep(reads=0)
            rep(reads=max(0, ph.reads // 2))
    if ph.span > 1:
        rep(span=1)
        rep(span=max(1, ph.span // 2))
    if ph.compute_cycles:
        rep(compute_cycles=0)
    return out


def shrink_spec(spec: WorkloadSpec, protocol: str,
                faults: Optional[FaultPlan] = None,
                max_runs: int = 400,
                progress: Optional[Callable[[str], None]] = None
                ) -> ShrinkResult:
    """Greedily minimize ``spec`` while it keeps failing under ``protocol``.

    Raises ``ValueError`` if ``spec`` does not fail to begin with — a
    passing spec has nothing to shrink.
    """
    runs = [0]

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def failing(cand: WorkloadSpec) -> Optional[str]:
        runs[0] += 1
        return spec_failure(cand, protocol, faults=faults)

    first = failing(spec)
    if first is None:
        raise ValueError(
            f"spec (seed {spec.seed}) does not fail under {protocol!r}; "
            "nothing to shrink")
    current, current_failure = spec, first
    # every candidate certified so far: the passes propose some twice
    tried = {spec}

    def budget() -> bool:
        return runs[0] < max_runs

    def try_accept(cand: WorkloadSpec) -> bool:
        nonlocal current, current_failure
        if cand in tried:
            return False
        tried.add(cand)
        try:
            sig = failing(cand)
        except Exception:  # noqa: BLE001 - invalid candidate: reject
            return False
        if sig is None:
            return False
        current, current_failure = cand, sig
        return True

    improved = True
    while improved and budget():
        improved = False

        # pass 1: drop whole phases (last to first keeps indices stable)
        accepted = 0
        i = len(current.phases) - 1
        while i >= 0 and budget():
            if len(current.phases) > 1:
                cand = dataclasses.replace(
                    current,
                    phases=current.phases[:i] + current.phases[i + 1:])
                if try_accept(cand):
                    accepted += 1
                    improved = True
            i -= 1
        if accepted:
            say(f"dropped {accepted} phase(s), "
                f"{len(current.phases)} left ({runs[0]} runs)")

        # pass 2: fewer processors (halve, then decrement)
        accepted = 0
        while current.num_procs > 2 and budget():
            for nxt in (max(2, current.num_procs // 2),
                        current.num_procs - 1):
                if nxt < current.num_procs and try_accept(
                        dataclasses.replace(current, num_procs=nxt)):
                    accepted += 1
                    break
            else:
                break
        if accepted:
            say(f"reduced to {current.num_procs} procs ({runs[0]} runs)")

        # pass 3: shrink segments toward a handful of words
        accepted = 0
        for si in range(len(current.segments)):
            words = current.segments[si]
            for target in (8, 16, 64, words // 2):
                if not budget() or target >= words or target < 1:
                    continue
                segs = list(current.segments)
                segs[si] = int(target)
                if try_accept(dataclasses.replace(current,
                                                  segments=tuple(segs))):
                    accepted += 1
                    break
        if accepted:
            say(f"segments now {current.segments} ({runs[0]} runs)")

        # pass 4: shrink per-phase knobs
        accepted = 0
        for pi in range(len(current.phases)):
            changed = True
            while changed and budget():
                changed = False
                for edit in _phase_edits(current.phases[pi]):
                    phases = list(current.phases)
                    phases[pi] = edit
                    if try_accept(dataclasses.replace(
                            current, phases=tuple(phases))):
                        accepted += 1
                        changed = True
                        break
        if accepted:
            say(f"{accepted} phase knob reduction(s) ({runs[0]} runs)")

    # final cleanup: dense lock/barrier/segment numbering
    cand = _normalize(current)
    if cand != current and budget():
        try_accept(cand)

    return ShrinkResult(original=spec, minimal=current,
                        minimal_failure=current_failure, runs=runs[0])
