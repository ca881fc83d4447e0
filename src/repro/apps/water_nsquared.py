"""Water-nsquared — O(n²) molecular dynamics communication skeleton.

Per the SPLASH-2 original: molecule *positions* are updated by their owner
outside critical sections (barrier-protected); inter-molecule *force*
contributions are accumulated under one lock per molecule (the paper's
vars 4-515 — 98.4 % of all lock events); a handful of global accumulators
are protected by global locks.  Each processor updates the forces of a
contiguous half-range of molecules following its own block, so every
molecule lock migrates between a small, stable set of processors — the
pattern LAP's *affinity* technique learns.  Acquire notices (the *virtual
queue*) are issued a configurable lookahead ahead of each molecule-lock
acquire, as the paper did by hand for Water-nsquared.

The physics is replaced by deterministic integer-valued contributions so
that every protocol's data movement is exactly checkable: the program
asserts mid-run that positions/forces read equal the values the sharing
pattern implies.
"""
from __future__ import annotations

from typing import Generator, List

import numpy as np

from repro.apps.api import AppContext, Application
from repro.apps.util import block_range
from repro.memory.layout import Layout
from repro.sync.objects import SyncRegistry

POS_WORDS = 48    # words per molecule of outside-of-CS state (the original
                  # VAR record holds ~50 doubles of positions/derivatives)
FRC_WORDS = 8     # words per molecule in the force array
PAIR_CYCLES = 420  # private cycles per interacting pair
NUM_GLOBAL_LOCKS = 6


def _contribution(p: int, j: int, step: int) -> float:
    """Deterministic integer force contribution of proc p to molecule j."""
    return float((p * 1315423911 + j * 2654435761 + step * 97) % 1000)


def _position(j: int, step: int) -> float:
    return float((j * 31 + step * 7919) % 100000)


class WaterNsquaredApp(Application):
    name = "water-ns"

    def __init__(self, num_molecules: int = 512, steps: int = 5,
                 notice_lookahead: int = 4) -> None:
        if num_molecules % 2:
            raise ValueError("number of molecules must be even")
        self.n = num_molecules
        self.steps = steps
        self.lookahead = notice_lookahead

    # ---- sharing pattern -------------------------------------------------------

    def update_targets(self, p: int, nprocs: int) -> List[int]:
        """Molecules whose forces processor ``p`` updates each step:
        its own block plus the following half-range (mod n)."""
        lo, hi = block_range(self.n, nprocs, p)
        reach = hi + self.n // 2
        return [j % self.n for j in range(lo, reach)]

    def contributor_table(self, nprocs: int) -> List[List[int]]:
        """Per molecule, the processors whose update targets include it,
        in processor order (each processor once)."""
        table: List[List[int]] = [[] for _ in range(self.n)]
        for p in range(nprocs):
            for j in set(self.update_targets(p, nprocs)):
                table[j].append(p)
        return table

    def contributors(self, j: int, nprocs: int) -> List[int]:
        return self.contributor_table(nprocs)[j]

    def expected_force(self, j: int, contributors: List[int]) -> float:
        """Molecule ``j``'s final force: every step's contributions,
        summed in processor order."""
        total = 0.0
        for step in range(self.steps):
            for p in contributors:
                total += _contribution(p, j, step)
        return total

    # ---- declaration --------------------------------------------------------------

    def declare(self, layout: Layout, sync: SyncRegistry) -> None:
        self.positions = layout.allocate("water.pos", self.n * POS_WORDS)
        self.forces = layout.allocate("water.frc", self.n * FRC_WORDS)
        self.globals_seg = layout.allocate("water.glb",
                                           NUM_GLOBAL_LOCKS * 16)
        self.global_locks = sync.new_locks("glock", NUM_GLOBAL_LOCKS,
                                           group="global")
        self.mol_locks = sync.new_locks("mol", self.n, group="molecule")
        self.bar = sync.new_barrier("water.bar")

    # ---- program -------------------------------------------------------------------

    def program(self, ctx: AppContext) -> Generator:
        lo, hi = block_range(self.n, ctx.nprocs, ctx.proc)
        targets = self.update_targets(ctx.proc, ctx.nprocs)
        yield from ctx.barrier(self.bar)  # start line

        for step in range(self.steps):
            # phase 1: predict/update own molecules' positions (outside CS)
            for j in range(lo, hi):
                yield from ctx.write(self.positions, j * POS_WORDS,
                                     np.full(POS_WORDS, _position(j, step)))
            yield from ctx.compute(2500 * (hi - lo))
            yield from ctx.barrier(self.bar)

            # phase 2: inter-molecular forces under per-molecule locks;
            # acquire notices are sent far enough ahead to beat the
            # inter-processor stagger (one block of molecules), as the
            # paper's hand-inserted notices did
            lookahead = max(self.lookahead, (hi - lo) + 4) \
                if self.lookahead else 0
            for k, j in enumerate(targets):
                if lookahead and k + lookahead < len(targets):
                    yield from ctx.acquire_notice(
                        self.mol_locks[targets[k + lookahead]])
                pos = yield from ctx.read(self.positions, j * POS_WORDS,
                                          POS_WORDS)
                assert pos[0] == _position(j, step), \
                    f"stale position of molecule {j} at step {step}"
                yield from ctx.compute(PAIR_CYCLES * max(self.n // 16, 1))
                yield from ctx.acquire(self.mol_locks[j])
                frc = yield from ctx.read(self.forces, j * FRC_WORDS,
                                          FRC_WORDS)
                frc[0] += _contribution(ctx.proc, j, step)
                yield from ctx.write(self.forces, j * FRC_WORDS, frc)
                yield from ctx.release(self.mol_locks[j])
            yield from ctx.barrier(self.bar)

            # phase 3: integrate own molecules, accumulate global sums
            kinetic = 0.0
            for j in range(lo, hi):
                frc = yield from ctx.read(self.forces, j * FRC_WORDS, 1)
                kinetic += frc[0]
            yield from ctx.compute(1500 * (hi - lo))
            for g in range(2):
                lock = self.global_locks[(ctx.proc + g) % NUM_GLOBAL_LOCKS]
                gidx = ((ctx.proc + g) % NUM_GLOBAL_LOCKS) * 16
                yield from ctx.acquire(lock)
                v = yield from ctx.read1(self.globals_seg, gidx)
                yield from ctx.write1(self.globals_seg, gidx, v + kinetic)
                yield from ctx.release(lock)
            yield from ctx.barrier(self.bar)

            # phases 4-6: scaling / bookkeeping barriers of the original
            yield from ctx.compute(700 * (hi - lo))
            yield from ctx.barrier(self.bar)
            yield from ctx.compute(400 * (hi - lo))
            yield from ctx.barrier(self.bar)
            yield from ctx.compute(300 * (hi - lo))
            yield from ctx.barrier(self.bar)

        # final: read back own molecules' forces for validation
        out = []
        for j in range(lo, hi):
            frc = yield from ctx.read(self.forces, j * FRC_WORDS, 1)
            out.append((j, float(frc[0])))
        yield from ctx.barrier(self.bar)
        return out

    # ---- validation -----------------------------------------------------------------

    def check(self, results: List[List]) -> None:
        table = self.contributor_table(len(results))
        for per_proc in results:
            for j, got in per_proc:
                expected = self.expected_force(j, table[j])
                assert got == expected, \
                    f"molecule {j}: force {got} != {expected}"

    def describe(self):
        return {"name": self.name, "molecules": self.n, "steps": self.steps}
