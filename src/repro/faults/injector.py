"""Seeded interpretation of a :class:`~repro.faults.plan.FaultPlan`.

The reliable transport owns one injector and asks it, for every wire copy
the simulator puts on the network, for the *fates* of that message —
delivered or dropped, with how much extra delivery delay, and whether a
duplicate copy follows.  The injector also arms the plan's node stalls.
All randomness comes from one dedicated ``random.Random`` stream seeded by
``plan.seed``, so a given (plan, seed, workload) is exactly reproducible
and independent of the application's own seed.

Fault-free runs build no injector at all: ``Simulator.transport`` is None
and the engine puts every message on the network once, on time.
"""
from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from repro.config import MachineParams
from repro.faults.plan import FaultPlan, FaultRule, NodeStall
from repro.faults.stats import NetFaultStats
from repro.obs.spans import SpanRecorder

#: fate of one wire copy: (delivered?, extra delivery delay in cycles)
Fate = Tuple[bool, float]

_CLEAN: Tuple[Fate, ...] = ((True, 0.0),)

#: a duplicate copy trails its original by a small uniform skew (cycles),
#: modelling a NIC retransmitting a frame it wrongly believed lost
DUP_SKEW_CYCLES = 512.0


class FaultInjector:
    """Applies a :class:`FaultPlan`'s rules from a dedicated RNG stream."""

    def __init__(self, plan: FaultPlan, machine: MachineParams,
                 stats: NetFaultStats,
                 spans: Optional[SpanRecorder]) -> None:
        self.plan = plan
        self.machine = machine
        self.stats = stats
        self.rng = random.Random(plan.seed)
        #: fault events land on the affected node's timeline as ``fault``
        #: spans when the run records spans
        self.spans = spans

    def _rule_for(self, kind: str, src: int, dst: int) -> Optional[FaultRule]:
        for rule in self.plan.rules:
            if rule.matches(kind, src, dst):
                return rule
        return None

    def _extra_delay(self, rule: FaultRule, nbytes: int) -> float:
        """Per-copy delivery delay: degraded-link slowdown plus jitter.

        The degraded link stretches the streaming time by ``delay_multiplier``;
        we add the stretch as delivery delay rather than extending the link
        reservation — an approximation that degrades latency but not the
        contention model (documented in DESIGN.md §9).
        """
        extra = 0.0
        if rule.delay_multiplier > 1.0:
            stream = math.ceil(nbytes / self.machine.net_bytes_per_cycle)
            slow = (rule.delay_multiplier - 1.0) * stream
            extra += slow
            self.stats.degraded_cycles += slow
        if rule.jitter_cycles > 0 and self.rng.random() < rule.jitter_p:
            jit = self.rng.uniform(0.0, rule.jitter_cycles)
            extra += jit
            self.stats.jittered += 1
            self.stats.jitter_cycles += jit
        return extra

    def _note_span(self, msg, time: float, what: str) -> None:
        spans = self.spans
        if spans is not None:
            spans.record(msg.src, "fault", f"fault.{what} {msg.kind}",
                         time, time, msg=msg.kind, dst=msg.dst)

    def fates(self, msg, time: float) -> Tuple[Fate, ...]:
        """Decide delivery of ``msg``: a tuple of per-copy fates.

        The first entry is the original copy; any further entries are
        injected duplicates.  A dropped copy still occupied the network
        links (the frame was transmitted and lost in flight).
        """
        rule = self._rule_for(msg.kind, msg.src, msg.dst)
        if rule is None:
            return _CLEAN
        fates: List[Fate] = []
        extra = self._extra_delay(rule, msg.total_bytes)
        if rule.drop_p > 0 and self.rng.random() < rule.drop_p:
            self.stats.note_drop(msg.kind)
            self._note_span(msg, time, "drop")
            fates.append((False, extra))
        else:
            fates.append((True, extra))
        if rule.dup_p > 0 and self.rng.random() < rule.dup_p:
            self.stats.duplicated += 1
            self._note_span(msg, time, "dup")
            skew = self.rng.uniform(1.0, DUP_SKEW_CYCLES)
            fates.append((True, extra + skew))
        return tuple(fates)

    def arm_stalls(self, sim) -> None:
        """Schedule the plan's node stalls on ``sim``'s event loop."""
        for stall in self.plan.stalls:
            if stall.node < len(sim.nodes):
                sim.schedule_call(stall.at,
                                  lambda s=stall: self._stall(sim, s))

    def _stall(self, sim, stall: NodeStall) -> None:
        """Freeze a node per a ``NodeStall`` (its NIC keeps acking)."""
        start = sim.interrupt(sim.nodes[stall.node], stall.cycles)
        self.stats.stalls += 1
        self.stats.stall_cycles += stall.cycles
        spans = self.spans
        if spans is not None:
            spans.record(stall.node, "fault", f"fault.stall n{stall.node}",
                         start, start + stall.cycles)
