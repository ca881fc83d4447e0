"""Declarative fault plans: what goes wrong, where, and how often.

A :class:`FaultPlan` is pure data — frozen dataclasses all the way down — so
it travels inside :class:`~repro.config.SimConfig`, survives
``dataclasses.asdict`` (and therefore participates in the canonical config
dict / sweep cache key), and pickles cleanly across the multiprocessing
sweep fan-out.  The *interpretation* of a plan lives in
:mod:`repro.faults.injector`.

Rule matching is first-match-wins over ``plan.rules``: a message is tested
against each rule's (kinds, src, dst) matcher in order, and only the first
matching rule's probabilities apply.  ``kinds`` entries may end with ``*``
to prefix-match a message-kind family (e.g. ``"aec.bar_*"``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class FaultRule:
    """One matcher plus the faults it injects on matching messages.

    All probabilities are per *message copy* and evaluated independently
    from the plan's dedicated RNG stream (never the application seed).
    """

    #: message kinds to match (exact, or prefix via trailing ``*``);
    #: ``None`` matches every kind
    kinds: Optional[Tuple[str, ...]] = None
    #: source node to match (``None`` = any)
    src: Optional[int] = None
    #: destination node to match (``None`` = any)
    dst: Optional[int] = None
    #: probability the message is dropped in flight
    drop_p: float = 0.0
    #: probability a duplicate copy is delivered as well
    dup_p: float = 0.0
    #: probability a matching message is jittered at all
    jitter_p: float = 0.0
    #: extra delivery delay drawn uniformly from [0, jitter_cycles]
    jitter_cycles: float = 0.0
    #: degraded link: multiplies the message's streaming time
    delay_multiplier: float = 1.0

    def __post_init__(self) -> None:
        for name in ("drop_p", "dup_p", "jitter_p"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.jitter_cycles < 0:
            raise ValueError("jitter_cycles must be >= 0")
        if self.delay_multiplier < 1.0:
            raise ValueError("delay_multiplier must be >= 1")

    def matches(self, kind: str, src: int, dst: int) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.kinds is None:
            return True
        for pat in self.kinds:
            if pat.endswith("*"):
                if kind.startswith(pat[:-1]):
                    return True
            elif kind == pat:
                return True
        return False

    def describe(self) -> str:
        where = []
        if self.kinds is not None:
            where.append("kinds=" + ",".join(self.kinds))
        if self.src is not None:
            where.append(f"src={self.src}")
        if self.dst is not None:
            where.append(f"dst={self.dst}")
        what = []
        if self.drop_p:
            what.append(f"drop {self.drop_p:.2%}")
        if self.dup_p:
            what.append(f"dup {self.dup_p:.2%}")
        if self.jitter_p and self.jitter_cycles:
            what.append(f"jitter {self.jitter_p:.0%} x U[0,{self.jitter_cycles:g}]cyc")
        if self.delay_multiplier > 1.0:
            what.append(f"stream x{self.delay_multiplier:g}")
        return (" | ".join(where) or "all messages") + " -> " + \
            (", ".join(what) or "no faults")


@dataclass(frozen=True)
class NodeStall:
    """Node ``node`` freezes for ``cycles`` cycles at simulated time ``at``.

    Modelled as an uninterruptible zero-work ISR: the node's interrupt
    engine is busy for the window, so in-progress delays stretch and
    incoming message handlers queue behind it.  The NIC keeps acking
    (retransmission state is NIC-level, below the frozen CPU).
    """

    node: int = 0
    at: float = 0.0
    cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("stall node must be >= 0")
        if self.at < 0 or self.cycles <= 0:
            raise ValueError("stall needs at >= 0 and cycles > 0")

    def describe(self) -> str:
        return f"node {self.node} frozen for {self.cycles:g} cyc at t={self.at:g}"


@dataclass(frozen=True)
class NodeCrash:
    """Crash-stop failure of one node, optionally followed by a restart.

    ``node``/``at`` may be ``None``, in which case the victim and crash
    time are drawn deterministically from the plan seed (all ``node=None``
    crashes in one plan hit the *same* drawn victim, modelling one flaky
    machine).  Node 0 can never crash: it hosts the lock/barrier managers
    and the recovery coordinator (see DESIGN.md §13 for the rationale and
    the recovery protocol the crash triggers).

    With ``restart=True`` the node is revived ``down_cycles`` later and
    replays from the last coordinated checkpoint (charged as restore +
    replay cycles on its interrupt engine).  With ``restart=False`` the
    crash is permanent: the coordinator eventually declares the node dead
    and reconfigures locks/barriers/pages around it.
    """

    #: victim node; ``None`` = drawn from the plan seed among 1..N-1
    node: Optional[int] = None
    #: crash time in cycles; ``None`` = drawn uniformly from [at_lo, at_hi]
    at: Optional[float] = None
    at_lo: float = 100_000.0
    at_hi: float = 400_000.0
    #: outage length before the restart begins
    down_cycles: float = 200_000.0
    restart: bool = True

    def __post_init__(self) -> None:
        if self.node is not None and self.node <= 0:
            raise ValueError(
                "crash node must be >= 1 (node 0 hosts the managers and "
                "the recovery coordinator)")
        if self.at is not None and self.at <= 0:
            raise ValueError("crash time must be > 0")
        if self.at is None and not (0 < self.at_lo <= self.at_hi):
            raise ValueError("crash window needs 0 < at_lo <= at_hi")
        if self.down_cycles <= 0:
            raise ValueError("down_cycles must be > 0")

    def describe(self) -> str:
        who = f"node {self.node}" if self.node is not None else "seeded node"
        when = (f"t={self.at:g}" if self.at is not None
                else f"t~U[{self.at_lo:g},{self.at_hi:g}]")
        fate = (f"restart after {self.down_cycles:g} cyc" if self.restart
                else "no restart (permanent)")
        return f"{who} crashes at {when}, {fate}"


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault rules and scheduled stalls.

    Attaching any plan to ``SimConfig.faults`` — even an empty one —
    switches the run into *faulty mode*: the reliable transport engages
    (seq numbers, acks, retransmission) and timing diverges from the
    fault-free model.  ``faults=None`` is the only bit-identical mode.
    """

    name: str = "custom"
    #: seeds the injector's dedicated RNG stream (independent of app seed)
    seed: int = 1
    rules: Tuple[FaultRule, ...] = ()
    stalls: Tuple[NodeStall, ...] = ()
    crashes: Tuple[NodeCrash, ...] = ()

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def describe(self) -> str:
        lines = [f"plan {self.name!r} (fault seed {self.seed})"]
        for rule in self.rules:
            lines.append("  rule:  " + rule.describe())
        for stall in self.stalls:
            lines.append("  stall: " + stall.describe())
        for crash in self.crashes:
            lines.append("  crash: " + crash.describe())
        if not self.rules and not self.stalls and not self.crashes:
            lines.append("  (no faults: reliable transport only)")
        return "\n".join(lines)


def _lossy_1pct() -> FaultPlan:
    return FaultPlan(
        name="lossy-1pct", seed=1,
        rules=(FaultRule(drop_p=0.01),),
    )


def _dup_heavy() -> FaultPlan:
    return FaultPlan(
        name="dup-heavy", seed=1,
        rules=(FaultRule(dup_p=0.20, drop_p=0.002),),
    )


def _jitter() -> FaultPlan:
    return FaultPlan(
        name="jitter", seed=1,
        rules=(
            # one persistently degraded link with heavy jitter...
            FaultRule(src=1, dst=2, jitter_p=1.0, jitter_cycles=8_000.0,
                      delay_multiplier=4.0),
            # ...plus background jitter on half of all traffic
            FaultRule(jitter_p=0.5, jitter_cycles=2_000.0),
        ),
    )


def _stall_one_node() -> FaultPlan:
    return FaultPlan(
        name="stall-one-node", seed=1,
        stalls=(NodeStall(node=3, at=250_000.0, cycles=400_000.0),),
    )


def _crash_one_node() -> FaultPlan:
    return FaultPlan(
        name="crash-one-node", seed=1,
        crashes=(NodeCrash(),),
    )


def _crash_restart() -> FaultPlan:
    # the same seeded victim crashes twice: once early, once after it has
    # rejoined and accumulated fresh state since its first checkpoint
    return FaultPlan(
        name="crash-restart", seed=1,
        crashes=(NodeCrash(at_lo=80_000.0, at_hi=250_000.0,
                           down_cycles=150_000.0),
                 NodeCrash(at_lo=600_000.0, at_hi=900_000.0,
                           down_cycles=150_000.0)),
    )


#: the standard plans exercised by the headline guarantee tests and CI
BUILTIN_PLANS: Dict[str, "FaultPlan"] = {
    p.name: p for p in (_lossy_1pct(), _dup_heavy(), _jitter(),
                        _stall_one_node(), _crash_one_node(),
                        _crash_restart())
}


def plan_from_dict(doc: Dict) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from its ``dataclasses.asdict`` form
    (the shape stored in canonical config dicts and trace headers)."""
    rules = tuple(
        FaultRule(**{**r, "kinds": (tuple(r["kinds"])
                                    if r.get("kinds") is not None else None)})
        for r in doc.get("rules", ()))
    stalls = tuple(NodeStall(**s) for s in doc.get("stalls", ()))
    crashes = tuple(NodeCrash(**c) for c in doc.get("crashes", ()))
    return FaultPlan(name=doc.get("name", "custom"),
                     seed=int(doc.get("seed", 1)),
                     rules=rules, stalls=stalls, crashes=crashes)


def get_plan(spec: str) -> FaultPlan:
    """Resolve ``NAME`` or ``NAME@SEED`` to a built-in :class:`FaultPlan`."""
    name, _, seed = spec.partition("@")
    plan = BUILTIN_PLANS.get(name)
    if plan is None:
        known = ", ".join(sorted(BUILTIN_PLANS))
        raise ValueError(f"unknown fault plan {name!r}; built-ins: {known}")
    if seed:
        plan = plan.with_seed(int(seed))
    return plan


#: plan name meaning "no fault plan attached" (bit-identical fault-free mode)
NO_FAULTS = "none"


def resolve_plan(spec: Optional[str]) -> Optional[FaultPlan]:
    """Like :func:`get_plan`, but ``None`` and ``"none"`` mean fault-free:
    no plan at all, not an empty one (which would still engage the
    reliable transport)."""
    return None if spec in (None, NO_FAULTS) else get_plan(spec)
