"""Deterministic, seeded network-fault injection (``repro.faults``).

Three pieces:

* :mod:`repro.faults.plan` — ``FaultPlan``/``FaultRule``/``NodeStall``:
  pure-data fault descriptions carried inside ``SimConfig`` (canonical,
  cache-key-relevant), plus the built-in plan registry;
* :mod:`repro.faults.injector` — the seeded ``FaultInjector``: per-copy
  message fates and the plan's node stalls;
* :mod:`repro.faults.stats` — ``NetFaultStats`` counters recorded into
  ``RunResult.net_faults``.

The reliable transport that *survives* these faults lives with the
protocol machinery in :mod:`repro.protocols.base` (``ReliableTransport``).
It is the engine's one fault seam: ``Simulator.transport`` is None on the
lossless network, else the transport, which builds the run's stats and
injector from ``SimConfig.faults``.

Import note: ``repro.config`` type-checks against ``faults.plan``, and
``faults.injector`` imports ``repro.config`` at runtime — so this package
init must only pull in the pure-data modules to stay cycle-free.
"""
from repro.faults.plan import (  # noqa: F401
    BUILTIN_PLANS,
    NO_FAULTS,
    FaultPlan,
    FaultRule,
    NodeCrash,
    NodeStall,
    get_plan,
    resolve_plan,
)
from repro.faults.stats import NetFaultStats  # noqa: F401
