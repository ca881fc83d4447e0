"""Crash-stop fault injection and checkpoint/recovery (DESIGN.md §13).

Public surface:

- :func:`install_recovery` — called by ``World`` when the fault plan
  schedules crashes; attaches the controller to the reliable transport.
- :class:`CrashController` / :func:`resolve_crashes` — seeded schedule,
  crash/revive events, coordinated checkpoints, permanent-death protocol.
- ``repro.recovery.aec`` — AEC's reconfiguration around a permanently
  dead peer, mixed into ``AECNode`` (imported by the AEC core, not here).
- :class:`FailureDetector` — passive leases + NIC-level heartbeats.
- :class:`CheckpointStore` — per-node page images at barrier epochs.
- :class:`RecoveryStats` — the counters attached to ``RunResult.recovery``.
"""
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.crash import (CrashController, ResolvedCrash,
                                  RECONFIG_KIND, install_recovery,
                                  resolve_crashes)
from repro.recovery.detector import (FailureDetector, HEARTBEAT_BYTES,
                                     HEARTBEAT_KIND)
from repro.recovery.stats import RecoveryStats

__all__ = [
    "CheckpointStore", "CrashController", "FailureDetector",
    "HEARTBEAT_BYTES", "HEARTBEAT_KIND", "RECONFIG_KIND", "RecoveryStats",
    "ResolvedCrash", "install_recovery", "resolve_crashes",
]
