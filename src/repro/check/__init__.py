"""repro.check — happens-before sanitizer and consistency oracle.

Two complementary tools:

* :mod:`repro.check.checker` — an in-simulation dynamic checker (vector
  clocks + shadow memory) flagging data races and entry-consistency stale
  reads as structured :class:`ViolationReport` objects.  A run builds
  one only under ``SimConfig.check_consistency`` (``World.checker`` is
  ``None`` otherwise); it observes program operations in
  :class:`repro.apps.api.AppContext`, and protocols only report page and
  diff arrivals to it (``note_transfer``).
* :mod:`repro.check.oracle` — a cross-protocol divergence oracle that
  replays the same app+seed under the SC protocol and diffs final shared
  memory word-by-word; its ``judge`` gives every verdict on a finished
  run (imported lazily; it depends on the harness).
"""
from repro.check.checker import (CheckReport, ConsistencyChecker,
                                 ViolationReport)

__all__ = ["CheckReport", "ConsistencyChecker", "ViolationReport"]
