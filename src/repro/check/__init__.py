"""repro.check — happens-before sanitizer and consistency oracle.

Two complementary tools:

* :mod:`repro.check.checker` — an in-simulation dynamic checker (vector
  clocks + shadow memory) flagging data races and entry-consistency stale
  reads as structured :class:`ViolationReport` objects.
* :mod:`repro.check.oracle` — a cross-protocol divergence oracle that
  replays the same app+seed under the SC protocol and diffs final shared
  memory word-by-word; its ``judge`` gives every verdict on a finished
  run (imported lazily; it depends on the harness).
"""
from repro.check.checker import (
    CheckReport,
    ConsistencyChecker,
    NullChecker,
    ViolationReport,
    make_checker,
)

__all__ = [
    "CheckReport",
    "ConsistencyChecker",
    "NullChecker",
    "ViolationReport",
    "make_checker",
]
