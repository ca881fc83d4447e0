"""Per-field digest of every simulated number, pinned for refactors.

``tests/golden/sim_digest.json`` maps each cell to a short sha256 per
``RunResult`` field (every field but ``wall_seconds``, the host time).
A refactor that claims "nothing simulated moves" must pass it unedited;
a mismatch names the fields that moved.

The cells are every ``FAULT_FREE_GOLDEN`` and ``FAULTED_GOLDEN`` cell of
``test_faults.py`` plus ``fuzz:42`` under four protocols and three plans.
The golden cells come from the session's shared runs (the ``shared_run``
fixture), so the three-number golden tests and these items simulate
each once.

Re-record only for a change that moves simulated numbers on purpose,
and say in CHANGES.md which cells and fields moved and why::

    PYTHONPATH=src python -m tests.test_sim_digest
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from repro.apps.registry import make_app
from repro.config import SimConfig
from repro.faults import get_plan
from repro.harness.runner import run_app
from tests.test_faults import FAULTED_GOLDEN, FAULT_FREE_GOLDEN

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "sim_digest.json")

FUZZ_PROTOCOLS = ("aec", "tmk", "tmk-lh", "munin-lap")
FUZZ_PLANS = ("none", "lossy-1pct", "crash-one-node")


def _cells():
    """Cell id -> (app, protocol, plan name or None)."""
    cells = {f"{app}/{protocol}/none": (app, protocol, None)
             for app, protocol in FAULT_FREE_GOLDEN}
    cells.update({f"{app}/{protocol}/{plan}": (app, protocol, plan)
                  for app, protocol, plan in FAULTED_GOLDEN})
    cells.update({f"fuzz:42/{protocol}/{plan}": (
        "fuzz:42", protocol, None if plan == "none" else plan)
        for protocol in FUZZ_PROTOCOLS for plan in FUZZ_PLANS})
    return cells


def _config(plan):
    return SimConfig(seed=42, faults=None if plan is None else get_plan(plan))


def _canon(value):
    """A deterministic, hashable-by-repr form of a result value: floats
    exactly (hex), dicts and sets in sorted order, numpy arrays by dtype,
    shape and bytes."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return ("ndarray", str(value.dtype), value.shape,
                hashlib.sha256(data).hexdigest())
    if isinstance(value, np.generic):
        return ("scalar", str(value.dtype), _canon(value.item()))
    if isinstance(value, float):
        return ("float", value.hex())
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, _canon(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            ((repr(_canon(k)), _canon(v)) for k, v in value.items()),
            key=lambda kv: kv[0])))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canon(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canon(v)) for v in value)))
    if hasattr(value, "__dict__"):
        return (type(value).__name__, _canon(vars(value)))
    raise TypeError(f"no digest form for {type(value).__name__}")


def field_digests(result) -> dict:
    """Field name -> first 16 hex digits of the sha256 of its value."""
    return {f.name: hashlib.sha256(
                repr(_canon(getattr(result, f.name))).encode()).hexdigest()[:16]
            for f in dataclasses.fields(result) if f.name != "wall_seconds"}


def _golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(_cells())


@pytest.mark.parametrize("cell", sorted(_cells()))
def test_simulated_fields_match_golden(cell, shared_run):
    app, protocol, plan = _cells()[cell]
    want = _golden()[cell]
    got = field_digests(shared_run(app, protocol, _config(plan)))
    moved = sorted(k for k in set(want) | set(got)
                   if want.get(k) != got.get(k))
    assert not moved, f"{cell}: fields moved: {', '.join(moved)}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    doc = {}
    for cell, (app, protocol, plan) in sorted(_cells().items()):
        config = _config(plan)
        doc[cell] = field_digests(run_app(
            make_app(app, "test", config=config), protocol, config))
    with open(GOLDEN_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(doc)} cells to {GOLDEN_PATH}")
