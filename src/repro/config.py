"""System configuration: machine parameters (paper Table 1) and run options.

All times are expressed in 10-ns processor cycles, exactly as in the paper.
``MachineParams`` defaults reproduce Table 1 of Seidel, Bianchini & Amorim,
"The Affinity Entry Consistency Protocol", ICPP 1997.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # runtime import would cycle: faults.injector imports config
    from repro.faults.plan import FaultPlan
    from repro.fuzz.generator import WorkloadSpec


@dataclass(frozen=True)
class MachineParams:
    """Hardware cost model of the simulated network of workstations.

    Every field is one row of Table 1 in the paper, except the word size
    and the cycle time the table's units assume; derived quantities (words
    per page, line counts) are exposed as properties.  The fault layer's
    and crash recovery's timers are constants of the modules that own them.
    """

    num_procs: int = 16
    tlb_entries: int = 128
    tlb_fill_cycles: int = 100
    interrupt_cycles: int = 4000
    page_bytes: int = 4096
    cache_bytes: int = 256 * 1024
    write_buffer_entries: int = 4
    cache_line_bytes: int = 32
    mem_setup_cycles: int = 9
    mem_cycles_per_word: float = 2.25
    io_setup_cycles: int = 12
    io_cycles_per_word: float = 3.0
    #: network path width in bits (bidirectional links)
    net_path_bits: int = 16
    messaging_overhead_cycles: int = 400
    switch_cycles: int = 4
    wire_cycles: int = 2
    list_cycles_per_element: int = 6
    #: page twinning: 5 cycles/word + memory accesses
    twin_cycles_per_word: int = 5
    #: diff application / creation: 7 cycles/word + memory accesses
    diff_cycles_per_word: int = 7
    word_bytes: int = 4
    #: duration of one processor cycle in nanoseconds (Table 1 assumes a
    #: 100 MHz workstation, i.e. 10 ns); wall-time estimates and trace
    #: timestamps are derived from this, never hardcoded
    cycle_ns: float = 10.0

    def __post_init__(self) -> None:
        # Memo tables for the pure cost helpers below.  The helpers sit on
        # the simulator's per-fault/per-diff hot path and see a small set of
        # distinct sizes per run (page-, line- and diff-shaped), so each
        # result is computed once.  The tables are plain instance
        # attributes, not dataclass fields: equality, hashing, ``replace``
        # and ``asdict`` all ignore them, and a copy starts fresh.
        object.__setattr__(self, "_memo_mem", {})
        object.__setattr__(self, "_memo_io", {})
        object.__setattr__(self, "_memo_twin", {})
        object.__setattr__(self, "_memo_diff_create", {})
        object.__setattr__(self, "_memo_diff_apply", {})

    @property
    def clock_hz(self) -> float:
        """Processor clock frequency implied by :attr:`cycle_ns`."""
        return 1e9 / self.cycle_ns

    @property
    def words_per_page(self) -> int:
        return self.page_bytes // self.word_bytes

    @property
    def cache_lines(self) -> int:
        return self.cache_bytes // self.cache_line_bytes

    @property
    def words_per_line(self) -> int:
        return self.cache_line_bytes // self.word_bytes

    @property
    def net_bytes_per_cycle(self) -> float:
        return self.net_path_bits / 8.0

    # ---- derived cost helpers (memoized; see __post_init__) -------------

    def mem_access_cycles(self, nwords: int) -> float:
        """One memory transaction touching ``nwords`` words."""
        cached = self._memo_mem.get(nwords)
        if cached is None:
            if nwords <= 0:
                cached = 0.0
            else:
                cached = self.mem_setup_cycles + \
                    self.mem_cycles_per_word * nwords
            self._memo_mem[nwords] = cached
        return cached

    def io_transfer_cycles(self, nbytes: int) -> float:
        """Moving ``nbytes`` over the local I/O bus (NIC <-> memory)."""
        cached = self._memo_io.get(nbytes)
        if cached is None:
            if nbytes <= 0:
                cached = 0.0
            else:
                nwords = math.ceil(nbytes / self.word_bytes)
                cached = self.io_setup_cycles + \
                    self.io_cycles_per_word * nwords
            self._memo_io[nbytes] = cached
        return cached

    def twin_cycles(self, nwords: int) -> float:
        """Creating a twin of ``nwords`` words (copy + 2 memory accesses)."""
        cached = self._memo_twin.get(nwords)
        if cached is None:
            cached = self.twin_cycles_per_word * nwords \
                + 2 * self.mem_access_cycles(nwords)
            self._memo_twin[nwords] = cached
        return cached

    def diff_create_cycles(self, modified_words: int) -> float:
        """Creating a diff: 7 cycles per *modified* word plus the memory
        accesses to read page+twin and store the encoding.

        The paper charges diff creation per word like application (Table 1
        lists one "diff appl/creation" cost); its Table 4 "Hidden" column
        is only consistent with a cost proportional to the diff size, i.e.
        the word-by-word comparison is assumed to be overlapped with the
        streaming reads (see DESIGN.md).
        """
        cached = self._memo_diff_create.get(modified_words)
        if cached is None:
            n = max(modified_words, 1)
            cached = self.diff_cycles_per_word * n \
                + 2 * self.mem_access_cycles(n)
            self._memo_diff_create[modified_words] = cached
        return cached

    def diff_apply_cycles(self, diff_words: int) -> float:
        """Applying a diff touches only the words encoded in it."""
        cached = self._memo_diff_apply.get(diff_words)
        if cached is None:
            cached = self.diff_cycles_per_word * diff_words \
                + self.mem_access_cycles(diff_words)
            self._memo_diff_apply[diff_words] = cached
        return cached

    def list_cycles(self, nelements: int) -> float:
        return self.list_cycles_per_element * nelements


@dataclass
class SimConfig:
    """Per-run simulation options (protocol-independent)."""

    machine: MachineParams = field(default_factory=MachineParams)
    #: LAP update-set size |U| (the paper evaluates 1..3, uses 2)
    update_set_size: int = 2
    #: names the run: it is part of every sweep cache key and verdict, but
    #: no simulation code reads it (nothing simulated is randomized by it)
    seed: int = 42
    #: run the happens-before sanitizer / consistency oracle alongside the
    #: simulation (``repro.check``): shadow memory tracks the last writer of
    #: every shared word and flags data races and entry-consistency stale
    #: reads.  Pure observation — simulated timing is unaffected — but the
    #: flag is part of the canonical config (and therefore of every sweep
    #: cache key), so checker-on and checker-off results never alias.
    check_consistency: bool = False
    #: inject network faults per this plan (``repro.faults``); ``None``
    #: keeps the perfect network and is the *only* mode whose timing and
    #: message counts are bit-identical to a faults-free build.  Any plan —
    #: even an empty one — engages the reliable transport (sequence
    #: numbers, acks, retransmission) and thus perturbs timing.  Part of
    #: the canonical config: every distinct plan is a distinct cache key.
    faults: Optional["FaultPlan"] = None
    #: generated-workload identity (``repro.fuzz``): when set, app ids
    #: ``fuzz``/``fuzz:SEED`` compile exactly this spec.  Pure frozen data,
    #: so it survives ``asdict`` and lands in the canonical config — every
    #: (workload, fault-seed) combination is a distinct sweep cache cell.
    workload: Optional["WorkloadSpec"] = None
    #: safety valve: abort runs exceeding this many simulated events
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.update_set_size < 1:
            raise ValueError("update_set_size must be >= 1")

    def replace(self, **overrides: Any) -> "SimConfig":
        """A copy of this config with ``overrides`` applied.

        Always use this (never ``setattr``) to derive per-run variants:
        configs are shared freely between runs, and in-place mutation leaks
        one run's options into the next.
        """
        return dataclasses.replace(self, **overrides)


def canonical_config_dict(config: SimConfig) -> Dict[str, Any]:
    """A JSON-safe dict of every field, machine parameters included.

    This is the authoritative identity of a run configuration: two configs
    produce the same dict iff every knob that can influence a simulation is
    equal.  Used for cache keys — never drop fields from it.
    """
    return dataclasses.asdict(config)


def config_digest(config: SimConfig) -> str:
    """Canonical SHA-256 hex digest of the *full* configuration."""
    payload = json.dumps(canonical_config_dict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_from_dict(doc: Dict[str, Any]) -> SimConfig:
    """Rebuild a :class:`SimConfig` from its canonical dict.

    Inverse of :func:`canonical_config_dict` (trace headers and corpus
    files store that form): nested machine parameters, fault plans and
    workload specs are reconstructed into their dataclasses, so
    ``config_digest(config_from_dict(d)) == config_digest(original)``.
    Keys that are not ``SimConfig`` fields (e.g. options recorded by an
    older build) raise a ``ValueError`` naming them.
    """
    known = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"config has unknown keys {', '.join(unknown)} "
                         f"(recorded by an older build?)")
    doc = dict(doc)
    machine = doc.pop("machine", None)
    faults = doc.pop("faults", None)
    workload = doc.pop("workload", None)
    kwargs: Dict[str, Any] = dict(doc)
    if machine is not None:
        kwargs["machine"] = MachineParams(**machine)
    if faults is not None:
        from repro.faults.plan import plan_from_dict
        kwargs["faults"] = plan_from_dict(faults)
    if workload is not None:
        from repro.fuzz.generator import spec_from_dict
        kwargs["workload"] = spec_from_dict(workload)
    return SimConfig(**kwargs)


DEFAULT_MACHINE = MachineParams()
