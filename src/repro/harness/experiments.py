"""Experiment definitions: the paper's tables, figures and ablations.

Every experiment is declared once, in :data:`EXPERIMENTS`, as two
functions of the scale:

* ``cells(scale)`` returns the immutable
  :class:`~repro.harness.sweep.RunSpec` cells it needs — the unit the
  parallel sweep fans out over (``repro sweep``, :func:`experiment_cells`);
* ``render(results, scale)`` returns its text: a row builder
  (``table2`` etc.) looks the cells of its own declaration up in
  ``results``, the :attr:`~repro.harness.sweep.SweepReport.results` of
  the sweep that ran them, and a :mod:`~repro.harness.tables` renderer
  prints the rows.  A cell missing from ``results`` raises.

``repro experiment`` sweeps the cells, then renders from that sweep's
results.  See DESIGN.md's experiment index and EXPERIMENTS.md for
paper-vs-measured discussion.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional

from repro.apps.registry import APP_NAMES
from repro.config import MachineParams, SimConfig
from repro.core.lap.stats import VARIANTS
from repro.harness import tables
from repro.harness.sweep import RunSpec, make_spec
from repro.stats.breakdown import Breakdown
from repro.stats.run_result import RunResult

#: spec key -> result: the ``results`` of the sweep that ran the cells
Results = Mapping[str, RunResult]

#: the paper's lock-intensive applications (Figures 3/4 and 6)
LOCK_APPS = ("is", "raytrace", "water-ns")
#: the barrier-dominated applications (Figure 5)
BARRIER_APPS = ("fft", "ocean", "water-sp")

#: Table 3 leaves out lock groups under this share (%) of an app's acquires
TABLE3_MIN_EVENTS_PCT = 1.0
UPSET_SIZES = (1, 2, 3)
TRAFFIC_APPS = ("is", "raytrace", "water-sp")
TRAFFIC_PROTOCOLS = ("munin", "munin-lap", "tmk", "tmk-lh", "adsm", "aec")
#: the machine-size and messaging-overhead ablations: TreadMarks vs AEC
MACHINE_APPS = ("is", "water-sp")
MACHINE_PROTOCOLS = ("tmk", "aec")
SCALING_PROCS = (4, 8, 16)
SENSITIVITY_OVERHEADS = (100, 400, 1600)


def _swept(results: Results, cells: List[RunSpec]):
    """``(spec, result)`` for each of ``cells``, from ``results``."""
    for spec in cells:
        try:
            yield spec, results[spec.key]
        except KeyError:
            raise LookupError(f"{spec.name} was not swept") from None


# ---------------------------------------------------------------- Table 2

@dataclass
class Table2Row:
    app: str
    locks: int
    acquires: int
    barriers: int


def table2_cells(scale: str = "bench") -> List[RunSpec]:
    """Every app under AEC at the paper's |U| = 2 (Tables 2, 3 and 4)."""
    return [make_spec(app, scale, "aec") for app in APP_NAMES]


table3_cells = table4_cells = table2_cells


def table2(results: Results, scale: str = "bench") -> List[Table2Row]:
    """Synchronization events per application (paper Table 2)."""
    rows = []
    for spec, r in _swept(results, table2_cells(scale)):
        rows.append(Table2Row(spec.app, len(r.extra["lock_vars"]),
                              r.total_lock_acquires, r.barrier_events))
    return rows


# ---------------------------------------------------------------- Table 3

@dataclass
class Table3Row:
    app: str
    group: str
    events: int
    pct_of_total: float
    rates: Dict[str, Optional[float]]


def _lock_groups(result) -> Dict[str, List[int]]:
    groups: Dict[str, List[int]] = {}
    for lock_id, name, group in result.extra["lock_vars"]:
        groups.setdefault(group or name, []).append(lock_id)
    return groups


def table3(results: Results, scale: str = "bench") -> List[Table3Row]:
    """LAP success rates per lock-variable group (paper Table 3, |U|=2)."""
    rows: List[Table3Row] = []
    for spec, r in _swept(results, table3_cells(scale)):
        if r.lap_stats is None:
            continue
        total = max(r.lap_stats.total_acquires(), 1)
        for group, lock_ids in _lock_groups(r).items():
            g = r.lap_stats.group_rates(lock_ids)
            events = g.pop("events")
            pct = 100.0 * events / total
            if events == 0 or pct < TABLE3_MIN_EVENTS_PCT:
                continue
            rows.append(Table3Row(spec.app, group, events, pct,
                                  {v: g[v] for v in VARIANTS}))
    return rows


# ---------------------------------------------------------------- Table 4

@dataclass
class Table4Row:
    app: str
    avg_diff_bytes: float
    avg_merged_bytes: float
    merged_pct: float
    create_cycles_per_proc: float
    hidden_create_pct: float
    hidden_apply_pct: float


def table4(results: Results, scale: str = "bench") -> List[Table4Row]:
    """Diff statistics under AEC (paper Table 4)."""
    rows = []
    for spec, r in _swept(results, table4_cells(scale)):
        d = r.diff_stats
        rows.append(Table4Row(
            spec.app,
            d.avg_diff_bytes,
            d.avg_merged_bytes,
            100.0 * d.merged_fraction,
            d.create_cycles_per_proc,
            100.0 * d.hidden_create_fraction,
            100.0 * d.hidden_apply_fraction,
        ))
    return rows


# ---------------------------------------------------------- Figures 3 to 6

@dataclass
class CompareRow:
    app: str
    base_label: str
    other_label: str
    base_value: float
    other_value: float
    #: per-category average breakdowns (cycles) for base and other
    base_breakdown: Optional[Breakdown] = None
    other_breakdown: Optional[Breakdown] = None

    @property
    def normalized(self) -> float:
        """other as a percentage of base (the paper's 100-based bars)."""
        return 100.0 * self.other_value / self.base_value if self.base_value \
            else 0.0


def _compare_cells(apps, scale: str, base_protocol: str,
                   other_protocol: str) -> List[RunSpec]:
    """Each app under the base protocol, then under the other one."""
    return [make_spec(app, scale, protocol) for app in apps
            for protocol in (base_protocol, other_protocol)]


def _compare_rows(results: Results, cells: List[RunSpec], base_label: str,
                  other_label: str, value) -> List[CompareRow]:
    swept = list(_swept(results, cells))
    rows = []
    for (spec, base), (_spec, other) in zip(swept[::2], swept[1::2]):
        rows.append(CompareRow(
            spec.app, base_label, other_label,
            value(base), value(other),
            base.breakdown, other.breakdown))
    return rows


def figure3_cells(scale: str = "bench") -> List[RunSpec]:
    return _compare_cells(LOCK_APPS, scale, "aec-nolap", "aec")


def figure3(results: Results, scale: str = "bench") -> List[CompareRow]:
    """Access-fault overhead: AEC-without-LAP (=100) vs AEC (Figure 3)."""
    return _compare_rows(results, figure3_cells(scale), "noLAP", "LAP",
                         lambda r: r.breakdown["data"])


figure4_cells = figure3_cells


def figure4(results: Results, scale: str = "bench") -> List[CompareRow]:
    """Execution time: AEC-without-LAP (=100) vs AEC (Figure 4)."""
    return _compare_rows(results, figure4_cells(scale), "noLAP", "LAP",
                         lambda r: r.execution_time)


def figure5_cells(scale: str = "bench") -> List[RunSpec]:
    return _compare_cells(BARRIER_APPS, scale, "tmk", "aec")


def figure5(results: Results, scale: str = "bench") -> List[CompareRow]:
    """Execution time: TreadMarks (=100) vs AEC, barrier apps (Figure 5)."""
    return _compare_rows(results, figure5_cells(scale), "TM", "AEC",
                         lambda r: r.execution_time)


def figure6_cells(scale: str = "bench") -> List[RunSpec]:
    return _compare_cells(LOCK_APPS, scale, "tmk", "aec")


def figure6(results: Results, scale: str = "bench") -> List[CompareRow]:
    """Execution time: TreadMarks (=100) vs AEC, lock apps (Figure 6)."""
    return _compare_rows(results, figure6_cells(scale), "TM", "AEC",
                         lambda r: r.execution_time)


# --------------------------------------------------------------- ablations

@dataclass
class UpdateSetRow:
    app: str
    size: int
    lap_rate: Optional[float]
    execution_time: float


def ablation_update_set_cells(scale: str = "bench") -> List[RunSpec]:
    return [make_spec(app, scale, "aec", update_set_size=size)
            for app in LOCK_APPS for size in UPSET_SIZES]


def ablation_update_set_size(results: Results, scale: str = "bench"
                             ) -> List[UpdateSetRow]:
    """|U| sweep (Section 5.1: '|U|=2 seems to be the best size')."""
    rows = []
    for spec, r in _swept(results, ablation_update_set_cells(scale)):
        rate = None
        if r.lap_stats is not None:
            all_locks = [lv[0] for lv in r.extra["lock_vars"]]
            rate = r.lap_stats.group_rates(all_locks)["lap"]
        rows.append(UpdateSetRow(spec.app, spec.config.update_set_size,
                                 rate, r.execution_time))
    return rows


@dataclass
class TrafficRow:
    app: str
    protocol: str
    messages: int
    kbytes: float
    execution_time: float


def ablation_traffic_cells(scale: str = "bench") -> List[RunSpec]:
    return [make_spec(app, scale, protocol)
            for app in TRAFFIC_APPS for protocol in TRAFFIC_PROTOCOLS]


def ablation_update_traffic(results: Results, scale: str = "bench"
                            ) -> List[TrafficRow]:
    """Communication volume across the update/invalidate spectrum.

    Section 1 of the paper: Munin updates *all* sharers; LAP can restrict
    that traffic; TreadMarks avoids eager updates entirely; AEC pushes only
    to the predicted update set.  This ablation measures messages and bytes
    for each point of that spectrum (plus the Lazy Hybrid TreadMarks
    variant of the related work).
    """
    rows = []
    for spec, r in _swept(results, ablation_traffic_cells(scale)):
        rows.append(TrafficRow(spec.app, spec.protocol, r.messages_total,
                               r.network_bytes / 1024.0,
                               r.execution_time))
    return rows


@dataclass
class ScalingRow:
    app: str
    protocol: str
    procs: int
    execution_time: float


def ablation_scalability_cells(scale: str = "test") -> List[RunSpec]:
    return [make_spec(app, scale, protocol,
                      config=SimConfig(machine=MachineParams(num_procs=p)))
            for app in MACHINE_APPS for protocol in MACHINE_PROTOCOLS
            for p in SCALING_PROCS]


def ablation_scalability(results: Results, scale: str = "test"
                         ) -> List[ScalingRow]:
    """Protocol behaviour as the machine grows (the paper fixes 16)."""
    rows = []
    for spec, r in _swept(results, ablation_scalability_cells(scale)):
        rows.append(ScalingRow(spec.app, spec.protocol,
                               spec.config.machine.num_procs,
                               r.execution_time))
    return rows


@dataclass
class SensitivityRow:
    app: str
    protocol: str
    messaging_overhead: int
    execution_time: float


def ablation_sensitivity_cells(scale: str = "test") -> List[RunSpec]:
    return [make_spec(app, scale, protocol,
                      config=SimConfig(machine=MachineParams(
                          messaging_overhead_cycles=overhead)))
            for app in MACHINE_APPS for protocol in MACHINE_PROTOCOLS
            for overhead in SENSITIVITY_OVERHEADS]


def ablation_network_sensitivity(results: Results, scale: str = "test"
                                 ) -> List[SensitivityRow]:
    """Sweep the per-message software overhead (the paper's 400-cycle NOW
    constant): AEC's win comes from removing messages/round trips from the
    critical path, so the gap should widen with costlier messaging and
    narrow as the interconnect gets cheap."""
    rows = []
    for spec, r in _swept(results, ablation_sensitivity_cells(scale)):
        rows.append(SensitivityRow(
            spec.app, spec.protocol,
            spec.config.machine.messaging_overhead_cycles,
            r.execution_time))
    return rows


@dataclass
class RobustnessRow:
    app: str
    protocol: str
    rates: Dict[str, Optional[float]]


def ablation_robustness_cells(scale: str = "bench") -> List[RunSpec]:
    return [make_spec(app, scale, protocol)
            for app in LOCK_APPS for protocol in ("aec", "tmk")]


def ablation_lap_robustness(results: Results, scale: str = "bench"
                            ) -> List[RobustnessRow]:
    """LAP success under AEC vs under TreadMarks (Section 5.1: rates vary
    by less than ~10% between DSMs for lock-intensive applications)."""
    rows = []
    for spec, r in _swept(results, ablation_robustness_cells(scale)):
        if r.lap_stats is None:
            continue
        all_locks = [lv[0] for lv in r.extra["lock_vars"]]
        g = r.lap_stats.group_rates(all_locks)
        g.pop("events", None)
        rows.append(RobustnessRow(spec.app, spec.protocol, g))
    return rows


# --------------------------------------------------------- the experiments

class Experiment(NamedTuple):
    """One paper artifact: the cells it needs and its rendered text."""

    cells: Callable[[str], List[RunSpec]]
    render: Callable[[Results, str], str]


def _experiment(cells: Callable[[str], List[RunSpec]],
                rows: Callable[[Results, str], list],
                render: Callable[[list], str]) -> Experiment:
    return Experiment(cells,
                      lambda results, scale: render(rows(results, scale)))


#: ``repro experiment|sweep NAME`` -> its experiment, in the order
#: ``repro experiment all`` prints them
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(lambda scale: [],
                         lambda results, scale: tables.render_table1()),
    "table2": _experiment(table2_cells, table2, tables.render_table2),
    "table3": _experiment(table3_cells, table3, tables.render_table3),
    "table4": _experiment(table4_cells, table4, tables.render_table4),
    "fig3": _experiment(figure3_cells, figure3, partial(
        tables.render_compare,
        "Figure 3: access-fault overhead, AEC-noLAP=100 vs AEC.")),
    "fig4": _experiment(figure4_cells, figure4, partial(
        tables.render_compare,
        "Figure 4: execution time, AEC-noLAP=100 vs AEC.")),
    "fig5": _experiment(figure5_cells, figure5, partial(
        tables.render_compare,
        "Figure 5: execution time, TreadMarks=100 vs AEC.")),
    "fig6": _experiment(figure6_cells, figure6, partial(
        tables.render_compare,
        "Figure 6: execution time, TreadMarks=100 vs AEC.")),
    "ablation-upset": _experiment(ablation_update_set_cells,
                                  ablation_update_set_size,
                                  tables.render_update_set),
    "ablation-traffic": _experiment(ablation_traffic_cells,
                                    ablation_update_traffic,
                                    tables.render_traffic),
    "ablation-scalability": _experiment(ablation_scalability_cells,
                                        ablation_scalability,
                                        tables.render_scalability),
    "ablation-sensitivity": _experiment(ablation_sensitivity_cells,
                                        ablation_network_sensitivity,
                                        tables.render_sensitivity),
    "ablation-robustness": _experiment(ablation_robustness_cells,
                                       ablation_lap_robustness,
                                       tables.render_robustness),
}


def experiment_cells(names, scale: str = "bench") -> List[RunSpec]:
    """Every cell the named experiments need, deduplicated in order.

    Dedup matters: the tables and figures overlap heavily (`app under AEC`
    appears in Table 2/3/4 and Figures 3-6), and the sweep should simulate
    each distinct cell exactly once.
    """
    specs: List[RunSpec] = []
    seen = set()
    for name in names:
        try:
            experiment = EXPERIMENTS[name]
        except KeyError:
            raise ValueError(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(EXPERIMENTS)}") from None
        for spec in experiment.cells(scale):
            if spec.key not in seen:
                seen.add(spec.key)
                specs.append(spec)
    return specs
