"""Plain-text renderers that print the paper's tables and figures."""
from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import MachineParams
from repro.stats.breakdown import Breakdown

if TYPE_CHECKING:  # runtime import would cycle: experiments imports tables
    from repro.harness import experiments as ex


def _pct(x: Optional[float]) -> str:
    return "   - " if x is None else f"{100.0 * x:5.1f}"


def render_table1(machine: Optional[MachineParams] = None) -> str:
    """Table 1: system parameters (1 cycle = 10 ns)."""
    m = machine or MachineParams()
    rows = [
        ("Number of procs", m.num_procs),
        ("TLB size", f"{m.tlb_entries} entries"),
        ("TLB fill service time", f"{m.tlb_fill_cycles} cycles"),
        ("All interrupts", f"{m.interrupt_cycles} cycles"),
        ("Page size", f"{m.page_bytes} bytes"),
        ("Total cache", f"{m.cache_bytes // 1024}K bytes"),
        ("Write buffer size", f"{m.write_buffer_entries} entries"),
        ("Cache line size", f"{m.cache_line_bytes} bytes"),
        ("Memory setup time", f"{m.mem_setup_cycles} cycles"),
        ("Memory access time", f"{m.mem_cycles_per_word} cycles/word"),
        ("I/O bus setup time", f"{m.io_setup_cycles} cycles"),
        ("I/O bus access time", f"{m.io_cycles_per_word} cycles/word"),
        ("Network path width", f"{m.net_path_bits} bits (bidir)"),
        ("Messaging overhead", f"{m.messaging_overhead_cycles} cycles"),
        ("Switch latency", f"{m.switch_cycles} cycles"),
        ("Wire latency", f"{m.wire_cycles} cycles"),
        ("List processing", f"{m.list_cycles_per_element} cycles/element"),
        ("Page twinning", f"{m.twin_cycles_per_word} cycles/word + mem"),
        ("Diff appl/creation", f"{m.diff_cycles_per_word} cycles/word + mem"),
    ]
    width = max(len(k) for k, _ in rows)
    out = ["Table 1: Defaults for System Params. 1 cycle = 10 ns."]
    out += [f"  {k:<{width}}  {v}" for k, v in rows]
    return "\n".join(out)


def render_table2(rows: List[ex.Table2Row]) -> str:
    out = ["Table 2: Synchronization events per application.",
           f"  {'Appl':<10} {'# locks':>8} {'# acq events':>13} "
           f"{'# barrier events':>17}"]
    for r in rows:
        out.append(f"  {r.app:<10} {r.locks:>8} {r.acquires:>13} "
                   f"{r.barriers:>17}")
    return "\n".join(out)


def render_table3(rows: List[ex.Table3Row]) -> str:
    out = ["Table 3: LAP success rates (|U| = 2).",
           f"  {'Appl':<10} {'var group':<10} {'events':>7} {'%tot':>6}  "
           f"{'LAP':>5} {'waitQ':>6} {'wQ+aff':>7} {'wQ+vQ':>6}"]
    for r in rows:
        out.append(
            f"  {r.app:<10} {r.group:<10} {r.events:>7} "
            f"{r.pct_of_total:>5.1f}%  "
            f"{_pct(r.rates['lap'])} {_pct(r.rates['waitq']):>6} "
            f"{_pct(r.rates['waitq_affinity']):>7} "
            f"{_pct(r.rates['waitq_virtualq']):>6}")
    return "\n".join(out)


def render_table4(rows: List[ex.Table4Row]) -> str:
    out = ["Table 4: Diff statistics in AEC.",
           f"  {'Appl':<10} {'Size':>6} {'MergedSz':>9} {'Merged':>7} "
           f"{'Create':>9} {'Hidden':>7} {'HidAppl':>8}"]
    for r in rows:
        out.append(
            f"  {r.app:<10} {r.avg_diff_bytes:>6.0f} "
            f"{r.avg_merged_bytes:>9.0f} {r.merged_pct:>6.1f}% "
            f"{r.create_cycles_per_proc / 1e6:>7.1f}M "
            f"{r.hidden_create_pct:>6.1f}% {r.hidden_apply_pct:>7.1f}%")
    return "\n".join(out)


def _render_breakdown_bar(label: str, b: Breakdown, norm: float) -> str:
    pct = {k: 100.0 * v / norm for k, v in b.cycles.items()}
    total = 100.0 * b.total / norm
    cats = "  ".join(f"{k}={v:5.1f}" for k, v in pct.items())
    return f"    {label:<6} {total:6.1f}  [{cats}]"


def render_compare(title: str, rows: List[ex.CompareRow]) -> str:
    """Render Figure 3/4/5/6-style normalized bar pairs."""
    out = [title]
    for r in rows:
        out.append(f"  {r.app}: {r.base_label}=100.0 -> "
                   f"{r.other_label}={r.normalized:.1f}")
        if r.base_breakdown is not None and r.other_breakdown is not None:
            norm = r.base_breakdown.total
            out.append(_render_breakdown_bar(r.base_label,
                                             r.base_breakdown, norm))
            out.append(_render_breakdown_bar(r.other_label,
                                             r.other_breakdown, norm))
    return "\n".join(out)


def render_update_set(rows: List[ex.UpdateSetRow]) -> str:
    out = ["Ablation: update set size |U| sweep.",
           f"  {'Appl':<10} {'|U|':>4} {'LAP rate':>9} {'exec time':>12}"]
    for r in rows:
        rate = "-" if r.lap_rate is None else f"{100 * r.lap_rate:.1f}%"
        out.append(f"  {r.app:<10} {r.size:>4} {rate:>9} "
                   f"{r.execution_time / 1e6:>10.2f}M")
    return "\n".join(out)


def render_traffic(rows: List[ex.TrafficRow]) -> str:
    out = ["Ablation: communication across the update/invalidate spectrum.",
           f"  {'Appl':<10} {'protocol':<10} {'messages':>9} {'KB':>9} "
           f"{'Mcycles':>9}"]
    for r in rows:
        out.append(f"  {r.app:<10} {r.protocol:<10} {r.messages:>9} "
                   f"{r.kbytes:>9.0f} {r.execution_time / 1e6:>9.2f}")
    return "\n".join(out)


def render_scalability(rows: List[ex.ScalingRow]) -> str:
    procs = sorted({r.procs for r in rows})
    times: Dict[Tuple[str, str], Dict[int, float]] = {}
    for r in rows:
        times.setdefault((r.app, r.protocol), {})[r.procs] = r.execution_time
    out = ["Ablation: execution time as the machine grows (Mcycles).",
           f"  {'Appl':<10} {'proto':<6} "
           + " ".join(f"{f'{p} procs':>10}" for p in procs)]
    for (app, protocol), by_procs in times.items():
        out.append(f"  {app:<10} {protocol:<6} " + " ".join(
            f"{by_procs[p] / 1e6:>9.2f}M" for p in procs))
    return "\n".join(out)


def render_sensitivity(rows: List[ex.SensitivityRow]) -> str:
    """TreadMarks vs AEC per messaging overhead (rows of both protocols)."""
    times: Dict[Tuple[str, int], Dict[str, float]] = {}
    for r in rows:
        times.setdefault((r.app, r.messaging_overhead),
                         {})[r.protocol] = r.execution_time
    out = ["Ablation: sensitivity to the per-message software overhead.",
           f"  {'Appl':<10} {'overhead':>9} {'TM (Mcy)':>10} "
           f"{'AEC (Mcy)':>10} {'TM/AEC':>7}"]
    for (app, overhead), t in times.items():
        tm, aec = t["tmk"], t["aec"]
        out.append(f"  {app:<10} {overhead:>9} {tm / 1e6:>10.2f} "
                   f"{aec / 1e6:>10.2f} {tm / aec:>7.2f}")
    return "\n".join(out)


def render_robustness(rows: List[ex.RobustnessRow]) -> str:
    out = ["Ablation: LAP success rate robustness across DSM protocols.",
           f"  {'Appl':<10} {'proto':<6} {'LAP':>6} {'waitQ':>6} "
           f"{'wQ+aff':>7} {'wQ+vQ':>6}"]
    for r in rows:
        out.append(f"  {r.app:<10} {r.protocol:<6} {_pct(r.rates['lap']):>6} "
                   f"{_pct(r.rates['waitq']):>6} "
                   f"{_pct(r.rates['waitq_affinity']):>7} "
                   f"{_pct(r.rates['waitq_virtualq']):>6}")
    return "\n".join(out)
