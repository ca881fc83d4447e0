"""Figure 6 — running time under TreadMarks (=100) vs AEC: lock apps.

Paper shape: AEC wins big for the lock-intensive applications (IS 65,
Raytrace 53 — the paper's headline 47 % improvement; Water-ns ~102, a
tie).  The wins come from (a) diff creation leaving the critical path of
both requester and creator, and (b) LAP eliminating most page faults
inside critical sections.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_compare


def test_fig6_tm_vs_aec(benchmark, results, scale):
    rows = benchmark.pedantic(ex.figure6, (results, scale))
    print()
    print(render_compare(
        "Figure 6: execution time, TreadMarks=100 vs AEC.", rows))
    by = {r.app: r for r in rows}

    # AEC at least matches TreadMarks for every lock app (paper: Water-ns
    # is a statistical tie at 102)
    for row in rows:
        assert row.normalized < 105.0, (row.app, row.normalized)
    # Raytrace is the biggest win of the suite (paper: 53)
    assert by["raytrace"].normalized == min(r.normalized for r in rows)
    # data access + synchronization improvements drive the win (paper §5.4)
    tm, aec = by["raytrace"].base_breakdown, by["raytrace"].other_breakdown
    assert aec.cycles["synch"] < tm.cycles["synch"]
