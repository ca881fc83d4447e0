"""Table 3 — LAP success rates for |U| = 2.

Paper shape: overall LAP success 80-97 % for the important lock variables;
the waiting queue dominates for contended locks (IS, Raytrace's memory
lock, Ocean's error lock); affinity rescues Raytrace's task-queue locks and
Water-ns' molecule locks (whose waitQ rate is 0.0 %); the virtual queue
contributes for Water-nsquared.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_table3


def _row(rows, app, group):
    for r in rows:
        if r.app == app and r.group == group:
            return r
    raise AssertionError(f"no Table 3 row for {app}/{group}")


def test_table3_lap_success(benchmark, results, scale):
    rows = benchmark.pedantic(ex.table3, (results, scale))
    print()
    print(render_table3(rows))

    is_row = _row(rows, "is", "rank_lock")
    assert is_row.rates["lap"] >= 0.80          # paper: 92 %
    assert is_row.rates["waitq"] >= 0.75        # paper: 87 %

    mem = _row(rows, "raytrace", "mem_lock")
    assert mem.rates["lap"] >= 0.85             # paper: 96 %
    assert mem.rates["waitq"] >= 0.85           # contended: waitQ suffices

    mol = _row(rows, "water-ns", "molecule")
    assert mol.rates["lap"] >= 0.60             # paper: 80.4 %
    assert mol.rates["waitq"] <= 0.10           # paper: 0.0 %
    # virtual queue and affinity must carry molecule locks, as in the paper
    assert mol.rates["waitq_virtualq"] > mol.rates["waitq"] + 0.2
    assert mol.rates["waitq_affinity"] > mol.rates["waitq"] + 0.2

    err = _row(rows, "ocean", "err_lock")
    assert err.rates["lap"] >= 0.75             # paper: 89 %

    sp = _row(rows, "water-sp", "global")
    assert sp.rates["lap"] >= 0.60              # paper: 97 %
