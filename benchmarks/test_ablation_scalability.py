"""Ablation — machine-size sweep (the paper fixes 16 processors).

Checks that the AEC-over-TreadMarks advantage is not an artifact of one
machine size: AEC stays at least competitive at 4, 8 and 16 nodes.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_scalability


def test_ablation_scalability(benchmark, results):
    rows = benchmark.pedantic(ex.ablation_scalability, (results, "test"))
    print()
    print(render_scalability(rows))
    table = {}
    for r in rows:
        table.setdefault((r.app, r.protocol), {})[r.procs] = r.execution_time

    for app in ("is", "water-sp"):
        for p in (4, 8, 16):
            tm = table[(app, "tmk")][p]
            aec = table[(app, "aec")][p]
            assert aec < tm * 1.05, (app, p, aec, tm)
