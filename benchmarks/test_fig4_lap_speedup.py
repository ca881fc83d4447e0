"""Figure 4 — running time under AEC without LAP (=100) vs AEC.

Paper shape: LAP improves the lock-intensive applications by 7-28 %
(IS 28 %, Raytrace 17 %, Water-ns 7 %); the IS and Raytrace gains are
amplified by heavy lock contention (shorter critical sections shrink lock
waiting), while Water-ns' gain comes purely from fault overhead.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_compare


def test_fig4_lap_speedup(benchmark, results, scale):
    rows = benchmark.pedantic(ex.figure4, (results, scale))
    print()
    print(render_compare(
        "Figure 4: execution time, AEC-noLAP=100 vs AEC.", rows))

    for row in rows:
        # LAP always helps these applications (paper: 72-93)
        assert row.normalized < 100.0, (row.app, row.normalized)
        # ... and plausibly so (not a >60% swing)
        assert row.normalized > 40.0, (row.app, row.normalized)

    by = {r.app: r for r in rows}
    # the contended apps (IS, Raytrace) gain more than Water-ns
    assert min(by["is"].normalized, by["raytrace"].normalized) \
        < by["water-ns"].normalized
