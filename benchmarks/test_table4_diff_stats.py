"""Table 4 — diff statistics in AEC.

Paper shape: merged diffs are a non-negligible share only for the
lock-intensive applications (IS 94 %, Raytrace 22 %, Water-ns 34 %; the
barrier apps are ~0 %); merged diffs are small except in IS (processors
rewrite the whole shared array inside the critical section); most diff
creation cost is hidden behind synchronization for every application
except IS, whose diffs are created at lock releases where nothing can be
overlapped.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_table4


def test_table4_diff_stats(benchmark, results, scale):
    rows = benchmark.pedantic(ex.table4, (results, scale))
    print()
    print(render_table4(rows))
    by = {r.app: r for r in rows}

    # lock apps merge at releases; the purely barrier-phased apps merge
    # less than the lock-dominated IS (our water-sp skeleton's globals
    # page merges more than the original's — see EXPERIMENTS.md)
    for app in ("is", "raytrace", "water-ns", "water-sp"):
        assert by[app].merged_pct > 3.0, (app, by[app].merged_pct)
    for app in ("fft", "ocean"):
        assert by[app].merged_pct < by["is"].merged_pct

    # IS writes the whole shared array inside the CS: its merged diffs are
    # the largest of the suite by far
    assert by["is"].avg_merged_bytes > 4 * max(
        by[a].avg_merged_bytes for a in ("raytrace", "water-ns"))

    # IS hides almost nothing (release-point creation cannot overlap);
    # the other applications hide a significant share
    assert by["is"].hidden_create_pct < 30.0       # paper: 1.7 %
    for app in ("fft", "ocean", "water-sp"):
        assert by[app].hidden_create_pct > 50.0    # paper: 97-99.9 %
    assert by["raytrace"].hidden_create_pct > 30.0  # paper: 85.6 %
