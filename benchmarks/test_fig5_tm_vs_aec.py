"""Figure 5 — running time under TreadMarks (=100) vs AEC: barrier apps.

Paper shape: AEC wins for all three (FFT 75, Ocean 96, Water-sp 80),
mostly by moving diff creation off the critical path; AEC sends *more*
messages than TreadMarks at barriers (its eager pushes), which is why its
margin is smallest for the most barrier-intensive application (Ocean in
the paper's testbed).
"""
from repro.harness import experiments as ex
from repro.harness.sweep import make_spec
from repro.harness.tables import render_compare


def test_fig5_tm_vs_aec(benchmark, results, scale):
    rows = benchmark.pedantic(ex.figure5, (results, scale))
    print()
    print(render_compare(
        "Figure 5: execution time, TreadMarks=100 vs AEC.", rows))

    for row in rows:
        assert row.normalized < 100.0, (row.app, row.normalized)

    # AEC's eager barrier traffic: more messages than TM for FFT, as the
    # paper reports ("it requires more messages than TreadMarks at barrier
    # events")
    tm = results[make_spec("fft", scale, "tmk").key]
    aec = results[make_spec("fft", scale, "aec").key]
    assert aec.messages_total > tm.messages_total
