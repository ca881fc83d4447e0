"""Table 2 — synchronization events in the six applications.

Paper values at full scale: IS 1/80/21, Raytrace 18/3111/1, Water-ns
518/28128/33, FFT 1/16/7, Ocean 4/3328/900, Water-sp 6/533/33.  Lock and
barrier *structure* is scale-invariant (IS and FFT reproduce their counts
exactly); event counts for the molecule/grid apps scale with the input.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_table2


def test_table2_sync_events(benchmark, results, scale):
    rows = benchmark.pedantic(ex.table2, (results, scale))
    byapp = {r.app: r for r in rows}

    # structural identities that hold at any scale
    assert byapp["is"].locks == 1
    assert byapp["is"].acquires == 80 and byapp["is"].barriers == 21
    assert byapp["fft"].locks == 1
    assert byapp["fft"].acquires == 16 and byapp["fft"].barriers == 7
    assert byapp["raytrace"].locks == 18
    assert byapp["raytrace"].barriers == 2  # paper: 1 + our explicit init
    assert byapp["ocean"].locks == 4
    assert byapp["water-sp"].locks == 6
    # water-ns: one lock per molecule plus 6 globals
    assert byapp["water-ns"].locks > 100
    # relative ordering of lock intensity matches the paper
    assert byapp["water-ns"].acquires > byapp["raytrace"].acquires
    assert byapp["raytrace"].acquires > byapp["is"].acquires
    assert byapp["ocean"].barriers > 100

    print()
    print(render_table2(rows))
