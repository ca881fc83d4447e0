"""Ablation — update-set size |U| sweep (Section 5.1).

Paper: growing |U| from 1 to 2 increases the LAP success rate
significantly; going to 3 buys no more than 10 % while transferring more
data, so |U| = 2 "seems to be the best size".
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_update_set


def test_ablation_update_set_size(benchmark, results, scale):
    rows = benchmark.pedantic(ex.ablation_update_set_size, (results, scale))
    print()
    print(render_update_set(rows))

    by = {(r.app, r.size): r for r in rows}
    for app in ("is", "raytrace", "water-ns"):
        r1, r2, r3 = (by[(app, s)] for s in (1, 2, 3))
        # |U|=2 never hurts the success rate vs |U|=1
        assert r2.lap_rate >= r1.lap_rate - 0.02, app
        # |U|=3 adds little accuracy beyond |U|=2 (paper: <= 10%)
        assert r3.lap_rate - r2.lap_rate <= 0.10, app
