"""Ablation — communication across the update/invalidate spectrum (§1, §6).

The paper's positioning claims, measured on one axis:

* "AEC leads to much less communication than in Munin, since updates are
  only sent to the update set of the lock releaser, as opposed to all
  processors that shared the modified data";
* LAP "can be used to restrict the update traffic" of release-consistent
  systems such as Munin (our ``munin-lap``);
* the Lazy Hybrid TreadMarks variant piggybacks the releaser's own diffs
  on lock grants — it only helps when the releaser's data covers the
  acquirer's needs, the gap AEC's merged-diff chains close.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_traffic


def test_ablation_update_traffic(benchmark, results, scale):
    rows = benchmark.pedantic(ex.ablation_update_traffic, (results, scale))
    print()
    print(render_traffic(rows))
    by = {(r.app, r.protocol): r for r in rows}

    for app in ("is", "raytrace", "water-sp"):
        munin = by[(app, "munin")]
        munin_lap = by[(app, "munin-lap")]
        aec = by[(app, "aec")]
        # LAP restricts Munin's update traffic (paper §1)
        assert munin_lap.messages < munin.messages, app
        # AEC communicates less than all-sharer updates (paper §6)
        assert aec.messages < munin.messages, app
        assert aec.kbytes < munin.kbytes, app
