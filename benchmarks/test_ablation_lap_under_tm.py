"""Ablation — LAP prediction robustness across DSM protocols (Section 5.1).

Paper: comparing LAP under AEC and under TreadMarks, success rates do not
vary by more than ~10 % for the lock-intensive applications, even though
the timing and ordering of synchronization events change — LAP's inputs
(queues, affinity) are properties of the application, not the protocol.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_robustness


def test_ablation_lap_under_tm(benchmark, results, scale):
    rows = benchmark.pedantic(ex.ablation_lap_robustness, (results, scale))
    print()
    print(render_robustness(rows))

    by = {(r.app, r.protocol): r.rates for r in rows}
    for app in ("is", "raytrace", "water-ns"):
        aec = by[(app, "aec")]["lap"]
        tmk = by[(app, "tmk")]["lap"]
        assert aec is not None and tmk is not None
        assert abs(aec - tmk) <= 0.15, (app, aec, tmk)
