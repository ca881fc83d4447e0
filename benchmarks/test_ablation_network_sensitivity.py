"""Ablation — sensitivity to the per-message software overhead.

The paper's 400-cycle messaging overhead is a 1997 network-of-workstations
constant.  AEC's advantage comes from taking messages and diff round trips
off the critical path, so it should grow as messaging gets more expensive
and shrink (but not invert) as it gets cheap — evidence that the protocol
comparison is robust to the interconnect era.
"""
from repro.harness import experiments as ex
from repro.harness.tables import render_sensitivity


def test_ablation_network_sensitivity(benchmark, results):
    rows = benchmark.pedantic(ex.ablation_network_sensitivity,
                              (results, "test"))
    print()
    print(render_sensitivity(rows))
    table = {}
    for r in rows:
        table[(r.app, r.protocol, r.messaging_overhead)] = r.execution_time
    overheads = (100, 400, 1600)
    for app in ("is", "water-sp"):
        ratios = []
        for ov in overheads:
            tm = table[(app, "tmk", ov)]
            aec = table[(app, "aec", ov)]
            ratios.append(tm / aec)
        # AEC never loses across the sweep ...
        assert all(r > 0.95 for r in ratios), (app, ratios)
        # ... and costlier messaging favours AEC
        assert ratios[-1] > ratios[0], (app, ratios)
