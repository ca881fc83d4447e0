"""Self-tests of the benchmark: ``python -m pytest perf -q``."""
from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

import run
from layers import CLASS_LAYER, LAYERS, PACKAGE_LAYER, LayerMap, \
    module_layer, module_name, rollup
from worker import SRC, SimRunClock, build_cells, run_round, use_source_tree

use_source_tree()


def _repro_modules():
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                yield module_name(os.path.join(dirpath, name), SRC)


def test_every_module_maps_to_one_declared_layer():
    modules = list(_repro_modules())
    assert len(modules) > 50
    used = {module_layer(m) for m in modules} | set(CLASS_LAYER.values())
    assert used == set(LAYERS)
    assert set(PACKAGE_LAYER.values()) <= set(LAYERS)
    with pytest.raises(ValueError):
        module_layer("numpy.core")


def test_carved_out_classes_resolve_to_their_layer():
    import repro.config
    import repro.protocols.base as base
    layers = LayerMap()
    for func, layer in (
            (repro.config.MachineParams.diff_apply_cycles, "machine"),
            (repro.config.config_digest, "harness"),
            (base.ReliableTransport.on_send, "protocols.transport"),
            (base.World.__init__, "protocols.base")):
        code = func.__code__
        assert layers.layer((code.co_filename, code.co_firstlineno,
                             code.co_name)) == layer
    assert layers.layer(("~", 0, "<built-in method builtins.len>")) is None


def test_layer_self_time_sums_to_traced_total():
    cells = build_cells("certify", 5, smoke=True)[:7]
    clock = SimRunClock()
    profile = cProfile.Profile()
    profile.enable()
    run_round(cells, clock)
    profile.disable()
    out = rollup(pstats.Stats(profile), LayerMap())
    total = out.pop("@total")["self_s"]
    assert total > 0
    assert sum(v["self_s"] for v in out.values()) == pytest.approx(
        total, rel=0.01)
    for layer in ("engine", "protocols.sc", "protocols.transport", "fuzz",
                  "check", "faults", "recovery"):
        assert out[layer]["calls"] > 0, layer


def test_traced_and_untraced_simulated_numbers_agree():
    cells = build_cells("certify", 11, smoke=True)
    clock = SimRunClock()
    plain = run_round(cells, clock)
    profile = cProfile.Profile()
    profile.enable()
    traced = run_round(cells, clock)
    profile.disable()
    assert plain["failures"] == traced["failures"] == []
    assert plain["sims"] == traced["sims"]
    assert plain["counters"] == traced["counters"]
    assert plain["counters"]["crashes"] > 0


def test_seed_orders_cells_without_changing_them():
    a = build_cells("aec-barrier", 1)
    b = build_cells("aec-barrier", 2)
    assert sorted(c.name for c in a) == sorted(c.name for c in b)
    assert [c.name for c in build_cells("aec-barrier", 1)] == \
        [c.name for c in a]


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    assert run.verdict(base, base, 0.1, True)[0] == "unchanged"
    assert run.verdict(base, [v * 0.8 for v in base], 0.1, True) == \
        ("better", 1.0)
    # fewer than ten pairs never support a claimed gain
    assert run.verdict(base[:5], [v * 0.8 for v in base[:5]], 0.1,
                       True)[0] == "unchanged"
    assert run.verdict(base, [v * 1.3 for v in base], 0.1, True)[0] == \
        "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(base, noisy, 0.1, True)[0] == "unresolved"
    assert run.verdict([100.0] * 3, [99.0] * 3, 0.001, False)[0] == "worse"


def test_differing_simulated_numbers_abort(monkeypatch):
    calls = []

    def fake(workload, seed, seconds, trace, smoke=False):
        calls.append(workload)
        values = {name: 1.0 for name in run.EXACT}
        if workload == "tmk" and calls.count("tmk") == 2:
            values["sim_msgs"] = 2.0
        return {"values": values}

    monkeypatch.setattr(run, "measure_run", fake)
    with pytest.raises(run.BenchError) as err:
        run.run_suite(1, 2, 0.0, smoke=True)
    assert err.value.status == 1 and "sim_msgs" in str(err.value)


def test_smoke_run_prints_every_declared_metric():
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--smoke", "--seed", "3"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    bench = run.load_benchmark()
    for spec in bench["end_to_end"] + bench["per_layer"]:
        assert f" {spec['name']} " in proc.stdout, spec["name"]
    assert "FAILED" not in proc.stdout


def test_result_line_and_bare_directory(tmp_path):
    cmd = [sys.executable, "perf/run.py", "--workload", "certify", "--seed",
           "4", "--seconds", "0", "--trace", "0", "--smoke"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 21
    names = [s["name"] for s in run.load_benchmark()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())

    # without the program's sources the benchmark fails without a result
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
