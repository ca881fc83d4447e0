"""Tests for the parallel, disk-cached experiment runner (harness.sweep)."""
import argparse
import ast
import pickle

import pytest

from repro.config import MachineParams, SimConfig, config_digest
from repro.harness import experiments as ex
from repro.harness import sweep as sw
from repro.harness.cli import build_parser, main


def _subparser(parser, name):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def assert_results_equal(a, b):
    """Every statistic the paper's tables consume must match exactly."""
    assert a.execution_time == b.execution_time
    assert a.breakdown.cycles == b.breakdown.cycles
    assert [n.cycles for n in a.node_breakdowns] == \
        [n.cycles for n in b.node_breakdowns]
    assert a.diff_stats == b.diff_stats
    assert a.fault_stats == b.fault_stats
    assert a.lock_acquires == b.lock_acquires
    assert a.barrier_events == b.barrier_events
    assert a.messages_total == b.messages_total
    assert a.network_bytes == b.network_bytes
    assert a.events_processed == b.events_processed
    if a.lap_stats is None:
        assert b.lap_stats is None
    else:
        assert a.lap_stats.overall_rates() == b.lap_stats.overall_rates()


SMALL_CELLS = [("is", "aec"), ("is", "tmk"), ("fft", "aec"), ("fft", "tmk")]


def small_specs():
    return [sw.make_spec(app, "test", protocol)
            for app, protocol in SMALL_CELLS]


class TestRunSpec:
    def test_same_inputs_same_key(self):
        assert sw.make_spec("is", "test", "aec").key == \
            sw.make_spec("is", "test", "aec").key

    def test_every_input_is_keyed(self):
        base = sw.make_spec("is", "test", "aec")
        variants = [
            sw.make_spec("fft", "test", "aec"),
            sw.make_spec("is", "bench", "aec"),
            sw.make_spec("is", "test", "aec-nolap"),
            sw.make_spec("is", "test", "aec", check=False),
            sw.make_spec("is", "test", "aec", seed=7),
            sw.make_spec("is", "test", "aec", update_set_size=3),
            sw.make_spec("is", "test", "aec", max_events=1_000_000),
            sw.make_spec("is", "test", "aec",
                         config=SimConfig(machine=MachineParams(
                             num_procs=8))),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_protocol_overrides_resolved_into_key(self):
        """tmk vs tmk-lh share every explicit argument and config field;
        the variant lives in the protocol name, which the key covers."""
        assert sw.make_spec("is", "test", "tmk").key != \
            sw.make_spec("is", "test", "tmk-lh").key

    def test_spec_config_is_a_frozen_copy(self):
        cfg = SimConfig()
        spec = sw.make_spec("is", "test", "aec", config=cfg)
        key = spec.key
        cfg.seed = 999  # caller mutates afterwards
        assert spec.config.seed == 42
        assert spec.key == key

    def test_spec_equality_and_hash(self):
        a, b = sw.make_spec("is", "test", "aec"), \
            sw.make_spec("is", "test", "aec")
        assert a == b and len({a, b}) == 1
        assert a != sw.make_spec("is", "test", "tmk")

    def test_config_digest_covers_machine(self):
        assert config_digest(SimConfig()) != config_digest(
            SimConfig(machine=MachineParams(num_procs=8)))


class TestDeterminismAndCache:
    def test_same_spec_twice_equal_result(self):
        spec = sw.make_spec("fft", "test", "aec")
        assert_results_equal(sw.execute_spec(spec), sw.execute_spec(spec))

    def test_reregistered_protocol_name_runs_its_new_class(self,
                                                           monkeypatch):
        """A cell names its protocol by string: after the name is
        registered to another class, the cell runs that class instead of
        answering with the first class's result."""
        from repro.harness.runner import PROTOCOLS
        built = []

        def tmk_counted(world, node_id):
            built.append(node_id)
            return PROTOCOLS["tmk"](world, node_id)

        spec = sw.make_spec("is", "test", "swapped")
        monkeypatch.setitem(PROTOCOLS, "swapped", PROTOCOLS["aec"])
        first = sw.run_sweep([spec]).result_for(spec)
        monkeypatch.setitem(PROTOCOLS, "swapped", tmk_counted)
        second = sw.run_sweep([spec]).result_for(spec)
        assert built == list(range(16))
        assert second.messages_total != first.messages_total

    def test_disk_round_trip_preserves_everything(self, tmp_path):
        cache = sw.DiskCache(str(tmp_path))
        spec = sw.make_spec("is", "test", "aec")
        result = sw.execute_spec(spec)
        cache.store(spec, result)
        loaded = cache.load(spec.key)
        assert_results_equal(result, loaded)
        assert sorted(loaded.extra) == ["app_params", "lock_vars",
                                        "pair_bytes", "pair_messages"]
        assert loaded.extra["lock_vars"] == result.extra["lock_vars"]
        import numpy as np
        np.testing.assert_array_equal(loaded.extra["pair_messages"],
                                      result.extra["pair_messages"])

    def test_warm_rerun_executes_nothing(self, tmp_path):
        specs = small_specs()
        cold = sw.run_sweep(specs, jobs=1, cache_dir=str(tmp_path))
        assert cold.executed == len(specs) and not cold.failures
        warm = sw.run_sweep(specs, jobs=1, cache_dir=str(tmp_path))
        assert warm.executed == 0
        assert warm.hits_disk == len(specs)
        for spec in specs:
            assert_results_equal(cold.result_for(spec),
                                 warm.result_for(spec))

    def test_serial_and_parallel_sweeps_identical(self, tmp_path):
        specs = small_specs()
        serial = sw.run_sweep(specs, jobs=1,
                              cache_dir=str(tmp_path / "serial"))
        parallel = sw.run_sweep(specs, jobs=4,
                                cache_dir=str(tmp_path / "parallel"))
        assert serial.executed == parallel.executed == len(specs)
        assert not serial.failures and not parallel.failures
        for spec in specs:
            assert_results_equal(serial.result_for(spec),
                                 parallel.result_for(spec))

    def test_corrupted_entry_transparently_rerun(self, tmp_path):
        spec = sw.make_spec("is", "test", "aec")
        reference = sw.run_sweep([spec], cache_dir=str(tmp_path)) \
            .result_for(spec)
        pkl, _meta = sw.DiskCache(str(tmp_path))._paths(spec.key)
        with open(pkl, "wb") as fh:
            fh.write(b"\x80\x05 this is not a pickle")
        rerun = sw.run_sweep([spec], cache_dir=str(tmp_path))
        assert rerun.executed == 1  # corrupt entry evicted, cell re-ran
        assert_results_equal(reference, rerun.result_for(spec))

    def test_stale_entry_of_wrong_type_rerun(self, tmp_path):
        spec = sw.make_spec("is", "test", "aec")
        cache = sw.DiskCache(str(tmp_path))
        pkl, _meta = cache._paths(spec.key)
        pkl_dir = tmp_path / spec.key[:2]
        pkl_dir.mkdir(parents=True, exist_ok=True)
        with open(pkl, "wb") as fh:
            pickle.dump({"not": "a RunResult"}, fh)
        assert cache.load(spec.key) is None
        report = sw.run_sweep([spec], cache_dir=str(tmp_path))
        assert report.executed == 1

    def test_duplicate_specs_folded(self, tmp_path):
        spec = sw.make_spec("is", "test", "aec")
        report = sw.run_sweep([spec, spec, spec])
        assert report.total == 1 and report.duplicates == 2
        assert report.executed == 1

    def test_failed_cell_reported_not_raised(self):
        good = sw.make_spec("is", "test", "aec")
        bad = sw.RunSpec("is", "nope", "aec", SimConfig(), True)
        report = sw.run_sweep([good, bad])
        assert len(report.failures) == 1
        assert "nope" in report.failures[0][1]
        assert good.key in report.results and bad.key not in report.results

    def test_failed_cells_are_named_apart(self):
        # ablation-upset cells differ only in the update-set size
        bad = [sw.RunSpec("is", "nope", "aec", SimConfig(update_set_size=u),
                          True) for u in (1, 3)]
        report = sw.run_sweep(bad)
        names = [spec.name for spec, _error in report.failures]
        assert names[0] != names[1]
        assert "update_set_size=3" in names[1]

    def test_disk_cache_belongs_to_one_call(self, tmp_path):
        """A sweep's cache_dir is not attached to later sweeps: one
        without a cache_dir neither reads nor writes it."""
        cache_dir = str(tmp_path / "cache")
        spec = sw.make_spec("is", "test", "aec")
        sw.run_sweep([spec], cache_dir=cache_dir)
        again = sw.run_sweep([spec, sw.make_spec("fft", "test", "aec")])
        assert again.executed == 2 and again.hits_disk == 0
        assert len(sw.DiskCache(cache_dir).keys()) == 1


class TestExperimentCells:
    def test_cells_are_deduplicated_across_experiments(self):
        # app-under-AEC cells are shared by table2/3/4 and fig3-6
        all_names = list(ex.EXPERIMENTS)
        deduped = ex.experiment_cells(all_names, "test")
        raw = sum(len(ex.EXPERIMENTS[n].cells("test")) for n in all_names)
        assert len(deduped) < raw
        assert len({s.key for s in deduped}) == len(deduped)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ex.experiment_cells(["tableX"], "test")

    def test_cells_cover_row_builders(self, warm_cache):
        """The declared cells are exactly what the row builders read:
        rendering from their sweep finds every cell, and a builder asked
        for a cell its sweep did not run raises instead of running it."""
        report = sw.run_sweep(ex.experiment_cells(["table2", "fig4"],
                                                  "test"),
                              cache_dir=warm_cache)
        assert report.hits_disk == len(report.specs) and not report.failures
        assert ex.table2(report.results, "test")
        assert ex.figure4(report.results, "test")
        with pytest.raises(LookupError, match="aec-nolap.* not swept"):
            ex.figure3({k: r for k, r in report.results.items()
                        if r.protocol != "aec-nolap"}, "test")

    def test_scalability_cells_carry_custom_machines(self):
        cells = ex.ablation_scalability_cells("test")
        assert [c.config.machine.num_procs for c in cells
                if (c.app, c.protocol) == ("is", "aec")] == [4, 8, 16]
        assert len({c.key for c in cells}) == len(cells) == 12


class TestSweepCLI:
    def test_sweep_command_and_warm_rerun(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "table2", "--scale", "test",
                     "--jobs", "1", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "6 executed" in out
        assert main(["sweep", "table2", "--scale", "test",
                     "--jobs", "1", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "6 disk hits" in out

    def test_cache_inspect_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["sweep", "table2", "--scale", "test",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "inspect", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "6 cells" in out and "aec" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 6" in capsys.readouterr().out
        assert main(["cache", "inspect", "--cache-dir", cache_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_sweep_rejects_unknown_experiment(self, capsys):
        assert main(["sweep", "tableX", "--scale", "test"]) == 2

    def test_experiment_renders_every_name_sweep_accepts(self, capsys):
        experiment = {action.dest: action for action in
                      _subparser(build_parser(), "experiment")._actions}
        rendered = set(experiment["name"].choices) - {"all"}
        # sweep names the experiments it accepts when it rejects one
        assert main(["sweep", "tableX", "--scale", "test"]) == 2
        err = capsys.readouterr().err
        accepted = ast.literal_eval(err[err.index("["):err.rindex("]") + 1])
        assert rendered == set(accepted)

    def test_experiment_all_renders_a_warm_sweep(self, warm_cache, capsys,
                                                monkeypatch):
        """Every cell ``experiment all`` renders is one ``sweep`` ran:
        after a full sweep into a cache it runs no simulation."""
        def no_runs(spec):
            raise AssertionError(f"{spec.name} was simulated")

        monkeypatch.setattr(sw, "execute_spec", no_runs)
        assert main(["experiment", "all", "--scale", "test",
                     "--cache-dir", warm_cache]) == 0
        out = capsys.readouterr().out
        for title in ("Table 1", "Table 4", "Figure 6", "update set size",
                      "update/invalidate spectrum", "machine grows",
                      "per-message software overhead", "robustness"):
            assert title in out, title

    def test_experiment_failed_cell_exits_1(self, capsys, monkeypatch):
        def broken(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(sw, "execute_spec", broken)
        assert main(["experiment", "table2", "--scale", "test"]) == 1
        captured = capsys.readouterr()
        assert "Table 2" not in captured.out
        assert "FAILED is/test/aec" in captured.err
        assert "RuntimeError: boom" in captured.err

    def test_experiment_command_with_jobs_and_cache(self, tmp_path,
                                                    capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["experiment", "table2", "--scale", "test",
                     "--jobs", "2", "--cache-dir", cache_dir]) == 0
        assert "Table 2" in capsys.readouterr().out
        assert sw.DiskCache(cache_dir).keys()  # results were persisted


# ----------------------------------------- sweep-level metrics (satellite)

class TestSweepMetricsMerge:
    """``sweep --metrics`` sums the cells' results; it changes no cell."""

    def _report(self, jobs=1):
        specs = [sw.make_spec("is", "test", p) for p in ("aec", "tmk")]
        return sw.run_sweep(specs, jobs=jobs), specs

    @staticmethod
    def _summed(report, specs):
        results = [report.result_for(s) for s in specs]
        return {
            "lock_acquires": sum(r.total_lock_acquires for r in results),
            "lap_hits": sum(s.hits["lap"] for r in results
                            for s in r.lap_stats.per_lock),
            "lap_scored": sum(s.scored for r in results
                              for s in r.lap_stats.per_lock),
            "lap_pushed_bytes": sum(r.diff_stats.lap_pushed_bytes
                                    for r in results),
            "lap_wasted_bytes": sum(
                sum(r.diff_stats.lap_wasted_bytes.values())
                for r in results),
        }

    def test_merged_equals_sum_of_cells(self):
        report, specs = self._report()
        agg = report.aggregates()
        for name, total in self._summed(report, specs).items():
            assert agg[name] == total, name
        assert agg["lap_pushed_bytes"] > 0
        assert agg["retransmissions"] == agg["crashes"] == 0

    def test_fleet_hit_rate_weighs_cells_by_scored(self):
        report, specs = self._report()
        agg = report.aggregates()
        assert 0.0 < agg["lap_hits"] / agg["lap_scored"] <= 1.0
        summary = report.metrics_summary()
        assert "fleet LAP hit rate" in summary
        assert "wasted update bytes" in summary

    def test_merge_survives_worker_processes(self):
        serial, specs = self._report(jobs=1)
        parallel, _ = self._report(jobs=2)
        assert parallel.executed == 2
        assert parallel.aggregates() == serial.aggregates() == \
            self._summed(parallel, specs) | {
                "retransmissions": 0, "injected_faults": 0, "crashes": 0,
                "restarts": 0, "declared_dead": 0}

    def test_faulted_cells_add_transport_and_crash_counts(self):
        from repro.faults import resolve_plan
        specs = [sw.make_spec("is", "test", "aec",
                              faults=resolve_plan(plan))
                 for plan in ("lossy-1pct", "crash-one-node")]
        report = sw.run_sweep(specs)
        results = [report.result_for(s) for s in specs]
        agg = report.aggregates()
        assert agg["retransmissions"] == \
            sum(r.net_faults.retries for r in results) > 0
        assert results[0].recovery is None  # lossy-1pct crashes no node
        assert agg["crashes"] == results[1].recovery.crashes > 0
        summary = report.metrics_summary()
        assert "retransmissions" in summary and "node crashes" in summary

    def test_no_metrics_means_none(self, warm_cache, capsys):
        assert main(["sweep", "table2", "--scale", "test",
                     "--cache-dir", warm_cache]) == 0
        assert "sweep aggregates" not in capsys.readouterr().out

    def test_cli_metrics_flag(self, warm_cache, capsys):
        """--metrics reads the cells a plain sweep cached: a warm re-run
        executes nothing and still prints the aggregates."""
        assert main(["sweep", "table2", "--scale", "test", "--cache-dir",
                     warm_cache, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert " 0 executed" in out
        assert "sweep aggregates" in out
        assert "fleet LAP hit rate" in out
