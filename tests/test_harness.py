"""Tests for the experiment harness: runner, cache, experiments, tables, CLI."""
import pytest

from repro.config import MachineParams, SimConfig
from repro.harness import experiments as ex
from repro.harness import sweep
from repro.harness import tables
from repro.harness.cli import build_parser, main
from repro.harness.runner import PROTOCOLS, run_app
from repro.apps.registry import make_app
from repro.memory.layout import Layout
from repro.protocols.base import World
from repro.stats.breakdown import Breakdown
from repro.sync.objects import SyncRegistry


class TestRunner:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_app(make_app("is", "test"), "bogus")

    def test_result_fields_populated(self, shared_run):
        r = shared_run("fft", "aec")
        assert r.app == "fft" and r.protocol == "aec"
        assert r.execution_time > 0
        assert r.messages_total > 0
        assert len(r.node_breakdowns) == 16
        assert r.breakdown.total > 0
        assert r.events_processed > 0
        assert r.extra["lock_vars"]

    def test_check_can_be_disabled(self):
        run_app(make_app("fft", "test"), "aec", check=False)

    def test_custom_machine_size(self):
        cfg = SimConfig(machine=MachineParams(num_procs=8))
        r = run_app(make_app("is", "test"), "aec", config=cfg)
        assert r.num_procs == 8

    def test_caller_config_not_mutated(self):
        cfg = SimConfig()
        run_app(make_app("is", "test"), "tmk-lh", config=cfg)
        assert cfg == SimConfig()

    def test_protocol_overrides_do_not_leak_across_runs(self):
        """One config reused across protocols must give the same results
        as fresh configs: a protocol variant is its node class, so a tmk
        run after a tmk-lh run with the same object stays plain tmk."""
        shared = SimConfig()
        run_app(make_app("is", "test"), "tmk-lh", config=shared)
        contaminated = run_app(make_app("is", "test"), "tmk", config=shared)
        pristine = run_app(make_app("is", "test"), "tmk",
                           config=SimConfig())
        assert contaminated.execution_time == pristine.execution_time
        assert contaminated.messages_total == pristine.messages_total


    def test_every_protocol_builds_a_node_named_by_its_key(self):
        config = SimConfig(machine=MachineParams(num_procs=2))
        for key, factory in PROTOCOLS.items():
            layout = Layout(config.machine.words_per_page)
            sync = SyncRegistry(config.machine.num_procs)
            make_app("is", "test").declare(layout, sync)
            node = factory(World(config, layout, sync), 0)
            assert node.name == key


@pytest.fixture(scope="module")
def results(warm_cache):
    """Every cell the row builders below read, from the session's warm
    disk cache (nothing is simulated here)."""
    report = sweep.run_sweep(ex.experiment_cells(
        ["table2", "fig3", "fig5", "fig6", "ablation-upset",
         "ablation-robustness"], "test"), cache_dir=warm_cache)
    assert not report.failures and report.executed == 0
    return report.results


class TestCache:
    def test_distinct_keys_distinct_runs(self):
        report = sweep.run_sweep([
            sweep.make_spec("fft", "test", "aec"),
            sweep.make_spec("fft", "test", "aec", update_set_size=3)])
        assert report.executed == len(report.results) == 2

    def test_check_flag_is_part_of_the_key(self, monkeypatch):
        """Regression: the memo key used to omit ``check``, so a
        check=False result was served to a check=True caller and the
        app's correctness check silently never ran."""
        from repro.apps.fft import FFTApp
        calls = []
        orig = FFTApp.check
        monkeypatch.setattr(
            FFTApp, "check",
            lambda self, results: (calls.append(1), orig(self, results)))
        report = sweep.run_sweep([
            sweep.make_spec("fft", "test", "aec", check=False),
            sweep.make_spec("fft", "test", "aec", check=True)])
        assert report.executed == 2
        assert calls == [1]


class TestExperiments:
    def test_table2_rows(self, results):
        rows = ex.table2(results, "test")
        byapp = {r.app: r for r in rows}
        assert byapp["is"].locks == 1
        assert byapp["fft"].acquires == 16
        assert byapp["fft"].barriers == 7
        assert byapp["raytrace"].locks == 18

    def test_table3_rows(self, results):
        rows = ex.table3(results, "test")
        assert rows
        for r in rows:
            for variant, rate in r.rates.items():
                assert rate is None or 0.0 <= rate <= 1.0
            assert r.events > 0

    def test_table3_waitq_never_beats_lap_much(self, results):
        """LAP combines waitQ with more sources; grouped over locks it
        should not lose to plain waitQ by a wide margin."""
        for r in ex.table3(results, "test"):
            lap, wq = r.rates["lap"], r.rates["waitq"]
            if lap is not None and wq is not None:
                assert lap >= wq - 0.05

    def test_table4_rows(self, results):
        rows = ex.table4(results, "test")
        assert {r.app for r in rows} == {"is", "raytrace", "water-ns",
                                         "fft", "ocean", "water-sp"}
        for r in rows:
            assert r.avg_diff_bytes >= 0
            assert 0 <= r.hidden_create_pct <= 100

    def test_figure3_lap_reduces_fault_overhead(self, results):
        for row in ex.figure3(results, "test"):
            assert row.normalized <= 105.0  # LAP should not hurt

    def test_figure4_lap_improves_runtime(self, results):
        rows = ex.figure4(results, "test")
        assert all(r.normalized < 100.0 for r in rows), \
            [(r.app, r.normalized) for r in rows]

    def test_figures_5_6_aec_beats_tm_overall(self, results):
        rows = ex.figure5(results, "test") + ex.figure6(results, "test")
        wins = sum(1 for r in rows if r.normalized < 100.0)
        assert wins >= 5, [(r.app, r.normalized) for r in rows]

    def test_ablation_upset_sizes(self, results):
        rows = ex.ablation_update_set_size(results, "test")
        assert len(rows) == 9
        assert {r.size for r in rows} == {1, 2, 3}

    def test_ablation_robustness(self, results):
        rows = ex.ablation_lap_robustness(results, "test")
        protos = {r.protocol for r in rows}
        assert protos == {"aec", "tmk"}


class TestTables:
    def test_table1_text(self):
        text = tables.render_table1()
        assert "Messaging overhead" in text and "400 cycles" in text

    def test_table_renderers_smoke(self, results):
        assert "IS".lower() in tables.render_table2(
            ex.table2(results, "test")).lower()
        assert "LAP" in tables.render_table3(ex.table3(results, "test"))
        assert "Diff" in tables.render_table4(ex.table4(results, "test"))
        out = tables.render_compare("Figure 4", ex.figure4(results, "test"))
        assert "noLAP=100.0" in out
        assert "|U|" in tables.render_update_set(
            ex.ablation_update_set_size(results, "test"))
        assert "robustness" in tables.render_robustness(
            ex.ablation_lap_robustness(results, "test"))


class TestBreakdown:
    def test_average(self):
        a = Breakdown.from_dict({"busy": 10.0})
        b = Breakdown.from_dict({"busy": 30.0, "data": 2.0})
        avg = Breakdown.average([a, b])
        assert avg["busy"] == 20.0 and avg["data"] == 1.0

    def test_percentages_sum_to_100(self):
        b = Breakdown.from_dict({"busy": 10.0, "synch": 30.0})
        assert sum(b.as_percentages().values()) == pytest.approx(100.0)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Breakdown.from_dict({"nope": 1.0})

    def test_empty_average(self):
        assert Breakdown.average([]).total == 0.0


class TestCLI:
    def test_parser_builds(self):
        p = build_parser()
        args = p.parse_args(["run", "--app", "is", "--scale", "test"])
        assert args.app == "is"

    def test_run_command(self, capsys):
        assert main(["run", "--app", "fft", "--scale", "test", "-v"]) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "execution time" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--app", "fft", "--scale", "test",
                     "--protocols", "sc", "aec"]) == 0
        out = capsys.readouterr().out
        assert out.count("fft") == 2

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
