"""Tests for repro.check: HB sanitizer, divergence oracle, CLI surface.

Covers the acceptance contract of the checker subsystem:

* unit-level vector-clock / shadow-memory semantics (scripted events, no
  simulation),
* zero violations AND word-identical final memory vs the SC oracle for
  every registered app at test scale under AEC and TreadMarks (two seeds),
* a deliberately broken AEC variant (skips one diff apply on acquire) is
  detected as a stale read on the correct page,
* checker flags flow into the canonical config / cache keys,
* the ``repro check`` CLI and cache provenance stamping.
"""
import json
import pickle

import numpy as np
import pytest

from repro.apps.api import Application
from repro.apps import registry
from repro.apps.registry import APP_NAMES, SCALES, make_app
from repro.check import ConsistencyChecker
from repro.check.oracle import certify
from repro.config import MachineParams, SimConfig, canonical_config_dict, \
    config_digest
from repro.faults.plan import FaultPlan, NodeCrash
from repro.fuzz.broken import BROKEN_PROTOCOL
from repro.harness import sweep as sw
from repro.harness.cli import main as cli_main
from repro.harness.runner import PROTOCOLS, run_app
from repro.memory.layout import Layout
from repro.protocols.base import World
from repro.sync.objects import SyncRegistry


def _checker(num_procs=4, segments=(("data", 2048),)):
    layout = Layout(MachineParams(num_procs=num_procs).words_per_page)
    for name, n in segments:
        layout.allocate(name, n)
    return ConsistencyChecker(layout, num_procs)


def _arr(*values):
    return np.asarray(values, dtype=np.float64)


class TestCheckerUnits:
    def test_no_checker_when_off(self, shared_run):
        machine = MachineParams(num_procs=4)

        def checker(config):
            return World(config, Layout(machine.words_per_page),
                         SyncRegistry(machine.num_procs)).checker
        assert checker(SimConfig(machine=machine)) is None
        assert isinstance(checker(SimConfig(machine=machine,
                                            check_consistency=True)),
                          ConsistencyChecker)
        result = shared_run("is", "aec")
        assert result.check_report is None

    def test_unordered_writes_race(self):
        ck = _checker()
        ck.on_write(0, 0, _arr(1.0), 10.0)
        ck.on_write(1, 0, _arr(2.0), 20.0)
        rep = ck.finish()
        assert rep.counts == {"race:ww": 1}
        v = rep.violations[0]
        assert (v.kind, v.node, v.other_node, v.addr) == ("race:ww", 1, 0, 0)
        assert v.segment == "data"

    def test_lock_ordered_writes_do_not_race(self):
        ck = _checker()
        ck.on_acquire(0, 0)
        ck.on_write(0, 0, _arr(1.0), 10.0)
        ck.on_release(0, 0)
        ck.on_acquire(1, 0)
        ck.on_write(1, 0, _arr(2.0), 20.0)
        ck.on_release(1, 0)
        assert ck.finish().clean

    def test_unordered_read_after_write_races(self):
        ck = _checker()
        ck.on_write(0, 5, _arr(1.0), 10.0)
        ck.on_read(1, 5, _arr(1.0), 20.0)
        rep = ck.finish()
        assert rep.counts == {"race:wr": 1}
        assert rep.violations[0].op == "read"

    def test_unordered_write_after_read_races(self):
        ck = _checker()
        ck.on_read(1, 5, _arr(0.0), 10.0)
        ck.on_write(0, 5, _arr(1.0), 20.0)
        rep = ck.finish()
        assert rep.counts == {"race:rw": 1}
        assert rep.violations[0].other_op == "read"
        assert rep.violations[0].other_node == 1

    def test_barrier_orders_all_nodes(self):
        ck = _checker()
        ck.on_write(0, 0, _arr(1.0), 10.0)
        for n in range(4):
            ck.on_barrier_arrive(n)
        for n in range(4):
            ck.on_barrier_depart(n)
        ck.on_read(3, 0, _arr(1.0), 20.0)
        ck.on_write(2, 0, _arr(2.0), 30.0)
        rep = ck.finish()
        # the write by 2 races with the read by 3 (same episode, unordered)
        assert rep.counts == {"race:rw": 1}

    def test_barrier_episodes_pipeline(self):
        """A node racing ahead into barrier k+1 must not join episode k+1
        arrivals with stragglers still departing episode k."""
        ck = _checker(num_procs=2)
        for n in range(2):
            ck.on_barrier_arrive(n)
        ck.on_barrier_depart(0)
        ck.on_write(0, 0, _arr(1.0), 10.0)
        ck.on_barrier_arrive(0)   # node 0 already arrives at episode 1
        ck.on_barrier_depart(1)   # node 1 only now departs episode 0
        ck.on_read(1, 0, _arr(0.0), 20.0)
        rep = ck.finish()
        # node 0's write is in episode 1: unordered with node 1's read, and
        # node 1 legitimately still sees the old value -> race, not stale
        assert rep.counts == {"race:wr": 1}

    def test_barrier_episode_freed_when_its_arrivals_depart(self):
        # node 3 never arrives (dead for good): each episode is freed once
        # the three nodes that arrived at it have departed
        ck = _checker()
        for _ in range(3):
            for n in range(3):
                ck.on_barrier_arrive(n)
            for n in range(3):
                ck.on_barrier_depart(n)
            assert ck._episodes == {}

    def test_hb_ordered_wrong_value_is_stale_read(self):
        ck = _checker()
        ck.on_acquire(0, 0)
        ck.on_write(0, 7, _arr(42.0), 10.0)
        ck.on_release(0, 0)
        ck.on_acquire(1, 0)
        ck.on_read(1, 7, _arr(0.0), 20.0)  # ordered, but missed the write
        rep = ck.finish()
        assert rep.counts == {"stale-read": 1}
        v = rep.violations[0]
        assert v.kind == "stale-read"
        assert (v.expected, v.observed) == (42.0, 0.0)
        assert v.page == 0 and v.addr == 7
        assert v.lock == 0 and v.other_lock == 0

    def test_correct_value_after_lock_chain_is_clean(self):
        ck = _checker()
        ck.on_acquire(0, 0)
        ck.on_write(0, 7, _arr(42.0), 10.0)
        ck.on_release(0, 0)
        ck.on_acquire(1, 0)
        ck.on_read(1, 7, _arr(42.0), 20.0)
        ck.on_release(1, 0)
        assert ck.finish().clean

    def test_racy_words_suppress_stale_reports(self):
        ck = _checker()
        ck.on_write(0, 0, _arr(1.0), 10.0)
        ck.on_write(1, 0, _arr(2.0), 20.0)   # race -> word marked racy
        for n in range(4):
            ck.on_barrier_arrive(n)
        for n in range(4):
            ck.on_barrier_depart(n)
        # whichever value survived, no stale-read on a racy word
        ck.on_read(2, 0, _arr(1.0), 30.0)
        rep = ck.finish()
        assert rep.counts == {"race:ww": 1}

    def test_report_cap_truncates_list_not_counts(self):
        machine = MachineParams(num_procs=4)
        layout = Layout(machine.words_per_page)
        layout.allocate("data", 2048)
        ck = ConsistencyChecker(layout, 4, max_reports=3)
        ck.on_write(0, 0, np.ones(10), 10.0)
        ck.on_write(1, 0, np.full(10, 2.0), 20.0)
        rep = ck.finish()
        assert rep.counts["race:ww"] == 10
        assert len(rep.violations) == 3
        assert rep.truncated
        assert rep.total_violations == 10

    def test_transfer_notes_attach_context(self):
        ck = _checker()
        ck.note_transfer("diff", dst=1, page=0, origin=0, time=5.0)
        ck.on_write(0, 0, _arr(1.0), 10.0)
        ck.on_read(1, 0, _arr(1.0), 20.0)
        rep = ck.finish()
        assert rep.transfers == {"diff": 1}
        assert rep.violations[0].last_transfer == ("diff", 0, 5.0)

    def test_report_roundtrips_to_json(self):
        ck = _checker()
        ck.on_write(0, 3, _arr(1.0), 10.0)
        ck.on_write(1, 3, _arr(2.0), 20.0)
        doc = json.loads(json.dumps(ck.finish().to_dict()))
        assert doc["total_violations"] == 1
        assert doc["violations"][0]["kind"] == "race:ww"
        assert doc["violations"][0]["addr"] == 3


# --------------------------------------------------------------- end to end

#: (protocol, seed) matrix certified against the SC oracle
CERT_PROTOCOLS = ("aec", "tmk")
CERT_SEEDS = (42, 7)


class TestAppsAreClean:
    """Every registered app: zero violations and SC-identical final memory."""

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_app_clean_and_matches_sc_oracle(self, app_name):
        cells = [(app_name, protocol,
                  SimConfig(seed=seed, check_consistency=True))
                 for seed in CERT_SEEDS for protocol in CERT_PROTOCOLS]
        verdicts, _sweep = certify(cells)
        for (_app, protocol, config), (_cell, result, div, failure) in zip(
                cells, verdicts):
            seed = config.seed
            assert failure is None, (
                f"{app_name}/{protocol}/seed={seed}: {failure}")
            rep = result.check_report
            assert rep is not None and rep.clean, (
                f"{app_name}/{protocol}/seed={seed}: {rep.summary()}\n"
                + "\n".join(v.describe() for v in rep.violations[:10]))
            assert div.clean, (
                f"{app_name}/{protocol}/seed={seed}:\n{div.summary()}")
            assert div.words_compared > 0


# ------------------------------------------------- broken-protocol detection
#
# The broken variant is ``aec-broken`` (repro.fuzz.broken), the fuzzing
# campaign's ground truth; these tests keep certifying that the checker
# detects it.


class CounterApp(Application):
    """P procs increment one lock-protected counter; monotonic by design,
    so a lost diff guarantees a value mismatch at the next ordered read."""

    name = "counter"

    def __init__(self, increments=8):
        self.increments = increments

    def declare(self, layout, sync):
        self.seg = layout.allocate("counter", 8)
        self.lock = sync.new_lock("L")
        self.bar = sync.new_barrier("B")

    def program(self, ctx):
        for _ in range(self.increments):
            yield from ctx.acquire(self.lock)
            v = yield from ctx.read1(self.seg, 0)
            yield from ctx.write1(self.seg, 0, v + 1)
            yield from ctx.release(self.lock)
        yield from ctx.barrier(self.bar)
        return (yield from ctx.read1(self.seg, 0))

    def check(self, results):
        expected = float(self.increments * len(results))
        assert all(r == expected for r in results), results


@pytest.fixture
def counter_app(monkeypatch):
    """Register ``counter`` as an app id; yields the instances it builds."""
    built = []

    def factory():
        built.append(CounterApp())
        return built[-1]

    monkeypatch.setitem(registry._PRESETS, "counter",
                        {scale: factory for scale in SCALES})
    return built


class TestBrokenProtocolDetected:
    def test_healthy_counter_is_clean(self):
        r = run_app(CounterApp(), "aec", SimConfig(check_consistency=True))
        assert r.check_report.clean

    def test_skipped_diff_apply_detected_as_stale_read(self):
        app = CounterApp()
        r = run_app(app, BROKEN_PROTOCOL,
                    SimConfig(check_consistency=True), check=False)
        rep = r.check_report
        assert not rep.clean
        assert set(rep.counts) == {"stale-read"}
        counter_page = app.seg.base // app.seg.words_per_page
        v = rep.violations[0]
        assert v.page == counter_page
        assert v.segment == "counter"
        assert v.expected != v.observed
        assert v.lock == app.lock  # read inside the counter's CS
        # the lost increment is real: final counts fall short
        expected = float(app.increments * r.num_procs)
        assert any(res != expected for res in r.app_results)

    def test_broken_protocol_also_diverges_from_sc(self, counter_app):
        (verdict,), _sweep = certify(
            [("counter", BROKEN_PROTOCOL, SimConfig())])
        div = verdict.report
        app = counter_app[0]  # the certified run's app, declared by it
        assert not div.clean
        assert div.first_divergent_page == app.seg.base // \
            app.seg.words_per_page


# -------------------------------------------------- config / result plumbing

class TestPlumbing:
    def test_checker_flags_flow_into_canonical_config(self):
        on = SimConfig(check_consistency=True)
        off = SimConfig()
        assert canonical_config_dict(on)["check_consistency"] is True
        assert config_digest(on) != config_digest(off)

    def test_checker_flag_changes_sweep_cache_key(self):
        a = sw.make_spec("is", "test", "aec")
        b = sw.make_spec("is", "test", "aec", check_consistency=True)
        assert a.key != b.key

    def test_check_report_off_by_default(self, shared_run):
        r = shared_run("is", "aec")
        assert r.check_report is None
        assert r.meta()["check_violations"] is None

    def test_check_report_in_meta_and_survives_pickling(self, shared_run):
        r = shared_run("is", "aec", SimConfig(check_consistency=True))
        assert r.meta()["check_violations"] == 0
        back = pickle.loads(pickle.dumps(r))
        assert back.check_report.to_dict() == r.check_report.to_dict()

    def test_checker_does_not_change_simulated_time(self, shared_run):
        base = shared_run("is", "aec")
        checked = shared_run("is", "aec", SimConfig(check_consistency=True))
        assert checked.execution_time == base.execution_time
        assert checked.messages_total == base.messages_total


class TestTransferRecord:
    """Every diff a protocol applies, and every page it fetches, lands in
    the checker's transfer record (a violation's ``last_transfer``)."""

    @pytest.mark.parametrize("protocol", ["aec", "tmk", "munin"])
    def test_every_applied_diff_is_recorded(self, protocol):
        result = run_app(make_app("ocean", "test"), protocol,
                         SimConfig(check_consistency=True))
        transfers = result.check_report.transfers
        assert transfers["diff"] == result.diff_stats.diffs_applied
        assert transfers["page"] > 0


class TestObservedOperations:
    """The checker sees the program's operations, observed once in the
    app context, whatever traffic the protocol generates underneath:
    every protocol reports the same accesses."""

    @pytest.mark.parametrize("protocol", sorted(set(PROTOCOLS) - {
        BROKEN_PROTOCOL}))  # skips one diff apply on purpose
    @pytest.mark.parametrize("app_id,counts", [
        ("is", (112, 64, 20512, 8224)),
        ("fuzz:42", (100, 55, 1505, 705)),
    ], ids=["is", "fuzz:42"])
    def test_every_protocol_reports_the_programs_accesses(
            self, app_id, counts, protocol, shared_run):
        from repro.fuzz.generator import config_for_spec, generate_spec
        config = SimConfig(check_consistency=True)
        if app_id.startswith("fuzz:"):
            config = config_for_spec(generate_spec(42, "test"), config)
        rep = shared_run(app_id, protocol, config).check_report
        assert rep.clean, rep.summary()
        assert (rep.reads_checked, rep.writes_checked, rep.words_read,
                rep.words_written) == counts


class TestPermanentDeath:
    def test_no_barrier_episode_outlives_a_dead_node(self, monkeypatch):
        import repro.check.checker
        import repro.recovery.crash
        made = []

        class Spy(ConsistencyChecker):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(repro.check.checker, "ConsistencyChecker", Spy)
        plan = FaultPlan(name="perm", seed=1, crashes=(
            NodeCrash(node=3, at=300_000.0, down_cycles=150_000.0,
                      restart=False),))
        monkeypatch.setattr(repro.recovery.crash, "CRASH_DECLARE_CYCLES",
                            200_000)
        config = SimConfig(seed=42, faults=plan, check_consistency=True)
        result = run_app(make_app("ocean", "test"), "aec", config,
                         check=False)
        assert result.recovery.peers_declared_dead == 1
        (checker,) = made
        # node 3 departed its first barrier and died; the survivors went
        # through every later episode without it
        assert checker._bar_ep[3] == 1 and checker._bar_ep[0] == 18
        assert checker._episodes == {}


# ---------------------------------------------------------------------- CLI

class TestCheckCli:
    def test_check_subcommand_clean(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli_main(["check", "is", "--protocols", "aec", "--scale", "test",
                       "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["failed_runs"] == 0
        assert doc["runs"][0]["check"]["clean"] is True
        assert doc["runs"][0]["divergence"]["clean"] is True
        assert "clean" in capsys.readouterr().out

    def test_check_subcommand_rejects_unknown_app(self, capsys):
        assert cli_main(["check", "no-such-app"]) == 2

    def test_check_subcommand_fails_on_violations(
            self, counter_app, tmp_path, capsys, monkeypatch):
        # certify the counter app through the CLI path against the broken
        # protocol: nonzero exit and the JSON report names the stale read
        import repro.harness.cli as cli
        monkeypatch.setattr(cli, "APP_NAMES", ("counter",))
        out = tmp_path / "report.json"
        rc = cli_main(["check", "counter", "--protocols", BROKEN_PROTOCOL,
                       "--json", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["failed_runs"] == 1
        kinds = {v["kind"] for run in doc["runs"]
                 for v in run["check"]["violations"]}
        assert kinds == {"stale-read"}

    def test_check_reports_a_protocol_exception_as_a_failed_cell(
            self, tmp_path, capsys, monkeypatch):
        # a handler that raises must not abort the command with a
        # traceback: the cell fails, the report says why, the next runs
        from repro.core.aec.protocol import AECNode

        class RaisingAECNode(AECNode):
            def _on_lock_grant(self, msg):
                raise RuntimeError(f"node {self.node_id}: grant rejected")

        monkeypatch.setitem(PROTOCOLS, "aec-raises", RaisingAECNode)
        out = tmp_path / "report.json"
        rc = cli_main(["check", "is", "--protocols", "aec-raises", "aec",
                       "--json", str(out)])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        fail = next(ln for ln in lines if ln.startswith("FAIL"))
        assert fail.split()[1:3] == ["is", "aec-raises"]
        assert "RuntimeError: node" in fail and "grant rejected" in fail
        assert any(ln.split()[:3] == ["ok", "is", "aec"] for ln in lines)
        doc = json.loads(out.read_text())
        assert doc["failed_runs"] == 1
        raised, healthy = doc["runs"]
        assert raised["protocol"] == "aec-raises"
        assert raised["error"].startswith("RuntimeError: node")
        assert healthy["protocol"] == "aec" and healthy["check"]["clean"]

    def test_check_prefixed_id_runs_on_the_specs_machine(self, monkeypatch,
                                                         capsys):
        # fuzz:N fixes the machine size; both the certified run and its SC
        # oracle run must use it, exactly as 'repro run --app fuzz:N' does
        from repro.fuzz.generator import generate_spec
        sizes = []
        real_execute = sw.execute_spec

        def spy(spec):
            result = real_execute(spec)
            sizes.append(result.num_procs)
            return result

        monkeypatch.setattr(sw, "execute_spec", spy)
        assert cli_main(["check", "fuzz:3", "--protocols", "aec"]) == 0
        assert sizes == [generate_spec(3, "test").num_procs] * 2

    def test_run_subcommand_check_flag(self, capsys):
        rc = cli_main(["run", "--app", "is", "--protocol", "aec",
                       "--scale", "test", "--check-consistency"])
        assert rc == 0
        assert "consistency check: clean" in capsys.readouterr().out


# ----------------------------------------------------------- cache metadata

class TestCacheProvenance:
    def test_sidecar_records_provenance(self, tmp_path):
        cache = sw.DiskCache(str(tmp_path))
        spec = sw.make_spec("is", "test", "aec")
        cache.store(spec, sw.execute_spec(spec))
        doc = cache.entries()[0]
        assert doc["provenance"] == sw.provenance()
        assert "repro_version" in doc["provenance"]

    def test_cache_inspect_flags_foreign_build(self, tmp_path, capsys):
        cache = sw.DiskCache(str(tmp_path))
        spec = sw.make_spec("is", "test", "aec")
        cache.store(spec, sw.execute_spec(spec))
        _pkl, meta = cache._paths(spec.key)
        doc = json.loads(open(meta).read())
        doc["provenance"] = {"repro_version": "0.0.0", "git_rev": "deadbee"}
        with open(meta, "w") as fh:
            json.dump(doc, fh)
        rc = cli_main(["cache", "inspect", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "STALE" in out
        assert "1 entries were not produced by this build" in out

    def test_cache_inspect_current_build_ok(self, tmp_path, capsys):
        cache = sw.DiskCache(str(tmp_path))
        spec = sw.make_spec("is", "test", "aec")
        cache.store(spec, sw.execute_spec(spec))
        rc = cli_main(["cache", "inspect", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "STALE" not in out
        assert "not produced by this build" not in out
