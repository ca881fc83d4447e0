"""Tests for repro.fuzz: generator, trace record/replay, shrink, campaign.

The determinism contract under test (DESIGN.md section 12):

* same (seed, scale) -> the identical WorkloadSpec object, identical
  compiled schedules, and bit-identical sim numbers run after run,
* distinct workload or fault seeds -> distinct sweep cache keys,
* a recorded trace replays bit-identically (cycles, messages, bytes,
  events) under the recorded protocol and config,
* the corpus under tests/corpus replays clean on healthy protocols and
  still reproduces on the protocol each entry was found on.
"""
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from repro.apps.registry import APP_NAMES, make_app, register_app
from repro.config import SimConfig, config_digest, config_from_dict, \
    canonical_config_dict
from repro.fuzz import generator
from repro.fuzz.campaign import replay_corpus_entry, run_campaign
from repro.fuzz.generator import (GeneratedApp, PhaseSpec, WorkloadSpec,
                                  compile_schedule, config_for_spec,
                                  expected_final, generate_spec,
                                  spec_from_dict, spec_to_dict)
from repro.fuzz.shrink import shrink_spec, spec_failure
from repro.fuzz.trace import TraceApp
from repro.harness import sweep as sw
from repro.harness.cli import main as cli_main
from repro.harness.runner import PROTOCOLS, run_app

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: a spec known to trip the broken-AEC variant (see tests/corpus)
BROKEN_REPRO = WorkloadSpec(
    seed=24, num_procs=2, segments=(4,), num_locks=1, num_barriers=1,
    phases=(PhaseSpec(kind="locked", segment=0, barrier=0, locks=(0,),
                      cs_per_proc=2, span=1),))

# Minimal reproducers for three real AEC bugs the first 200-seed campaign
# caught in the *shipping* protocol (all fixed; kept as regressions).
# 1. A pushed update-set diff for a page not resident at the acquirer was
#    silently dropped at release, and the barrier's last-owner-takes-all
#    reconciliation lost that page's epoch (fixed: per-(lock, page)
#    reconciliation in the barrier manager).
AEC_FIXED_DROPPED_PUSH = WorkloadSpec(
    seed=160, num_procs=2, segments=(1098, 4), num_locks=1, num_barriers=1,
    phases=(PhaseSpec(kind="owner", segment=1, barrier=0, writes=1, span=1),
            PhaseSpec(kind="locked", segment=0, barrier=0, locks=(0,),
                      cs_per_proc=1, span=1),
            PhaseSpec(kind="locked", segment=0, barrier=0, locks=(0,),
                      cs_per_proc=5, span=1, extra_reads=1)))
# 2. A session kept reporting/serving a page after a grant invalidated it
#    (history it no longer held), winning release coverage and barrier
#    reconciliation with stale words (fixed: _await_cs_diffs).
AEC_FIXED_STALE_SESSION = WorkloadSpec(
    seed=180, num_procs=3, segments=(1716,), num_locks=4, num_barriers=1,
    phases=(PhaseSpec(kind="locked", segment=0, barrier=0,
                      locks=(0, 1, 2, 3), cs_per_proc=4, span=1,
                      extra_reads=3, affinity_skew=0.25),))
# 3. A copy gained and invalidated within the same step was invisible to
#    the barrier's copyset, so its holder crossed the barrier with stale
#    bytes and dangling lazy-recovery state (fixed: lost_valid feeds the
#    copyset too).
AEC_FIXED_HIDDEN_COPY = WorkloadSpec(
    seed=180, num_procs=4, segments=(1716,), num_locks=4, num_barriers=2,
    phases=(PhaseSpec(kind="locked", segment=0, barrier=1,
                      locks=(0, 1, 2, 3), cs_per_proc=4, span=4,
                      extra_reads=3, affinity_skew=0.25),
            PhaseSpec(kind="locked", segment=0, barrier=0, locks=(0, 1),
                      cs_per_proc=5, span=2, extra_reads=3)))


# ------------------------------------------------------------- generator

class TestGenerator:
    def test_same_seed_same_spec(self):
        for seed in (0, 7, 123):
            assert generate_spec(seed, "test") == generate_spec(seed, "test")

    def test_distinct_seeds_distinct_specs(self):
        specs = {generate_spec(seed, "test") for seed in range(20)}
        assert len(specs) == 20

    def test_scales_are_distinct_streams(self):
        assert generate_spec(1, "test") != generate_spec(1, "bench")

    def test_spec_dict_roundtrip(self):
        spec = generate_spec(5, "test")
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_spec_values_are_json_safe(self):
        # np.int64 leaking into the spec would break canonical-config JSON
        spec = generate_spec(3, "test")
        json.dumps(canonical_config_dict(config_for_spec(spec)))

    def test_schedule_deterministic_and_adapts_to_nprocs(self):
        spec = generate_spec(9, "test")
        assert compile_schedule(spec, 4) == compile_schedule(spec, 4)
        for nprocs in (2, 3, 8):
            sched = compile_schedule(spec, nprocs)
            assert all(len(phase) == nprocs for phase in sched)

    @pytest.mark.parametrize("seed", [*range(25), *range(42, 92)])
    def test_expected_final_matches_simulation(self, seed):
        # the CI campaign's seeds and the certify benchmark's: the SC image
        # every verdict is judged by equals the analytic walk
        spec = generate_spec(seed, "test")
        cfg = config_for_spec(spec)
        image = run_app(make_app(f"image:fuzz:{seed}", "test", config=cfg),
                        "sc", config=cfg).app_results[0][1]
        want = expected_final(spec, spec.num_procs)
        for i in range(len(spec.segments)):
            np.testing.assert_array_equal(image[f"fz.s{i}"], want[i])

    def test_generated_app_clean_under_aec(self):
        for seed in (0, 7):
            spec = generate_spec(seed, "test")
            cfg = config_for_spec(spec, SimConfig(check_consistency=True))
            result = run_app(GeneratedApp(spec), "aec", config=cfg)
            assert result.check_report.clean

    def test_bit_identical_across_runs(self):
        spec = generate_spec(11, "test")
        cfg = config_for_spec(spec)
        a = run_app(GeneratedApp(spec), "aec", config=cfg)
        b = run_app(GeneratedApp(spec), "aec", config=cfg)
        assert a.execution_time == b.execution_time
        assert a.messages_total == b.messages_total
        assert a.network_bytes == b.network_bytes
        assert a.events_processed == b.events_processed


#: sha256 prefixes of ``json.dumps(compile_schedule(spec, spec.num_procs))``
#: for the test-scale specs of seeds 42-91, recorded before schedules
#: were memoized (when they were lists of lists)
SCHEDULE_DIGESTS = {
    42: "efbe82e25d2d", 43: "08a2e01063e7", 44: "61dd649263e0",
    45: "752b01f08d0e", 46: "261a29ac3f6c", 47: "7a6f64d4e534",
    48: "e79dea8f11f6", 49: "3569583b4797", 50: "8fd507ec2a43",
    51: "a903e1446136", 52: "6bbc7def076e", 53: "b93c4ac44812",
    54: "1c6a1d2dddb1", 55: "86b857d73d8c", 56: "499fc1484df2",
    57: "252f82054133", 58: "65113bfa374c", 59: "fe9180a24ee9",
    60: "473dc9d13342", 61: "4fe61fa126fe", 62: "29de089b663f",
    63: "2c2505990197", 64: "ca468ad003a4", 65: "85467302c5d9",
    66: "ce2cd6000c64", 67: "489c2a0b031c", 68: "9cbd04a7efa3",
    69: "6aa0df86467a", 70: "7402240d9e64", 71: "7ef877b9327e",
    72: "b6e82067bc33", 73: "cb1110b0282f", 74: "1feaf2b6b6bb",
    75: "39d05e779dfd", 76: "9fa5f9f932b4", 77: "afc58a5e6f1c",
    78: "20f7e511d2cf", 79: "e3b0614c44d2", 80: "0ed72daa191d",
    81: "2cb5ae600134", 82: "261ad66b6499", 83: "9cba9b8ed52d",
    84: "843e3a7b9e03", 85: "dc9651de2807", 86: "18b05bccf5ed",
    87: "93e26bf72ddb", 88: "aacd6b1a062a", 89: "f6ba6b7e2f59",
    90: "f20ab86aa1fc", 91: "a7a6235d91e4",
}


class TestScheduleMemo:
    def test_schedule_is_nested_tuples(self):
        sched = compile_schedule(generate_spec(42, "test"), 3)
        assert isinstance(sched, tuple)
        for phase in sched:
            assert isinstance(phase, tuple) and len(phase) == 3
            for ops in phase:
                assert isinstance(ops, tuple)
                assert all(isinstance(op, tuple) for op in ops)
                for op in ops:
                    if op[0] == "wr":
                        assert isinstance(op[3], tuple)

    def test_schedules_unchanged(self):
        got = {}
        for seed in SCHEDULE_DIGESTS:
            spec = generate_spec(seed, "test")
            text = json.dumps(compile_schedule(spec, spec.num_procs))
            got[seed] = hashlib.sha256(text.encode()).hexdigest()[:12]
        assert got == SCHEDULE_DIGESTS

    def test_two_apps_and_check_compile_once(self, monkeypatch):
        calls = []
        real = generator._phase_rng

        def counting(spec, phase, proc):
            calls.append((phase, proc))
            return real(spec, phase, proc)

        monkeypatch.setattr(generator, "_phase_rng", counting)
        compile_schedule.cache_clear()
        generator._walk_expected.cache_clear()
        spec = generate_spec(44, "test")
        cfg = config_for_spec(spec)
        for _ in range(2):
            # run_app calls every processor's program, then app.check
            run_app(GeneratedApp(spec), "sc", config=cfg)
        # one compile draws one stream per (phase, proc), two per proc in
        # an owner phase (writes, then the read-only epoch)
        nprocs = spec.num_procs
        assert len(calls) == sum(nprocs * (2 if ph.kind == "owner" else 1)
                                 for ph in spec.phases)
        assert len(set(calls)) == len(calls)

    def test_expected_final_returns_fresh_arrays(self):
        spec = generate_spec(45, "test")
        first = expected_final(spec, spec.num_procs)
        keep = [words.copy() for words in first]
        for words in first:
            words += 1.0
        again = expected_final(spec, spec.num_procs)
        for a, b in zip(again, keep):
            np.testing.assert_array_equal(a, b)


class TestCacheIdentity:
    def test_distinct_specs_distinct_keys(self):
        a = sw.make_spec("image:fuzz:1", "test", "aec",
                         config=config_for_spec(generate_spec(1, "test")))
        b = sw.make_spec("image:fuzz:2", "test", "aec",
                         config=config_for_spec(generate_spec(2, "test")))
        assert a.key != b.key

    def test_same_spec_same_key(self):
        a = sw.make_spec("image:fuzz:1", "test", "aec",
                         config=config_for_spec(generate_spec(1, "test")))
        b = sw.make_spec("image:fuzz:1", "test", "aec",
                         config=config_for_spec(generate_spec(1, "test")))
        assert a.key == b.key

    def test_distinct_fault_seeds_distinct_keys(self):
        from repro.faults import get_plan
        cfg = config_for_spec(generate_spec(1, "test"))
        a = sw.make_spec("image:fuzz:1", "test", "aec",
                         config=cfg.replace(faults=get_plan("lossy-1pct@1")))
        b = sw.make_spec("image:fuzz:1", "test", "aec",
                         config=cfg.replace(faults=get_plan("lossy-1pct@2")))
        assert a.key != b.key

    def test_workload_rides_in_canonical_config(self):
        cfg = config_for_spec(generate_spec(1, "test"))
        doc = canonical_config_dict(cfg)
        assert doc["workload"]["seed"] == 1
        assert config_digest(config_from_dict(doc)) == config_digest(cfg)


# -------------------------------------------------------------- registry

class TestRegistry:
    def test_unknown_app_still_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            make_app("no-such-app", "test")

    def test_fuzz_prefix_resolution(self):
        app = make_app("fuzz:17", "test")
        assert isinstance(app, GeneratedApp)
        assert app.spec == generate_spec(17, "test")

    def test_fuzz_prefers_config_workload(self):
        spec = generate_spec(17, "test")
        app = make_app("fuzz:17", "test", config=config_for_spec(spec))
        assert app.spec is spec

    def test_fuzz_id_config_mismatch_rejected(self):
        cfg = config_for_spec(generate_spec(17, "test"))
        with pytest.raises(ValueError, match="does not match"):
            make_app("fuzz:18", "test", config=cfg)

    def test_image_prefix_wraps(self):
        from repro.check.oracle import MemoryImageApp
        app = make_app("image:fuzz:3", "test")
        assert isinstance(app, MemoryImageApp)
        assert isinstance(app.inner, GeneratedApp)

    def test_register_app(self):
        from repro.apps import registry as reg
        from repro.apps.is_sort import ISApp
        name = "test-registered-app"
        try:
            register_app(name, {s: lambda: ISApp(num_keys=256,
                                                 num_buckets=16,
                                                 repetitions=1)
                                for s in ("paper", "bench", "test")})
            assert name in reg.APP_NAMES
            assert isinstance(make_app(name, "test"), ISApp)
        finally:
            reg._PRESETS.pop(name, None)
            reg.APP_NAMES = tuple(reg._PRESETS)


# ---------------------------------------------------- trace record/replay

class TestTraceRoundtrip:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_record_replay_bit_identical(self, app_name, tmp_path):
        path = str(tmp_path / f"{app_name}.trace.jsonl")
        recorded = run_app(make_app(app_name, "test"), "aec",
                           record_trace=path)
        replay = TraceApp(path)
        assert replay.recorded_protocol == "aec"
        cfg = config_from_dict(replay.header["config"])
        replayed = run_app(replay, "aec", config=cfg)
        assert replayed.execution_time == recorded.execution_time
        assert replayed.messages_total == recorded.messages_total
        assert replayed.network_bytes == recorded.network_bytes
        assert replayed.events_processed == recorded.events_processed

    def test_recording_does_not_change_sim_numbers(self, tmp_path):
        base = run_app(make_app("is", "test"), "aec", config=SimConfig())
        path = str(tmp_path / "is.trace.jsonl")
        taped = run_app(make_app("is", "test"), "aec", config=SimConfig(),
                        record_trace=path)
        assert taped.execution_time == base.execution_time
        assert taped.messages_total == base.messages_total

    def test_trace_baseline_header(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        result = run_app(make_app("fuzz:3", "test"), "aec",
                         config=config_for_spec(generate_spec(3, "test"),
                                                SimConfig()),
                         record_trace=path)
        app = TraceApp(path)
        assert app.baseline["execution_time"] == result.execution_time
        assert app.baseline["messages_total"] == result.messages_total
        # the header's config holds simulation knobs only, not the path
        assert app.header["version"] == 4
        assert path not in json.dumps(app.header["config"])
        assert "topology" not in app.header["config"]["machine"]

    def test_replay_rejects_wrong_machine_size(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        spec = generate_spec(3, "test")
        run_app(make_app("fuzz:3", "test"), "aec",
                config=config_for_spec(spec, SimConfig()), record_trace=path)
        replay = TraceApp(path)
        import dataclasses
        wrong = SimConfig(machine=dataclasses.replace(
            SimConfig().machine, num_procs=replay.num_procs + 1))
        with pytest.raises(ValueError, match="recorded on"):
            run_app(replay, "aec", config=wrong)


# ----------------------------------------------------------------- shrink

class TestShrink:
    def test_passing_spec_refuses_to_shrink(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_spec(generate_spec(0, "test"), "aec", max_runs=10)

    def test_shrinks_broken_aec_to_tiny_reproducer(self, monkeypatch):
        """Seed 24 is the original of the broken-aec-stale-read corpus
        entry.  Its shrink proposes some candidates more than once (the
        fixpoint rounds retry their rejects) and certifies each distinct
        spec once."""
        from repro.fuzz import shrink
        certified = []
        real = shrink.spec_failure

        def spy(cand, protocol, faults=None):
            certified.append(cand)
            return real(cand, protocol, faults=faults)

        monkeypatch.setattr(shrink, "spec_failure", spy)
        res = shrink_spec(generate_spec(24, "test"), "aec-broken",
                          max_runs=120)
        assert res.runs == len(certified) == len(set(certified))
        m = res.minimal
        assert res.minimal_failure.startswith("check:")
        assert m.num_procs <= 2
        assert m.total_pages(1024) <= 2
        assert len(m.phases) <= 2
        # the minimal spec still fails, standalone
        assert spec_failure(m, "aec-broken") is not None

    def test_spec_failure_healthy_protocol_is_none(self):
        assert spec_failure(BROKEN_REPRO, "aec") is None


class TestCampaignCatches:
    """The campaign's first real catches, pinned forever: each minimal spec
    tripped a distinct (since fixed) AEC staleness bug — see the comments
    on the spec constants for the mechanism."""

    @pytest.mark.parametrize("spec", [AEC_FIXED_DROPPED_PUSH,
                                      AEC_FIXED_STALE_SESSION,
                                      AEC_FIXED_HIDDEN_COPY],
                             ids=["dropped-push", "stale-session",
                                  "hidden-copy"])
    def test_fixed_aec_bugs_stay_fixed(self, spec):
        assert spec_failure(spec, "aec") is None

    @pytest.mark.parametrize("seed", [160, 180])
    def test_original_campaign_seeds_clean(self, seed):
        assert spec_failure(generate_spec(seed, "test"), "aec") is None


# ----------------------------------------------------- corpus regression

class TestCorpus:
    """tests/corpus is a regression suite: every filed reproducer replays
    under the fault plan it was found with, clean on aec, tmk and the
    protocol it was found on — except the deliberately broken AEC, on
    which it must keep reproducing (else the checker lost detection
    power)."""

    def _runs(self):
        paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
        assert paths, f"no corpus entries under {CORPUS_DIR}"
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            for run in replay_corpus_entry(doc):
                yield os.path.basename(path), doc, run

    def test_corpus_clean_on_healthy_protocols(self):
        replayed = set()
        for name, doc, run in self._runs():
            if not run.must_fail:
                replayed.add((name, run.protocol))
                assert run.failure is None, (
                    f"{name} under {run.protocol}/{doc['found']['plan']}: "
                    f"{run.failure}")
        # bugs filed against real protocols replay on them too
        assert ("seed42027-aec-lossy-1pct.json", "aec") in replayed
        assert ("seed42-adsm-lossy-1pct.json", "adsm") in replayed
        assert ("seed7-munin-lap-lossy-1pct.json", "munin-lap") in replayed
        assert ("seed248-munin-lossy-1pct.json", "munin") in replayed

    def test_corpus_still_reproduces_on_found_protocol(self):
        broken = [(name, run) for name, _doc, run in self._runs()
                  if run.must_fail]
        assert broken
        for name, run in broken:
            assert run.failure is not None, (
                f"{name}: reproducer lost — no longer fails under "
                f"{run.protocol}")

    def test_replay_runs_the_sc_oracle_once(self, monkeypatch):
        # the entry replays on aec, tmk and aec-broken against one oracle
        sc = PROTOCOLS["sc"]
        built = []

        def counting_sc(world, node_id):
            if node_id == 0:
                built.append(world)
            return sc(world, node_id)

        monkeypatch.setitem(PROTOCOLS, "sc", counting_sc)
        with open(os.path.join(CORPUS_DIR, "broken-aec-stale-read.json"),
                  "r", encoding="utf-8") as fh:
            runs = replay_corpus_entry(json.load(fh))
        assert [run.protocol for run in runs] == ["aec", "tmk", "aec-broken"]
        assert all(run.ok for run in runs)
        assert len(built) == 1

    def test_corpus_cli(self, capsys):
        assert cli_main(["fuzz", "corpus", CORPUS_DIR]) == 0
        out = capsys.readouterr().out
        assert "still reproduces" in out


# --------------------------------------------------------------- campaign

class TestCampaign:
    def test_small_campaign_clean_and_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        rep = run_campaign(range(3), protocols=("aec",), plans=("none",),
                           cache_dir=cache)
        assert rep.clean
        assert len(rep.cells) == 3
        assert rep.executed > 0
        again = run_campaign(range(3), protocols=("aec",), plans=("none",),
                             cache_dir=cache)
        assert again.clean
        assert again.executed == 0  # fully disk-cached

    def test_campaign_identical_across_jobs(self, tmp_path):
        serial = run_campaign(range(2), protocols=("aec",), plans=("none",),
                              cache_dir=str(tmp_path / "c1"))
        parallel = run_campaign(range(2), protocols=("aec",),
                                plans=("none",), jobs=2,
                                cache_dir=str(tmp_path / "c2"))
        a = {c.seed: c.execution_time for c in serial.cells}
        b = {c.seed: c.execution_time for c in parallel.cells}
        assert a == b

    def test_campaign_catches_broken_protocol_and_shrinks(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        rep = run_campaign([24], protocols=("aec-broken",), plans=("none",),
                           cache_dir=str(tmp_path / "cache"),
                           corpus_dir=corpus, max_shrink_runs=120)
        assert not rep.clean
        assert len(rep.reproducers) == 1
        doc = rep.reproducers[0]
        assert doc["format"] == "repro-fuzz-corpus"
        minimal = spec_from_dict(doc["spec"])
        assert minimal.num_procs <= 2
        files = glob.glob(os.path.join(corpus, "*.json"))
        assert len(files) == 1

    def test_failed_cell_reports_its_own_error(self, monkeypatch):
        # the three plans' cells share an app/scale/protocol label; each
        # must report the error its own run raised
        from repro.core.aec.protocol import AECNode

        class PlanRaisingNode(AECNode):
            def __init__(self, world, node_id):
                super().__init__(world, node_id)
                plan = world.config.faults
                raise RuntimeError(
                    f"raised under plan {plan.name if plan else 'none'}")

        monkeypatch.setitem(PROTOCOLS, "aec-raises", PlanRaisingNode)
        plans = ("none", "lossy-1pct", "crash-one-node")
        rep = run_campaign([0], protocols=("aec-raises",), plans=plans,
                           shrink=False)
        assert [c.failure for c in rep.cells] == [
            f"error: RuntimeError: raised under plan {p}" for p in plans]

    def test_campaign_report_json_roundtrip(self, tmp_path):
        rep = run_campaign(range(2), protocols=("aec",), plans=("none",))
        doc = rep.to_dict()
        json.dumps(doc)
        assert doc["clean"] is True
        assert doc["total_cells"] == 2


# -------------------------------------------------------------------- CLI

class TestFuzzCli:
    def test_fuzz_run_clean(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        rc = cli_main(["fuzz", "run", "--seeds", "2", "--protocols", "aec",
                       "--plans", "none", "--json", str(out),
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["clean"] is True
        assert "all clean" in capsys.readouterr().out

    def test_fuzz_replay_healthy(self, capsys):
        assert cli_main(["fuzz", "replay", "3", "--protocol", "aec"]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_fuzz_replay_broken_fails(self, capsys):
        corpus = os.path.join(CORPUS_DIR, "broken-aec-stale-read.json")
        rc = cli_main(["fuzz", "replay", corpus])
        assert rc == 1
        assert "FAILS" in capsys.readouterr().out

    def test_run_accepts_fuzz_id(self, capsys):
        rc = cli_main(["run", "--app", "fuzz:3", "--protocol", "aec",
                       "--check-consistency"])
        assert rc == 0
        assert "consistency check: clean" in capsys.readouterr().out

    def test_run_rejects_unknown_app(self, capsys):
        assert cli_main(["run", "--app", "nope", "--protocol", "aec"]) == 2

    def test_trace_record_replay_verify(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert cli_main(["trace", "record", path, "--app", "is",
                         "--scale", "test"]) == 0
        assert cli_main(["trace", "replay", path, "--verify"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_trace_replay_verify_checks_protocol_before_running(
            self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert cli_main(["trace", "record", path, "--app", "is",
                         "--scale", "test"]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "replay", path, "--protocol", "tmk",
                         "--verify"]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no run, so no summary line
        assert "--verify needs the recorded protocol ('aec')" in err

    def test_trace_replay_rejects_stale_config(self, tmp_path, capsys):
        # headers written by older builds carry since-removed SimConfig keys
        path = tmp_path / "t.jsonl"
        assert cli_main(["trace", "record", str(path), "--app", "is",
                         "--scale", "test"]) == 0
        header, *body = path.read_text().splitlines()
        doc = json.loads(header)
        doc["config"].update(trace=False, profile=False, use_lap=True)
        stale = "unknown keys profile, trace, use_lap"
        with pytest.raises(ValueError, match=stale):
            config_from_dict(doc["config"])
        path.write_text("\n".join([json.dumps(doc)] + body) + "\n")
        capsys.readouterr()
        assert cli_main(["trace", "replay", str(path)]) == 2
        assert stale in capsys.readouterr().err

    def test_trace_replay_refuses_an_older_version(self, tmp_path, capsys):
        # a v2 header's machine dict still has the removed topology field
        path = tmp_path / "t.jsonl"
        assert cli_main(["trace", "record", str(path), "--app", "is",
                         "--scale", "test"]) == 0
        header, *body = path.read_text().splitlines()
        doc = json.loads(header)
        doc["version"] = 2
        doc["config"]["machine"]["topology"] = "mesh"
        path.write_text("\n".join([json.dumps(doc)] + body) + "\n")
        capsys.readouterr()
        assert cli_main(["trace", "replay", str(path)]) == 2
        assert "unsupported trace version 2" in capsys.readouterr().err
