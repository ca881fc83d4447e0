"""Tests for the observability layer: spans, export, ``repro explain``."""
import hashlib
import json

import pytest

from repro.apps.registry import make_app
from repro.config import SimConfig
from repro.harness.cli import main as cli_main
from repro.harness.runner import run_app
from repro.obs.export import DEFAULT_CYCLE_NS, chrome_trace, write_chrome_trace
from repro.obs.host import host_metadata
from repro.obs.spans import SPAN_KINDS, Span, SpanRecorder
from repro.protocols.base import World
from repro.tools import episode_stats, lock_report, metrics_report


# ----------------------------------------------------------------- spans

class TestSpans:
    def test_begin_end_nesting(self):
        rec = SpanRecorder()
        outer = rec.begin(0, "lock.hold", "lock0.hold", 100.0)
        inner = rec.begin(0, "diff.create", "diff p3", 110.0)
        rec.end(inner, 120.0, pages=1)
        rec.end(outer, 200.0)
        spans = list(rec.spans)
        assert [s.kind for s in spans] == ["diff.create", "lock.hold"]
        assert spans[0].duration == 10.0
        assert spans[1].duration == 100.0
        assert spans[0].args["pages"] == 1
        assert rec.open_count == 0

    def test_stale_handle_ignored(self):
        rec = SpanRecorder()
        sid = rec.begin(0, "barrier", "b", 0.0)
        assert rec.end(sid, 1.0) is not None
        assert rec.end(sid, 2.0) is None     # double close
        assert rec.end(9999, 2.0) is None    # unknown
        assert len(rec) == 1

    def test_finish_truncates_open_spans(self):
        rec = SpanRecorder()
        rec.begin(0, "lock.wait", "w", 10.0)
        rec.begin(1, "barrier", "b", 20.0)
        n = rec.finish(50.0)
        assert n == 2 and rec.open_count == 0
        assert all(s.end == 50.0 and s.args.get("truncated")
                   for s in rec.spans)

    def test_ring_keeps_most_recent(self):
        rec = SpanRecorder(capacity=3)
        for i in range(10):
            sid = rec.begin(0, "barrier", f"b{i}", float(i))
            rec.end(sid, float(i) + 0.5)
        assert len(rec) == 3
        assert [s.name for s in rec.spans] == ["b7", "b8", "b9"]
        assert rec.dropped_total == 7
        assert rec.dropped["barrier"] == 7
        assert rec.completed == 10

    def test_kind_queries(self):
        rec = SpanRecorder()
        for kind in ("barrier", "barrier", "lock.hold"):
            sid = rec.begin(0, kind, kind, 0.0)
            rec.end(sid, 4.0)
        assert rec.counts()["barrier"] == 2
        assert len(rec.of_kind("barrier")) == 2
        assert rec.total_time("barrier") == 8.0
        assert rec.durations("lock.hold") == [4.0]

    def test_span_kinds_map_to_figure4_categories(self):
        assert set(SPAN_KINDS.values()) <= {"busy", "data", "synch", "ipc",
                                            "others"}


# ---------------------------------------------------------------- export

class TestExport:
    def _spans(self):
        return [
            Span(0, "lock.wait", "lock0.wait", 100.0, 300.0, {"lock": 0}),
            Span(1, "barrier", "bar.step0", 50.0, 400.0),
            Span(0, "diff.create", "diff p1", 120.0, 120.0),  # instant
        ]

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._spans(), cycle_ns=10.0)
        evs = doc["traceEvents"]
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable
        phases = {e["ph"] for e in evs}
        assert phases == {"M", "X", "i"}
        for e in evs:
            assert "pid" in e
            if e["ph"] != "M":
                assert "ts" in e and "tid" in e
        x = next(e for e in evs if e["ph"] == "X" and e["cat"] == "lock.wait")
        # 100 cycles at 10 ns/cycle = 1 us; 200 cycles duration = 2 us
        assert x["ts"] == pytest.approx(1.0)
        assert x["dur"] == pytest.approx(2.0)

    def test_write_chrome_trace_counts_spans(self, tmp_path):
        out = tmp_path / "t.json"
        n = write_chrome_trace(str(out), self._spans())
        assert n == 3
        doc = json.loads(out.read_text())
        assert doc["otherData"]["cycle_ns"] == DEFAULT_CYCLE_NS


# ------------------------------------------- end-to-end simulator runs

class _Traced:
    """A finished run and the recorder it was handed."""

    def __init__(self, protocol="aec", config=None):
        self.spans = SpanRecorder()
        self.result = run_app(make_app("is", "test"), protocol, config,
                              spans=self.spans)


@pytest.fixture(scope="module")
def traced():
    return _Traced()


@pytest.fixture(scope="module")
def obs_result(traced):
    return traced.result


@pytest.fixture(scope="module")
def spans(traced):
    return traced.spans


class TestRunWithObs:
    def test_span_kinds_present(self, spans):
        counts = spans.counts()
        for kind in ("lock.wait", "lock.hold", "barrier",
                     "diff.create", "diff.apply", "lap.window"):
            assert counts[kind] > 0, kind
        assert spans.open_count == 0

    def test_span_counts_match_protocol_stats(self, obs_result, spans):
        assert spans.counts()["lock.wait"] == obs_result.total_lock_acquires
        assert spans.counts()["lock.hold"] == obs_result.total_lock_acquires
        # one barrier span per node per global episode
        assert spans.counts()["barrier"] == (obs_result.barrier_events
                                             * obs_result.num_procs)
        assert spans.counts()["diff.create"] == \
            obs_result.diff_stats.diffs_created

    def test_lock_metrics(self, obs_result, spans):
        """Lock and barrier episodes, read from spans."""
        wait = episode_stats(spans, "lock.wait")
        hold = episode_stats(spans, "lock.hold")
        barrier = episode_stats(spans, "barrier")
        assert wait["count"] == hold["count"] == \
            obs_result.total_lock_acquires == 32
        assert (wait["sum"], hold["sum"]) == (11931900, 1112670)
        assert (barrier["count"], barrier["sum"]) == (144, 32395465.5)
        for st in (wait, hold, barrier):
            assert st["p50"] <= st["p90"] <= st["p99"]
            assert st["mean"] == pytest.approx(st["sum"] / st["count"])

    def test_wasted_bytes_attributed(self, obs_result):
        d = obs_result.diff_stats
        assert (d.lap_pushes, d.lap_pushed_bytes) == (30, 56896)
        assert d.lap_wasted_bytes == {"barrier": 2048}
        assert d.lap_wasted_total == 2048

    def test_determinism_with_obs(self, obs_result):
        """Enabling observability must not change simulated behaviour."""
        plain = run_app(make_app("is", "test"), "aec", SimConfig())
        assert plain.execution_time == obs_result.execution_time
        assert plain.messages_total == obs_result.messages_total

    def test_disabled_by_default(self, shared_run):
        r = shared_run("is", "aec")
        assert "spans" not in r.extra
        assert not hasattr(r, "metrics")

    def test_clock_hz_from_machine(self):
        import dataclasses
        cfg = SimConfig()
        cfg.machine = dataclasses.replace(cfg.machine, cycle_ns=5.0)  # 200 MHz
        r = run_app(make_app("is", "test"), "aec", cfg)
        assert r.clock_hz == pytest.approx(200e6)
        assert r.simulated_seconds == \
            pytest.approx(r.execution_time / 200e6)

    def test_treadmarks_spans(self):
        counts = _Traced("tmk").spans.counts()
        assert counts["lock.wait"] > 0
        assert counts["barrier"] > 0

    def test_lazy_diff_pulls_are_page_fetches(self):
        """TreadMarks resolves most water-ns faults by pulling writers'
        diffs: that time is a page fetch, not compute."""
        from repro.tools import attribute_result
        spans = SpanRecorder()
        result = run_app(make_app("water-ns", "test"), "tmk", spans=spans)
        totals = attribute_result(result, spans).totals()
        assert totals["page.fetch"] > totals["compute"]

    def test_world_spans_follow_config(self):
        """The world records into the recorder it is handed, else into
        none; no config field switches spans on."""
        from repro.memory.layout import Layout
        from repro.sync.objects import SyncRegistry

        def spans(recorder=None):
            cfg = SimConfig()
            return World(cfg, Layout(cfg.machine.words_per_page),
                         SyncRegistry(cfg.machine.num_procs),
                         spans=recorder).spans
        assert spans() is None
        mine = SpanRecorder()
        assert spans(mine) is mine and mine.capacity == 1_000_000


# -------------------------------------------------------------------- CLI

def _report_rows(text):
    """First word of each line -> the rest of its words, over the metrics
    section (``repro explain`` prints the attribution after it)."""
    text = text.split("simulated-time attribution")[0]
    return {words[0]: words[1:] for words in map(str.split, text.splitlines())
            if words}


#: sha256 of the files ``repro explain --app is --protocol aec --scale
#: test`` writes; re-recorded when the lazy-diff pulls got ``page.fetch``
#: spans and stamped applies ``diff.apply`` spans (before that they were
#: byte-identical to what ``bench attr --json``, ``bench flame`` and
#: ``run --trace-out`` wrote)
EXPLAIN_FILE_SHA256 = {
    "--json": "d7f9ae5e348281584f39bf282e8a46ba"
              "4f2f70cc1f12180985cd9fe7d56752e3",
    "--folded": "3f80e313c6d0c6474abcc4f03bbe10b6"
                "56438ac9557a6bf45a42cb64ada69543",
    "--trace-out": "19de4f37a655f86fd112732e48a34588"
                   "027ca30ed98d688a28dd2ff02bf28216",
}


class TestCli:
    def test_explain_trace_out(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli_main(["explain", "--app", "is", "--protocol", "aec",
                       "--scale", "test", "--trace-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e["ph"] == "X"}
        assert {"lock.wait", "lock.hold", "barrier", "diff.create"} <= cats

    def test_explain_files_are_pinned(self, tmp_path, capsys):
        paths = {flag: str(tmp_path / flag.strip("-"))
                 for flag in EXPLAIN_FILE_SHA256}
        rc = cli_main(["explain", "--app", "is", "--protocol", "aec",
                       "--scale", "test",
                       *(a for kv in paths.items() for a in kv)])
        assert rc == 0
        for flag, path in paths.items():
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == EXPLAIN_FILE_SHA256[flag], flag

    def test_explain_prints_metrics(self, capsys):
        """The report shows the facts the deleted registry showed, with
        the same counts and sums."""
        rc = cli_main(["explain", "--app", "is", "--protocol", "aec",
                       "--scale", "test"])
        assert rc == 0
        rows = _report_rows(capsys.readouterr().out)
        assert rows["lock.wait"][:2] == ["32", "11931900"]
        assert rows["lock.hold"][:2] == ["32", "1112670"]
        assert rows["barrier"][:2] == ["144", "32395466"]
        assert rows["access"][:4] == ["faults:", "111", "total,", "14589054"]
        assert rows["lap"] == ["0.935484"]
        assert rows["waitq"] == ["0.903226"]
        assert rows["waitq_affinity"] == ["0.935484"]
        assert rows["waitq_virtualq"] == ["0.903226"]
        assert " ".join(rows["LAP"]) == (
            "eager pushes: 30 pushes, 56896 bytes pushed, "
            "2048 bytes wasted (barrier 2048)")

    def test_explain_sections_in_order(self, capsys):
        assert cli_main(["explain", "--app", "is", "--faults",
                         "lossy-1pct"]) == 0
        out = capsys.readouterr().out
        heads = ["is ", "episodes (simulated cycles", "access faults:",
                 "network faults:", "simulated-time attribution",
                 "Figure-4 cross-check", "timeline:", "messages:"]
        at = [out.index(head) for head in heads]
        assert at == sorted(at)
        timeline = out[out.index("timeline:"):out.index("messages:")]
        assert "  fault " in timeline

    def test_explain_exits_1_on_attribution_violation(self, monkeypatch,
                                                      capsys):
        from repro.tools.attribution import AttributionReport
        monkeypatch.setattr(AttributionReport, "check",
                            lambda self, tolerance=0: ["node 0: off"])
        assert cli_main(["explain", "--app", "is"]) == 1
        assert "TOLERANCE VIOLATION: node 0: off" in capsys.readouterr().err

    def test_metrics_tmk_has_shadow_lap_and_sc_has_none(self, capsys):
        assert cli_main(["explain", "--app", "is", "--protocol", "tmk",
                         "--scale", "test"]) == 0
        rows = _report_rows(capsys.readouterr().out)
        assert rows["lap"] == rows["waitq"] == ["0.935484"]
        assert rows["lock.wait"][0] == "32"
        assert cli_main(["explain", "--app", "is", "--protocol", "sc",
                         "--scale", "test"]) == 0
        text = capsys.readouterr().out
        assert "LAP" not in text
        assert "access faults: 0 total" in text

    def test_report_lists_net_fault_and_recovery_counters(self):
        from repro.faults import resolve_plan
        run = _Traced(config=SimConfig(faults=resolve_plan("crash-one-node")))
        r = run.result
        rows = _report_rows(metrics_report(r, run.spans))
        assert int(rows["crashes"][0]) == r.recovery.crashes > 0
        assert int(rows["acks_sent"][0]) == r.net_faults.acks_sent > 0

    def test_lock_report_has_wait_and_hold_columns(self, spans):
        header, row = lock_report(spans).splitlines()[:2]
        assert "wait (cy)" in header and "hold (cy)" in header
        assert row.split()[-2:] == ["11931900", "1112670"]

    def test_verbose_uses_machine_clock(self, capsys):
        rc = cli_main(["run", "--app", "is", "--scale", "test", "-v"])
        assert rc == 0
        assert "at 100 MHz" in capsys.readouterr().out


# ---------------------------------------- trace export contract (satellite)

class TestTraceExportContract:
    """Schema validity, per-track monotonicity and drop accounting."""

    def _recorded(self, capacity=None):
        rec = SpanRecorder(capacity=capacity)
        # interleaved begin/end so the buffer is NOT in start order
        a = rec.begin(0, "barrier", "bar0", 100.0)
        b = rec.begin(1, "lock.wait", "lk", 50.0)
        rec.end(b, 150.0)
        rec.end(a, 400.0)
        c = rec.begin(0, "diff.create", "d", 10.0)
        rec.end(c, 20.0)
        rec.record(1, "fault", "drop", 60.0, 60.0)
        return rec

    def test_schema_valid_json(self):
        doc = chrome_trace(self._recorded())
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        for e in doc["traceEvents"]:
            assert e["ph"] in ("M", "X", "i")
            assert isinstance(e["pid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and "ts" in e and "cat" in e
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_timestamps_monotonic_per_track(self):
        doc = chrome_trace(self._recorded())
        by_track = {}
        for e in doc["traceEvents"]:
            if e["ph"] in ("X", "i"):
                by_track.setdefault(e["tid"], []).append(e["ts"])
        assert len(by_track) == 2
        for track, stamps in by_track.items():
            assert stamps == sorted(stamps), f"track {track} not monotonic"

    def test_monotonic_on_real_run(self, obs_result, spans):
        doc = chrome_trace(spans)
        by_track = {}
        for e in doc["traceEvents"]:
            if e["ph"] in ("X", "i"):
                by_track.setdefault(e["tid"], []).append(e["ts"])
        assert len(by_track) == obs_result.num_procs
        for stamps in by_track.values():
            assert stamps == sorted(stamps)

    def test_drop_counts_in_metadata(self):
        rec = self._recorded(capacity=2)  # 4 stored spans -> 2 evictions
        doc = chrome_trace(rec)
        other = doc["otherData"]
        assert other["spans_completed"] == 4
        assert other["spans_dropped_total"] == 2
        assert sum(other["spans_dropped_by_kind"].values()) == 2

    def test_plain_list_has_no_drop_metadata(self):
        doc = chrome_trace(list(self._recorded().spans))
        assert "spans_dropped_total" not in doc["otherData"]
        assert doc["otherData"]["cycle_ns"] == DEFAULT_CYCLE_NS

    def test_cli_trace_carries_drop_metadata(self, tmp_path):
        out = tmp_path / "t.json"
        rc = cli_main(["explain", "--app", "is", "--scale", "test",
                       "--trace-out", str(out)])
        assert rc == 0
        other = json.loads(out.read_text())["otherData"]
        assert "spans_dropped_total" in other
        assert other["spans_completed"] > 0


# ------------------------------------------------------ host metadata

class TestHostMetadata:
    def test_host_metadata_fields(self):
        host = host_metadata()
        assert json.loads(json.dumps(host)) == host
        assert host["cpu_count"] >= 1
        assert host["peak_rss_bytes"] is None or \
            host["peak_rss_bytes"] > 10 * 1024 * 1024
        assert "python" in host and "git_rev" in host
