"""Tests for the observability layer: metrics, spans, export."""
import json
import random

import pytest

from repro.apps.registry import make_app
from repro.config import SimConfig
from repro.harness.cli import main as cli_main
from repro.harness.runner import run_app
from repro.obs import Observability
from repro.obs.export import (DEFAULT_CYCLE_NS, JsonlSink, chrome_trace,
                              jsonl_to_chrome_trace, read_spans_jsonl,
                              span_from_json, span_to_json,
                              write_chrome_trace)
from repro.obs.host import host_metadata
from repro.obs.metrics import (MetricsRegistry, NullMetricsRegistry,
                               P2Quantile, Snapshot)
from repro.obs.spans import SPAN_KINDS, NullSpanRecorder, Span, SpanRecorder


# --------------------------------------------------------------- metrics

class TestMetrics:
    def test_counter_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", "test counter")
        c.inc()
        c.inc(2, variant="lap")
        c.inc(3, variant="lap")
        c.inc(5, variant="waitq")
        snap = reg.snapshot()
        assert snap.get("requests") == 1
        assert snap.get("requests", variant="lap") == 5
        assert snap.get("requests", variant="waitq") == 5
        assert snap.total("requests") == 11
        assert snap.total("requests", variant="lap") == 5

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(1, a=1, b=2)
        c.inc(1, b=2, a=1)
        snap = reg.snapshot()
        assert snap.get("c", a=1, b=2) == 2

    def test_gauge_set_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(5)
        g.add(2)
        g.set(7, node=1)
        assert reg.snapshot().get("level") == 7
        assert reg.snapshot().get("level", node=1) == 7

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_bind_hot_path(self):
        reg = MetricsRegistry()
        cell = reg.counter("c").bind(lock=3)
        for _ in range(10):
            cell.inc()
        assert reg.snapshot().get("c", lock=3) == 10

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10.0, 100.0, 1000.0))
        for v in (5, 50, 500, 5000, 7):
            h.observe(v)
        hv = reg.snapshot().get("lat")
        assert hv.count == 5
        assert hv.sum == 5562
        assert hv.min == 5 and hv.max == 5000
        # buckets: <=10 -> 2, <=100 -> 1, <=1000 -> 1, overflow -> 1
        assert hv.bucket_counts == (2, 1, 1, 1)
        assert hv.mean == pytest.approx(5562 / 5)

    def test_snapshot_diff_and_merge(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h", buckets=(10.0,))
        c.inc(5)
        g.set(1)
        h.observe(3)
        early = reg.snapshot()
        c.inc(7)
        g.set(9)
        h.observe(20)
        late = reg.snapshot()
        d = late.diff(early)
        assert d.get("c") == 7                 # counters subtract
        assert d.get("g") == 9                 # gauges keep the level
        assert d.get("h").count == 1           # histogram counts subtract
        assert d.get("h").bucket_counts == (0, 1)
        m = late.merge(late)
        assert m.get("c") == 24
        assert m.get("h").count == 4
        assert m.get("h").sum == pytest.approx(46)

    def test_null_registry_is_inert(self):
        reg = NullMetricsRegistry()
        assert not reg.enabled
        c = reg.counter("c")
        c.inc(5, lock=1)
        c.bind(lock=1).inc()
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert isinstance(snap, Snapshot)
        assert snap.names() == []

    def test_render_mentions_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", "h").inc(3, variant="lap")
        text = reg.render()
        assert "hits" in text and "variant=lap" in text and "3" in text


class TestP2Quantile:
    def test_exact_for_small_n(self):
        est = P2Quantile(0.5)
        for v in (9, 1, 5):
            est.add(v)
        assert est.value() == 5

    def test_median_accuracy_uniform(self):
        rng = random.Random(7)
        est = P2Quantile(0.5)
        for _ in range(5000):
            est.add(rng.uniform(0, 1000))
        assert abs(est.value() - 500) < 25

    def test_p99_tail(self):
        rng = random.Random(11)
        est = P2Quantile(0.99)
        for _ in range(10000):
            est.add(rng.uniform(0, 100))
        assert 95 < est.value() <= 100

    def test_empty(self):
        assert P2Quantile(0.9).value() is None


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

    def test_null_recorder(self):
        rec = NullSpanRecorder()
        assert not rec.enabled
        assert rec.begin(0, "barrier", "b", 0.0) == 0
        rec.end(0, 1.0)
        assert len(rec) == 0 and rec.finish(5.0) == 0

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

    def test_jsonl_roundtrip(self):
        for span in self._spans():
            back = span_from_json(span_to_json(span))
            assert back == span

    def test_jsonl_sink_and_offline_conversion(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        rec = SpanRecorder(capacity=1, sink=JsonlSink(str(jsonl)))
        for i in range(5):
            sid = rec.begin(0, "barrier", f"b{i}", float(i))
            rec.end(sid, float(i) + 1.0)
        rec.sink.close()
        # sink saw everything even though the ring kept only 1
        assert len(rec) == 1
        spans = read_spans_jsonl(str(jsonl))
        assert [s.name for s in spans] == [f"b{i}" for i in range(5)]
        out = tmp_path / "t.json"
        assert jsonl_to_chrome_trace(str(jsonl), str(out)) == 5
        assert json.loads(out.read_text())["traceEvents"]


# ------------------------------------------- end-to-end simulator runs

@pytest.fixture(scope="module")
def obs_result():
    cfg = SimConfig(obs_metrics=True, obs_spans=True)
    return run_app(make_app("is", "test"), "aec", cfg)


class TestRunWithObs:
    def test_span_kinds_present(self, obs_result):
        spans = obs_result.extra["spans"]
        counts = spans.counts()
        for kind in ("lock.wait", "lock.hold", "barrier",
                     "diff.create", "diff.apply", "lap.window"):
            assert counts[kind] > 0, kind
        assert spans.open_count == 0

    def test_span_counts_match_protocol_stats(self, obs_result):
        spans = obs_result.extra["spans"]
        assert spans.counts()["lock.wait"] == obs_result.total_lock_acquires
        assert spans.counts()["lock.hold"] == obs_result.total_lock_acquires
        # one barrier span per node per global episode
        assert spans.counts()["barrier"] == (obs_result.barrier_events
                                             * obs_result.num_procs)
        assert spans.counts()["diff.create"] == \
            obs_result.diff_stats.diffs_created

    def test_lap_metrics_agree_with_reference_scorer(self, obs_result):
        """The registry's counters must reproduce core/lap/stats.py."""
        snap = obs_result.metrics
        ref = obs_result.lap_stats
        assert snap.total("lap.acquires") == ref.total_acquires()
        scored = snap.total("lap.scored")
        assert scored == sum(s.scored for s in ref.per_lock)
        rates = ref.overall_rates()
        for variant in ("lap", "waitq", "waitq_affinity", "waitq_virtualq"):
            hits = snap.total("lap.hits", variant=variant)
            assert hits / scored == pytest.approx(rates[variant])
            assert snap.get("lap.hit_rate", variant=variant) == \
                pytest.approx(rates[variant])

    def test_fault_metrics_agree(self, obs_result):
        snap = obs_result.metrics
        assert snap.total("faults") == obs_result.fault_stats.total_faults
        assert snap.total("faults", cold="yes") == \
            obs_result.fault_stats.cold_faults

    def test_lock_metrics(self, obs_result):
        snap = obs_result.metrics
        assert snap.total("lock.acquires") == obs_result.total_lock_acquires
        hold = snap.get("lock.hold_cycles", lock=0)
        assert hold.count == obs_result.total_lock_acquires
        assert hold.sum > 0

    def test_wasted_bytes_attributed(self, obs_result):
        snap = obs_result.metrics
        pushed = snap.total("lap.pushed_bytes")
        wasted = snap.total("lap.wasted_bytes")
        assert pushed > 0
        assert 0 <= wasted < pushed

    def test_determinism_with_obs(self, obs_result):
        """Enabling observability must not change simulated behaviour."""
        plain = run_app(make_app("is", "test"), "aec", SimConfig())
        assert plain.execution_time == obs_result.execution_time
        assert plain.messages_total == obs_result.messages_total

    def test_disabled_by_default(self):
        r = run_app(make_app("is", "test"), "aec", SimConfig())
        assert r.metrics is None
        assert r.extra["spans"] is None

    def test_jsonl_streaming_run(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        cfg = SimConfig(obs_spans=True, obs_spans_jsonl=str(path))
        r = run_app(make_app("is", "test"), "aec", cfg)
        spans = read_spans_jsonl(str(path))
        assert len(spans) == len(r.extra["spans"].spans)

    def test_clock_hz_from_machine(self):
        import dataclasses
        cfg = SimConfig()
        cfg.machine = dataclasses.replace(cfg.machine, cycle_ns=5.0)  # 200 MHz
        r = run_app(make_app("is", "test"), "aec", cfg)
        assert r.clock_hz == pytest.approx(200e6)
        assert r.simulated_seconds == \
            pytest.approx(r.execution_time / 200e6)

    def test_treadmarks_spans(self):
        cfg = SimConfig(obs_spans=True)
        r = run_app(make_app("is", "test"), "tmk", cfg)
        counts = r.extra["spans"].counts()
        assert counts["lock.wait"] > 0
        assert counts["barrier"] > 0

    def test_obs_from_config_defaults(self):
        obs = Observability.from_config(SimConfig())
        assert not obs.enabled
        assert not obs.metrics.enabled and not obs.spans.enabled


# -------------------------------------------------------------------- CLI

class TestCli:
    def test_run_trace_out(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli_main(["run", "--app", "is", "--protocol", "aec",
                       "--scale", "test", "--trace-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e["ph"] == "X"}
        assert {"lock.wait", "lock.hold", "barrier", "diff.create"} <= cats

    def test_trace_subcommand(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli_main(["trace", "export", str(out),
                       "--app", "is", "--scale", "test"])
        assert rc == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_metrics_subcommand(self, capsys):
        rc = cli_main(["metrics", "--app", "is", "--protocol", "aec",
                       "--scale", "test"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "lap.hit_rate" in text
        assert "variant=lap" in text

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
        rec.instant(1, "fault", "drop", 60.0)
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

    def test_monotonic_on_real_run(self, obs_result):
        doc = chrome_trace(obs_result.extra["spans"])
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
        rc = cli_main(["run", "--app", "is", "--scale", "test",
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
