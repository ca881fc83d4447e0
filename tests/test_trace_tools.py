"""Tests for the analysis tools over the span stream."""
import numpy as np
import pytest

from repro import run_app
from repro.apps.registry import make_app
from repro.obs.spans import SpanRecorder
from repro.tools import (lock_report, message_matrix, render_matrix,
                         render_timeline)


@pytest.fixture(scope="module")
def spans():
    return SpanRecorder()


@pytest.fixture(scope="module")
def traced(spans):
    return run_app(make_app("is", "test"), "aec", spans=spans)


def _hold(rec, node, lock, start, end):
    sid = rec.begin(node, "lock.hold", f"lock{lock}.hold", start, lock=lock)
    rec.end(sid, end)


class TestTraceContainer:
    def test_lock_chain_and_cs_times(self):
        rec = SpanRecorder()
        _hold(rec, 1, 0, 0.0, 100.0)
        _hold(rec, 2, 0, 150.0, 400.0)
        _hold(rec, 2, 0, 500.0, 600.0)
        _hold(rec, 3, 9, 50.0, 60.0)  # other lock: its own row
        rows = {int(ln.split()[0]): ln.split()
                for ln in lock_report(rec).splitlines()[1:]}
        # lock 0: 3 acquires by 2 owners (1 -> 2 -> 2: one transfer),
        # mean critical section (100 + 250 + 100) / 3, no wait traced,
        # 450 cycles held in total
        assert rows[0] == ["0", "3", "2", "1", "150", "0", "450"]
        assert rows[9] == ["9", "1", "1", "0", "10", "0", "10"]


class TestTracedRuns:
    def test_run_produces_events(self, traced, spans):
        counts = spans.counts()
        assert counts["lock.hold"] == traced.total_lock_acquires
        assert counts["barrier"] == 16 * traced.barrier_events
        assert counts["diff.create"] == traced.diff_stats.diffs_created
        # each remote resolution of a fault (a page copy, or the diffs of
        # one writer) is one page.fetch span
        assert counts["page.fetch"] == traced.fault_stats.remote_resolutions

    def test_lock_chain_is_serialized(self, traced, spans):
        """A mutex's holds never overlap, so ownership strictly
        alternates between grant and release."""
        holds = sorted((s for s in spans.of_kind("lock.hold")
                        if s.args["lock"] == 0), key=lambda s: s.start)
        assert holds
        for prev, nxt in zip(holds, holds[1:]):
            assert prev.end <= nxt.start, "grant while held"

    def test_tracing_off_by_default(self):
        r = run_app(make_app("fft", "test"), "aec")
        assert "spans" not in r.extra

    def test_tracing_does_not_change_timing(self, traced):
        plain = run_app(make_app("is", "test"), "aec")
        assert plain.execution_time == traced.execution_time


class TestTools:
    def test_message_matrix_consistent(self, traced):
        m = message_matrix(traced)
        assert m.shape == (16, 16)
        assert m.sum() == traced.messages_total
        assert (np.diag(m) == 0).all()  # loopback is not network traffic

    def test_render_matrix(self, traced):
        text = render_matrix(message_matrix(traced))
        assert "rows=sender" in text
        assert "top:" in text

    def test_render_timeline(self, traced, spans):
        text = render_timeline(spans, kinds=["diff.create", "lock.hold"])
        assert "timeline" in text and "diff.create" in text
        assert render_timeline(spans, node=3)
        assert render_timeline(SpanRecorder()) == "(no events)"

    def test_lock_report(self, traced, spans):
        text = lock_report(spans)
        assert "acquires" in text
        # IS has one lock acquired 32 times at test scale (2 reps)
        assert text.splitlines()[1].split()[1] == "32"

    def test_lock_report_empty(self):
        assert "(no lock activity" in lock_report(SpanRecorder())


class TestExplainCLI:
    def test_explain_command(self, capsys):
        from repro.harness.cli import main
        assert main(["explain", "--app", "fft", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out and "rows=sender" in out
        assert "acquires" in out  # the lock report
