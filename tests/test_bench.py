"""Tests for the simulated-time explainers behind ``repro explain``:
per-node attribution and collapsed stacks."""
import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.config import SimConfig
from repro.faults import resolve_plan
from repro.harness.cli import main as cli_main
from repro.harness.runner import run_app
from repro.obs.spans import Span, SpanRecorder
from repro.tools import (ATTRIBUTION_KINDS, attribute_result,
                         attribute_spans, exclusive_stacks, spans_collapsed,
                         write_collapsed)


# ------------------------------------------------------------ attribution

class TestAttributionSynthetic:
    def test_innermost_wins_on_nesting(self):
        spans = [
            Span(0, "barrier", "bar", 0.0, 100.0),
            Span(0, "diff.create", "diff", 20.0, 50.0),  # nested
        ]
        report = attribute_spans(spans, 1, 200.0)
        row = report.per_node[0]
        assert row["barrier"] == pytest.approx(70.0)
        assert row["diff.create"] == pytest.approx(30.0)
        assert row["compute"] == pytest.approx(100.0)
        assert report.check() == []

    def test_back_to_back_spans_do_not_nest(self):
        spans = [
            Span(0, "lock.wait", "a", 0.0, 50.0),
            Span(0, "page.fetch", "b", 50.0, 80.0),
        ]
        row = attribute_spans(spans, 1, 100.0).per_node[0]
        assert row["lock.wait"] == pytest.approx(50.0)
        assert row["page.fetch"] == pytest.approx(30.0)

    def test_excluded_kinds_ignored(self):
        spans = [Span(0, "lock.hold", "h", 0.0, 90.0)]
        row = attribute_spans(spans, 1, 100.0).per_node[0]
        assert "lock.hold" not in row
        assert row["compute"] == pytest.approx(100.0)

    def test_overcoverage_flagged(self):
        spans = [Span(0, "barrier", "bar", 0.0, 150.0)]
        report = attribute_spans(spans, 1, 100.0)
        assert any("exceeds" in p for p in report.check())

    def test_one_sweep_line_for_attribution_and_flame(self):
        spans = [
            Span(0, "barrier", "bar", 0.0, 100.0),
            Span(0, "diff.create", "diff", 20.0, 50.0),
            Span(0, "lock.wait", "lk", 100.0, 120.0),  # starts as bar ends
        ]
        assert exclusive_stacks(spans) == {
            (0,): 70.0, (0, 1): 30.0, (2,): 20.0}


#: (protocol, app, fault plan); fault-free cells keep their historical ids
_E2E = [pytest.param(protocol, app, plan,
                     id=f"{protocol}-{app}" + ("" if plan == "none"
                                               else f"-{plan}"))
        for plan in ("none", "lossy-1pct", "crash-one-node")
        for protocol in ("aec", "tmk") for app in APP_NAMES] + [
    pytest.param(protocol, app, "none", id=f"{protocol}-{app}")
    for protocol in ("adsm", "munin") for app in APP_NAMES]


@pytest.mark.parametrize("protocol,app,plan", _E2E)
class TestAttributionEndToEnd:
    def test_sums_to_execution_time(self, protocol, app, plan):
        spans = SpanRecorder()
        result = run_app(make_app(app, "test"), protocol,
                         SimConfig(faults=resolve_plan(plan)), spans=spans)
        report = attribute_result(result, spans)
        assert report.check() == [], report.render()
        if plan == "lossy-1pct":
            # injected drops/dups land on the timeline as instants that
            # name the message kind they hit
            instants = [s for s in spans.of_kind("fault")
                        if s.duration == 0.0 and "msg" in s.args]
            assert instants
            assert all(s.name.endswith(s.args["msg"]) for s in instants)
        for node in report.nodes:
            assert sum(report.per_node[node].values()) == pytest.approx(
                result.execution_time, rel=1e-6)
        # the span vocabulary sees both Figure-4 categories
        assert set(report.figure4) == {"synch", "data"}
        for cat in ("synch", "data"):
            from_spans, from_engine = report.figure4[cat]
            assert from_spans >= 0 and from_engine >= 0
        # every protocol spans its synchronization waits
        from_spans, from_engine = report.figure4["synch"]
        assert from_spans > 0 or from_engine == 0, report.render()
        assert set(report.totals()) <= set(ATTRIBUTION_KINDS) | {"compute"}


class TestAttributionErrors:
    def test_requires_spans(self):
        result = run_app(make_app("is", "test"), "aec", SimConfig())
        with pytest.raises(ValueError, match="no spans recorded"):
            attribute_result(result, None)

    def test_cli_attr(self, capsys):
        assert cli_main(["explain", "--app", "is"]) == 0
        out = capsys.readouterr().out
        assert "simulated-time attribution" in out
        assert "Figure-4 cross-check" in out


# ------------------------------------------------------------- flamegraph

class TestFlame:
    def test_spans_collapsed_widths_sum_to_exec(self):
        spans = [
            Span(0, "barrier", "bar", 0.0, 100.0),
            Span(0, "diff.create", "diff", 20.0, 50.0),
            Span(1, "lock.wait", "lk", 10.0, 60.0),
        ]
        folded = spans_collapsed(spans, 2, execution_time=200.0)
        assert folded["node0;bar;diff"] == 30
        assert folded["node0;bar"] == 70
        assert folded["node0"] == 100  # uncovered remainder
        # every node's column has the same total width
        for node in ("node0", "node1"):
            total = sum(v for k, v in folded.items()
                        if k == node or k.startswith(node + ";"))
            assert total == 200

    def test_write_collapsed_roundtrip(self, tmp_path):
        path = tmp_path / "out.folded"
        n = write_collapsed({"a;b": 10, "a": 5}, str(path))
        assert n == 2
        assert path.read_text() == "a 5\na;b 10\n"

    def test_cli_flame(self, tmp_path):
        out = str(tmp_path / "is.folded")
        assert cli_main(["explain", "--app", "is", "--folded", out]) == 0
        lines = open(out).read().splitlines()
        assert lines and all(" " in ln for ln in lines)
        # values are integer cycles, stacks rooted at nodes
        assert all(ln.rsplit(" ", 1)[1].isdigit() for ln in lines)
        assert any(ln.startswith("node0;") for ln in lines)
