"""Unit tests for the statistics containers."""
import pytest

from repro.stats.diff_stats import DiffStats
from repro.stats.fault_stats import AccessFaultStats
from repro.stats.run_result import RunResult
from repro.stats.breakdown import Breakdown


class TestDiffStats:
    def test_table4_columns(self):
        d = DiffStats(num_procs=4)
        d.record_create(800, 1000.0, 600.0)
        d.record_create(200, 1000.0, 0.0)
        d.record_merge(120)
        d.record_apply(500.0, 500.0)
        assert d.avg_diff_bytes == 500
        assert d.avg_merged_bytes == 120
        assert d.merged_fraction == 0.5
        assert d.create_cycles_per_proc == 500.0
        assert d.hidden_create_fraction == pytest.approx(0.3)
        assert d.hidden_apply_fraction == 1.0

    def test_empty_stats_zero(self):
        d = DiffStats()
        assert d.avg_diff_bytes == 0.0
        assert d.merged_fraction == 0.0
        assert d.hidden_create_fraction == 0.0

    def test_hidden_cannot_exceed_total(self):
        d = DiffStats()
        with pytest.raises(ValueError):
            d.record_create(10, 100.0, 200.0)
        with pytest.raises(ValueError):
            d.record_apply(100.0, 200.0)


class TestFaultStats:
    def test_merge(self):
        a = AccessFaultStats(read_faults=2, fault_cycles=100.0)
        b = AccessFaultStats(read_faults=3, write_faults=1, fault_cycles=50.0)
        m = a.merge(b)
        assert m.read_faults == 5
        assert m.write_faults == 1
        assert m.fault_cycles == 150.0

    def test_total(self):
        f = AccessFaultStats(read_faults=1, write_faults=2,
                             protection_faults=3)
        assert f.total_faults == 6


class TestRunResult:
    def make(self):
        return RunResult(
            app="x", protocol="aec", num_procs=2, execution_time=1000.0,
            node_breakdowns=[Breakdown(), Breakdown()],
            breakdown=Breakdown.from_dict({"busy": 10.0}),
            app_results=[None, None], diff_stats=DiffStats(),
            fault_stats=AccessFaultStats(), lock_acquires={0: 3, 1: 4},
            barrier_events=2)

    def test_total_acquires(self):
        assert self.make().total_lock_acquires == 7

    def test_summary_mentions_key_fields(self):
        s = self.make().summary()
        assert "x" in s and "aec" in s and "acq=7" in s
