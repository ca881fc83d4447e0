"""Unit tests for the machine parameter / cost model (paper Table 1)."""

import dataclasses

import pytest

from repro.config import MachineParams, SimConfig
from repro.core.lap import AFFINITY_THRESHOLD
from repro.harness.tables import render_table1


class TestTable1Defaults:
    def test_paper_values(self, machine):
        assert machine.num_procs == 16
        assert machine.tlb_entries == 128
        assert machine.tlb_fill_cycles == 100
        assert machine.interrupt_cycles == 4000
        assert machine.page_bytes == 4096
        assert machine.cache_bytes == 256 * 1024
        assert machine.write_buffer_entries == 4
        assert machine.cache_line_bytes == 32
        assert machine.mem_setup_cycles == 9
        assert machine.mem_cycles_per_word == 2.25
        assert machine.io_setup_cycles == 12
        assert machine.io_cycles_per_word == 3.0
        assert machine.net_path_bits == 16
        assert machine.messaging_overhead_cycles == 400
        assert machine.switch_cycles == 4
        assert machine.wire_cycles == 2
        assert machine.list_cycles_per_element == 6
        assert machine.twin_cycles_per_word == 5
        assert machine.diff_cycles_per_word == 7

    def test_every_field_is_a_table1_row_or_its_unit(self):
        # the fault layer's and recovery's timers are constants of the
        # modules that read them, not machine parameters
        rows = []

        class Reader:
            def __getattr__(self, name):
                rows.append(name)
                return getattr(MachineParams(), name)

        render_table1(Reader())
        assert len(rows) == len(set(rows)) == 19
        assert {f.name for f in dataclasses.fields(MachineParams)} == \
            {*rows, "word_bytes", "cycle_ns"}

    def test_derived_quantities(self, machine):
        assert machine.words_per_page == 1024
        assert machine.cache_lines == 8192
        assert machine.words_per_line == 8
        assert machine.net_bytes_per_cycle == 2.0


class TestCostHelpers:
    def test_mem_access(self, machine):
        assert machine.mem_access_cycles(0) == 0.0
        assert machine.mem_access_cycles(4) == 9 + 2.25 * 4

    def test_io_transfer_rounds_to_words(self, machine):
        assert machine.io_transfer_cycles(0) == 0.0
        assert machine.io_transfer_cycles(1) == 12 + 3.0  # 1 word
        assert machine.io_transfer_cycles(5) == 12 + 3.0 * 2  # 2 words

    def test_twin_cost_includes_two_memory_accesses(self, machine):
        n = machine.words_per_page
        assert machine.twin_cycles(n) == 5 * n + 2 * machine.mem_access_cycles(n)

    def test_diff_create_proportional_to_modified_words(self, machine):
        assert machine.diff_create_cycles(10) == \
            7 * 10 + 2 * machine.mem_access_cycles(10)
        # even an empty diff pays one word of scanning
        assert machine.diff_create_cycles(0) == machine.diff_create_cycles(1)

    def test_diff_apply_touches_only_encoded_words(self, machine):
        assert machine.diff_apply_cycles(10) == 7 * 10 + machine.mem_access_cycles(10)
        assert machine.diff_apply_cycles(10) < machine.diff_create_cycles(10)

    def test_list_cycles(self, machine):
        assert machine.list_cycles(10) == 60


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.update_set_size == 2
        assert AFFINITY_THRESHOLD == 0.60

    def test_every_field_is_a_knob_some_caller_sets(self):
        # protocol variants are node classes (harness.runner.PROTOCOLS),
        # paper constants live in their modules; a new field needs a
        # non-test caller that sets it
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "machine", "update_set_size", "seed", "check_consistency",
            "faults", "workload", "max_events"]

    def test_rejects_bad_update_set(self):
        with pytest.raises(ValueError):
            SimConfig(update_set_size=0)

    def test_machine_is_frozen(self, machine):
        with pytest.raises(Exception):
            machine.num_procs = 32
