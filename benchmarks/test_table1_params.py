"""Table 1 — system parameters of the simulated network of workstations.

Not a measurement: verifies and prints the Table 1 defaults that every
other benchmark runs under.
"""
from repro.config import MachineParams
from repro.harness.tables import render_table1


def test_table1_params(benchmark):
    machine = benchmark.pedantic(MachineParams)
    assert machine.num_procs == 16
    assert machine.page_bytes == 4096
    assert machine.messaging_overhead_cycles == 400
    print()
    print(render_table1(machine))
