"""Experiment harness: one function per paper figure/table.

Each ``figure*``/``table*`` function runs the required benchmark grid on
the simulator, returns the structured data, and can render the same
rows/series the paper reports (``render=True`` prints an ASCII table).
The ``benchmarks/`` tree wraps these in pytest-benchmark targets.
"""

from repro.harness.runner import ExperimentCell, run_cell, sweep_cells
from repro.harness import figures
from repro.harness.figures import (
    figure1,
    figure2,
    table1,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
)
from repro.harness.serving import serve_bench
from repro.harness.movement import movement_bench
from repro.harness.parallel import parallel_bench
from repro.harness.simbench import sim_bench

__all__ = [
    "serve_bench",
    "movement_bench",
    "parallel_bench",
    "sim_bench",
    "ExperimentCell",
    "run_cell",
    "sweep_cells",
    "figures",
    "figure1",
    "figure2",
    "table1",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
]
