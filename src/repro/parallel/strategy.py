"""Where each plane of a serving run executes.

The control plane always runs in-process and in order:
:class:`SequentialStrategy` simulates each planned
:class:`~repro.parallel.work.SlotWork` of a placement round, and the
service merges the outcomes in slot-id order.

The data plane is :func:`map_numerics`: every completed request's
numerics in this process, mapped over a pool of ``workers`` threads
(None: one per core).  Each call builds its own arrays and kernels, and
the threads only read what they share (the graphs' read-only inputs,
the kernel functions, the signature cache), so the outputs do not
depend on the thread count; numpy's and scipy's ufuncs release the GIL,
so the threads overlap.  One worker is the serial reference.  Results
come back in request-id order whatever the pool width or which thread
finishes first, so every width reports bit-identically, and no thread
is left alive once :func:`map_numerics` returns or raises.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.parallel.work import (
    SlotOutcome,
    SlotWork,
    execute_slot_work,
    run_numerics,
)

if TYPE_CHECKING:
    # repro.serve imports this module at run time (see work.py).
    from repro.graphs.taskgraph import TaskGraph
    from repro.serve.fleet import FleetSlot

__all__ = ["SequentialStrategy", "map_numerics"]


class SequentialStrategy:
    """Simulates one placement round's slot work units in-process, in
    order."""

    def __init__(self, slots: list[FleetSlot], trace: bool = False) -> None:
        self.slots = slots
        self.trace = trace

    def execute(self, works: list[SlotWork]) -> list[SlotOutcome]:
        return [
            execute_slot_work(self.slots[w.slot_index], w, trace=self.trace)
            for w in works
        ]


def map_numerics(
    works: list[tuple[TaskGraph, list[int]]],
    workers: int | None = None,
) -> list[dict[str, np.ndarray]]:
    """The outputs of every ``(graph, completion order)`` work, in work
    order, from a pool of ``workers`` threads (None: one per core).  A
    kernel's exception cancels the works not yet started and re-raises
    here; every thread is joined before this returns or raises."""
    if not works:
        return []
    graphs, orders = zip(*works)
    with ThreadPoolExecutor(workers or os.cpu_count()) as pool:
        try:
            return list(pool.map(run_numerics, graphs, orders))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
