"""Where each plane of a serving run executes.

The control plane always runs in-process and in order:
:class:`SequentialStrategy` simulates each planned
:class:`~repro.parallel.work.SlotWork` of a placement round, and the
service merges the outcomes in slot-id order.

The data plane is :func:`map_numerics`, selected by the
``ServeConfig.parallel`` name:

* ``sequential`` — every completed request's numerics in this process,
  mapped over a pool of ``workers`` threads (None: one per core).  Each
  call builds its own arrays and kernels, and the threads only read
  what they share (the graphs' read-only inputs, the kernel functions,
  the signature cache), so the outputs do not depend on the thread
  count; numpy's and scipy's ufuncs release the GIL, so the threads
  overlap.  One worker is the serial reference.
* ``process`` — the same calls mapped over one forked worker pool.  The
  pool forks after the drain, so workers inherit every graph, and a
  task is just a request index plus its completion order.

Both return results in request-id order whatever the worker count or
which worker finishes first, so they report bit-identically.  Neither
leaves a worker alive once :func:`map_numerics` returns or raises.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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

__all__ = ["STRATEGIES", "SequentialStrategy", "map_numerics"]

#: the data-plane strategies; ``sequential`` with one worker is the
#: reference
STRATEGIES = ("sequential", "process")


class SequentialStrategy:
    """Simulates one placement round's slot work units in-process, in
    order."""

    def __init__(
        self,
        slots: list[FleetSlot],
        config,
        trace: bool = False,
    ) -> None:
        self.slots = slots
        self.config = config
        self.trace = trace

    def execute(self, works: list[SlotWork]) -> list[SlotOutcome]:
        return [
            execute_slot_work(
                self.slots[w.slot_index], w, self.config,
                trace=self.trace,
            )
            for w in works
        ]


#: the graphs of the run a forked pool serves (set in each worker)
_graphs: list[TaskGraph] = []


def _inherit(graphs: list[TaskGraph]) -> None:
    global _graphs
    _graphs = graphs


def _numerics_task(task: tuple[int, list[int]]) -> dict[str, np.ndarray]:
    index, order = task
    return run_numerics(_graphs[index], order)


def map_numerics(
    works: list[tuple[TaskGraph, list[int]]],
    parallel: str,
    workers: int | None = None,
) -> list[dict[str, np.ndarray]]:
    """The outputs of every ``(graph, completion order)`` work, in work
    order.  Both strategies size their pool by ``workers`` (None: one
    per core) and join every worker before returning or raising.  A
    kernel's exception cancels the works not yet started and re-raises
    here; a ``process`` worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, a
    :class:`RuntimeError`."""
    if not works:
        return []
    if parallel == "sequential":
        graphs, orders = zip(*works)
        # On an exception the works not yet started are cancelled, and
        # leaving the block joins every thread: a later ``process`` run
        # forks this process, and no pool thread may be alive then.
        with ThreadPoolExecutor(workers or os.cpu_count()) as pool:
            try:
                return list(pool.map(run_numerics, graphs, orders))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    # fork (not spawn): workers inherit the graphs and the kernel
    # functions instead of unpickling them, so a task is two small
    # values.  The initializer's arguments are inherited, not sent.
    with ProcessPoolExecutor(
        max_workers=workers or os.cpu_count(),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit,
        initargs=([graph for graph, _ in works],),
    ) as pool:
        return list(
            pool.map(
                _numerics_task,
                [(i, order) for i, (_, order) in enumerate(works)],
            )
        )
