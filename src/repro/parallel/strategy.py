"""Where each plane of a serving run executes.

The control plane always runs in-process and in order:
:class:`SequentialStrategy` simulates each planned
:class:`~repro.parallel.work.SlotWork` of a placement round, and the
service merges the outcomes in slot-id order.

The data plane is :func:`map_numerics`, selected by the
``ServeConfig.parallel`` name:

* ``sequential`` — every completed request's numerics in-process, in
  request-id order; the reference.
* ``process`` — the same calls mapped over one forked worker pool.  The
  pool forks after the drain, so workers inherit every graph, and a
  task is just a request index plus its completion order.  Results come
  back in request-id order whatever the worker count or which worker
  finishes first, so both names report bit-identically.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
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

#: the data-plane strategies, reference first
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
    order.  ``process`` sizes its pool by ``workers`` (None: one per
    core); a worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`, a
    :class:`RuntimeError`, and a kernel's exception re-raises here."""
    if parallel == "sequential" or not works:
        return [run_numerics(graph, order) for graph, order in works]
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
