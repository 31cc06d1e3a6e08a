"""Execution strategies: where each planned :class:`SlotWork` runs.

The service plans placement rounds sequentially (admission, placement,
capture-cache lookups and fault draws are inherently ordered), then
hands the round's work units to a strategy:

* ``sequential`` — in-process loop; the golden reference every other
  strategy must match bit-for-bit.
* ``process`` — persistent forked workers with picklable work units
  (:mod:`repro.parallel.process`); real multi-core speedup, paid for
  in serialization.

Both return one :class:`~repro.parallel.work.SlotOutcome` per
work; the service merges them in slot-id order, so results never
depend on completion order.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.parallel.work import SlotOutcome, SlotWork, execute_slot_work

if TYPE_CHECKING:
    # repro.serve imports this module at run time (see work.py).
    from repro.serve.fleet import FleetSlot

__all__ = [
    "STRATEGIES",
    "ExecutionStrategy",
    "SequentialStrategy",
    "make_strategy",
    "resolve_workers",
]

#: the strategy matrix, in golden-reference-first order
STRATEGIES = ("sequential", "process")


def resolve_workers(workers: int | None, slot_count: int) -> int:
    """Effective worker count: never more than there are slots (a
    worker per slot saturates the fork/join), defaulting to one per
    slot capped at the machine's cores."""
    if workers is not None:
        return max(1, min(workers, slot_count))
    return max(1, min(slot_count, os.cpu_count() or 1))


class ExecutionStrategy:
    """Executes one placement round's slot work units."""

    name = "?"

    def execute(self, works: list[SlotWork]) -> list[SlotOutcome]:
        raise NotImplementedError

    def note_cold_restart(self, slot_index: int) -> None:
        """A slot crash-restarted parent-side; strategies holding
        remote slot replicas must mirror it before that slot's next
        work (no-op for in-process strategies — they share the slot
        objects)."""

    def close(self) -> None:
        """Release pools/processes; idempotent."""


class SequentialStrategy(ExecutionStrategy):
    """In-process, in-order execution — the golden reference."""

    name = "sequential"

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


def make_strategy(
    name: str,
    slots: list[FleetSlot],
    config,
    *,
    workers: int | None = None,
    trace: bool = False,
) -> ExecutionStrategy:
    """Build the strategy ``name`` over ``slots`` (lazy import keeps
    ``multiprocessing`` off the sequential path)."""
    if name == "sequential":
        return SequentialStrategy(slots, config, trace=trace)
    if name == "process":
        from repro.parallel.process import ProcessStrategy

        return ProcessStrategy(
            slots, config, trace=trace, workers=workers
        )
    raise ValueError(
        f"unknown execution strategy {name!r}; expected one of"
        f" {STRATEGIES}"
    )
