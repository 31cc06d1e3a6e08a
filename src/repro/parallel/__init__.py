"""Parallel simulation substrate: shard per-slot simulation across
real cores with a deterministic merge.

Fleet slots only interact through service-level admission and
placement decisions; between placement rounds their simulations are
embarrassingly parallel.  ``repro.parallel`` exploits exactly that
boundary: the service plans a *round* of per-slot work units
sequentially, an :class:`~repro.parallel.strategy.ExecutionStrategy`
executes them (in-process or in forked worker processes), and
the service merges the outcomes **in slot-id order with virtual-time
tie-breaks** — so report fingerprints, counters and traces are
bit-identical across the whole strategy matrix.

See README "Parallel execution" for the determinism contract and when
``process`` wins.
"""

from repro.parallel.strategy import (
    STRATEGIES,
    ExecutionStrategy,
    SequentialStrategy,
    make_strategy,
    resolve_workers,
)
from repro.parallel.work import (
    SlotOutcome,
    SlotWork,
    Submission,
    execute_slot_work,
)

__all__ = [
    "STRATEGIES",
    "ExecutionStrategy",
    "SequentialStrategy",
    "SlotOutcome",
    "SlotWork",
    "Submission",
    "execute_slot_work",
    "make_strategy",
    "resolve_workers",
]
