"""Serving's two planes: a timing-only control plane and a pure data
plane.

The control plane makes every decision and simulates every request
sequentially and in-process: the service plans a *round* of per-slot
work units (admission, placement, capture-cache lookups, fault draws),
:class:`~repro.parallel.strategy.SequentialStrategy` simulates them on
virtual arrays with body-less kernels, and the service merges the
outcomes in slot-id order.  Each request records the order in which
its kernels completed.

The data plane, :func:`~repro.parallel.work.run_numerics`, then runs
each completed request's kernels once, in that order, on the graph's
inputs — in-process (``sequential``) or over a forked worker pool
(``process``), collected in request-id order either way
(:func:`~repro.parallel.strategy.map_numerics`).  Report fingerprints,
counters and traces are therefore bit-identical across the strategies.

See README "Parallel execution" for the determinism contract.
"""

from repro.parallel.strategy import (
    STRATEGIES,
    SequentialStrategy,
    map_numerics,
)
from repro.parallel.work import (
    SlotOutcome,
    SlotWork,
    Submission,
    execute_slot_work,
    run_numerics,
)

__all__ = [
    "STRATEGIES",
    "SequentialStrategy",
    "SlotOutcome",
    "SlotWork",
    "Submission",
    "execute_slot_work",
    "map_numerics",
    "run_numerics",
]
