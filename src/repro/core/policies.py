"""Scheduling policies and runtime configuration.

Section IV-C defines the policy space:

* **Execution policy** — the original GrCUDA scheduler is *serial and
  synchronous*; the paper's contribution is *parallel and asynchronous*.
* **New-stream policy** — streams are managed in FIFO order and created
  only when no free stream exists (``FIFO``); ``ALWAYS_NEW`` is the
  simpler ablation.
* **Parent-stream policy** — the first child of a computation reuses the
  parent's stream to avoid a synchronization event; later children get
  fresh streams (``DISJOINT``).  ``SAME_AS_PARENT`` schedules every child
  on the parent's stream ("simpler policies further reduce the scheduling
  costs"), trading concurrency for bookkeeping.
* **Movement policy** — how data reaches the device, consumed by
  :class:`repro.memory.coherence.CoherenceEngine`: ``PAGE_FAULT`` (lazy
  on-demand migration; the ablation the paper advises against),
  ``EAGER_PREFETCH`` (copy as soon as the DAG schedules a consumer) or
  ``BATCHED`` (coalesce adjacent-array copies).  Unset, it is the
  scheduler's own choice: the parallel scheduler prefetches, the serial
  one (which predates the prefetcher) relies on page faults.  Maxwell
  has no page faults, so lazy migration degrades to eager copies there.
* **Device-placement policy** — which GPU a computation runs on, for
  multi-GPU sessions and the serving fleet (round-robin / min-transfer /
  least-loaded).
* **Admission policy** — which queued request a serving fleet admits
  next (FIFO / priority / fair-share).  It lives with the other serving
  knobs on :class:`repro.serve.ServeConfig`.

One :class:`SchedulerConfig` holds the policy space of a session or a
serving fleet slot; device count is a :class:`repro.session.Session`
argument or a slot's topology entry, never an API choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpusim.specs import GPUSpec
from repro.memory.coherence import MovementPolicy


class ExecutionPolicy(enum.Enum):
    SERIAL = "sync"       # original GrCUDA: serial & synchronous
    PARALLEL = "async"    # this paper: parallel & asynchronous


class DevicePlacementPolicy(enum.Enum):
    """Which GPU runs a computation (multi-GPU sessions and the serving
    fleet share this vocabulary; see the module docstring)."""

    ROUND_ROBIN = "round-robin"
    MIN_TRANSFER = "min-transfer"
    LEAST_LOADED = "least-loaded"


class AdmissionPolicy(enum.Enum):
    """Which queued request a serving fleet dispatches next."""

    FIFO = "fifo"
    PRIORITY = "priority"
    FAIR_SHARE = "fair-share"


class NewStreamPolicy(enum.Enum):
    FIFO = "fifo-free"    # reuse the oldest free stream; create if none
    ALWAYS_NEW = "always-new"


class ParentStreamPolicy(enum.Enum):
    DISJOINT = "disjoint"            # first child inherits parent stream
    SAME_AS_PARENT = "same-as-parent"  # all children on the parent stream


@dataclass
class SchedulerConfig:
    """Complete configuration of one runtime instance."""

    execution: ExecutionPolicy = ExecutionPolicy.PARALLEL
    new_stream: NewStreamPolicy = NewStreamPolicy.FIFO
    parent_stream: ParentStreamPolicy = ParentStreamPolicy.DISJOINT
    #: data-movement policy for the coherence engine; None is the
    #: scheduler's own default (see :meth:`resolve_movement`)
    movement: MovementPolicy | None = None
    #: submission-window size for cross-acquire BATCHED coalescing: the
    #: stale inputs of up to this many adjacent launches merge into one
    #: transfer on a dedicated stream, flushed on sync / window-full /
    #: policy boundaries.  0 (the default) coalesces per acquire —
    #: bit-identical to the pre-window BATCHED behaviour.  Ignored by
    #: the other movement policies.
    movement_window: int = 0
    #: which GPU of a multi-GPU session runs each computation (a serving
    #: fleet picks slots by :attr:`repro.serve.ServeConfig.placement`)
    placement: DevicePlacementPolicy = DevicePlacementPolicy.MIN_TRANSFER

    def validate(self, gpus: int = 1) -> None:
        """Reject configurations that cannot mean anything; ``gpus`` is
        the device count of the session or fleet slot being
        configured."""
        if not isinstance(gpus, int) or isinstance(gpus, bool):
            raise ConfigError(
                f"gpus must be an integer, got {type(gpus).__name__}"
            )
        if gpus < 1:
            raise ConfigError(f"gpus must be >= 1, got {gpus}")
        if gpus > 1 and self.execution is ExecutionPolicy.SERIAL:
            raise ConfigError(
                "the serial scheduler is single-GPU (the original GrCUDA"
                " scheduler predates device placement); use"
                " ExecutionPolicy.PARALLEL with gpus > 1"
            )
        if (
            not isinstance(self.movement_window, int)
            or isinstance(self.movement_window, bool)
            or self.movement_window < 0
        ):
            raise ConfigError(
                "movement_window must be a non-negative integer, got"
                f" {self.movement_window!r}"
            )

    def resolve_movement(
        self, spec: GPUSpec, serial: bool = False
    ) -> MovementPolicy:
        """Pin the movement policy down for a concrete device.

        Explicit ``movement`` wins.  Otherwise the parallel scheduler
        prefetches eagerly and the serial one relies on page faults (the
        original scheduler predates the automatic prefetcher).  Devices
        without a fault mechanism always degrade to eager copies — there
        is nothing lazy to fall back on.
        """
        if self.movement is not None:
            policy = self.movement
        elif serial:
            policy = MovementPolicy.PAGE_FAULT
        else:
            policy = MovementPolicy.EAGER_PREFETCH
        if (
            policy is MovementPolicy.PAGE_FAULT
            and not spec.supports_page_faults
        ):
            policy = MovementPolicy.EAGER_PREFETCH
        return policy
