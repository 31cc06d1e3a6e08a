"""Operations executed by the simulated GPU.

An :class:`Operation` is one unit of work submitted to a stream: a kernel,
a host-device transfer, or an event record/wait.  Operations own a scalar
amount of remaining *work*; the contention model assigns each running
operation a progress rate and the engine advances the virtual clock to the
next completion.

The simulator package is deliberately independent of the scheduler: the
scheduler (``repro.core``) compiles its computational elements down to
these operations.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.stream import SimEvent, SimStream


_op_counter = itertools.count()


class OpState(enum.Enum):
    """Lifecycle of an operation inside the engine."""

    QUEUED = "queued"      # submitted, not yet at the head of its stream
    READY = "ready"        # at stream head with all waits satisfied
    RUNNING = "running"    # progressing on the device
    COMPLETE = "complete"


class TransferDirection(enum.Enum):
    """Direction of a PCIe transfer."""

    HOST_TO_DEVICE = "HtoD"
    DEVICE_TO_HOST = "DtoH"
    DEVICE_TO_DEVICE = "DtoD"  # peer-to-peer (multi-GPU future work)


class TransferKind(enum.Enum):
    """Why a transfer happens; used for reporting and the fault model."""

    EAGER = "eager"          # pre-Pascal: move everything before launch
    PREFETCH = "prefetch"    # cudaMemPrefetchAsync-style bulk move
    PAGE_FAULT = "fault"     # on-demand UM migration (modelled in-kernel)
    WRITEBACK = "writeback"  # device-to-host on CPU access
    EXPLICIT = "explicit"    # user-requested copy


#: The quantities of a :class:`KernelResourceRequest` that must be finite
#: and non-negative.
_QUANTITIES = ("flops", "dram_bytes", "l2_bytes", "instructions", "fault_bytes")


@dataclass(frozen=True)
class KernelResourceRequest:
    """Resource footprint of one kernel launch, consumed by the contention
    model.  Produced by :mod:`repro.kernels.profile` from a kernel's cost
    profile and launch geometry.  Immutable: a cost model hands every
    launch of one size the same request.

    Attributes
    ----------
    flops:
        Floating-point operations executed by the whole grid.
    fp64:
        Whether the FLOPs are double precision.
    dram_bytes:
        Bytes moved to/from device memory.
    l2_bytes:
        Bytes moved through the L2 cache.
    instructions:
        Dynamic instruction count (drives the IPC roofline term).
    threads_total:
        ``blocks * threads_per_block``; with the device's resident-thread
        capacity this bounds the SM fraction the kernel can occupy.
    fault_bytes:
        Bytes that must be migrated on demand *during* execution because
        they were not resident when the kernel started (page-fault path).
    sm_fraction_cap:
        Upper bound on the SM fraction the kernel can occupy regardless
        of its grid size — the model for occupancy limited by per-block
        shared memory or registers.  Kernels capped below 1.0 leave SMs
        idle when run alone, which is exactly the space-sharing headroom
        the paper exploits (e.g. the IMG blur kernels, section V-F).
    """

    flops: float
    fp64: bool
    dram_bytes: float
    l2_bytes: float
    instructions: float
    threads_total: int
    fault_bytes: float = 0.0
    sm_fraction_cap: float = 1.0
    _sig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _QUANTITIES:
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"kernel resource {name} must be finite and >= 0,"
                    f" got {value}"
                )
        if self.threads_total <= 0:
            raise ValueError("threads_total must be positive")
        if not 0.0 < self.sm_fraction_cap <= 1.0:
            raise ValueError("sm_fraction_cap must be in (0, 1]")
        object.__setattr__(
            self,
            "_sig",
            (
                self.flops,
                self.fp64,
                self.dram_bytes,
                self.l2_bytes,
                self.instructions,
                self.threads_total,
                self.fault_bytes,
                self.sm_fraction_cap,
            ),
        )

    def signature(self) -> tuple:
        """Hashable, totally ordered identity of this resource footprint.

        Launches with equal signatures are indistinguishable to the
        contention model — they form one *contention class* — so the
        engine can price them together.  Computed once, at construction.
        """
        return self._sig


@dataclass
class Operation:
    """Base class for everything submitted to a stream.

    ``work`` is a dimensionless quantity: the contention model returns
    rates in work-units/second, so each subclass chooses its own scale
    (bytes for transfers, 1.0 for kernels).
    """

    label: str = ""
    op_id: int = field(default_factory=lambda: next(_op_counter))
    state: OpState = field(default=OpState.QUEUED, init=False)
    stream: "SimStream | None" = field(default=None, init=False)
    wait_events: list["SimEvent"] = field(default_factory=list, init=False)
    submit_time: float = field(default=float("nan"), init=False)
    start_time: float = field(default=float("nan"), init=False)
    end_time: float = field(default=float("nan"), init=False)
    work_total: float = field(default=0.0, init=False)
    work_remaining: float = field(default=0.0, init=False)
    #: order in which the op entered the engine's running set; completion
    #: processing of same-instant finishes follows this sequence
    start_seq: int = field(default=-1, init=False)
    on_complete: list[Callable[["Operation"], None]] = field(
        default_factory=list, init=False
    )
    #: annotations the timeline keeps for the op's row and merges into
    #: its records' ``meta`` (e.g. the race detector's read/write
    #: tokens); they hold only scalars and exact tuples, so the kept
    #: dict is untracked by the collector (see repro.gpusim.timeline)
    info: dict = field(default_factory=dict, init=False)

    @property
    def instantaneous(self) -> bool:
        """True for zero-duration bookkeeping ops (events)."""
        return self.work_total == 0.0

    @property
    def is_kernel(self) -> bool:
        return isinstance(self, KernelOp)

    @property
    def is_transfer(self) -> bool:
        return isinstance(self, TransferOp)

    def add_wait(self, event: "SimEvent") -> None:
        """Make this operation wait for ``event`` before starting."""
        self.wait_events.append(event)

    def waits_satisfied(self) -> bool:
        for ev in self.wait_events:
            if not ev.complete:
                return False
        return True

    def describe(self) -> str:
        return f"{type(self).__name__}({self.label or self.op_id})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()} state={self.state.value}>"

    def __hash__(self) -> int:
        return self.op_id

    def __eq__(self, other: object) -> bool:
        return self is other


@dataclass(eq=False)
class KernelOp(Operation):
    """One kernel launch.  ``work_total`` is normalized to 1.0: the
    contention model converts resource shares into a rate of
    ``1 / effective_duration`` per second."""

    resources: KernelResourceRequest | None = None
    compute_fn: Callable[[], None] | None = None

    def __post_init__(self) -> None:
        if self.resources is None:
            raise ValueError("KernelOp requires a KernelResourceRequest")
        self.work_total = 1.0
        self.work_remaining = 1.0


@dataclass(eq=False)
class TransferOp(Operation):
    """One PCIe transfer; ``work`` is measured in bytes."""

    direction: TransferDirection = TransferDirection.HOST_TO_DEVICE
    nbytes: float = 0.0
    kind: TransferKind = TransferKind.EXPLICIT
    apply_fn: Callable[[], None] | None = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.work_total = float(self.nbytes)
        self.work_remaining = float(self.nbytes)


@dataclass(eq=False)
class EventRecordOp(Operation):
    """Records a :class:`SimEvent` when reached in stream order
    (``cudaEventRecord``).  Zero duration."""

    event: "SimEvent | None" = None

    def __post_init__(self) -> None:
        if self.event is None:
            raise ValueError("EventRecordOp requires an event")


@dataclass(eq=False)
class EventWaitOp(Operation):
    """Blocks its stream until an event completes
    (``cudaStreamWaitEvent``).  Zero duration once the event is done."""

    event: "SimEvent | None" = None

    def __post_init__(self) -> None:
        if self.event is None:
            raise ValueError("EventWaitOp requires an event")
        self.add_wait(self.event)
