"""The legacy ``MultiGpuScheduler`` facade — a deprecation shim.

The multi-GPU scheduling loop now lives in
:class:`repro.core.context.ParallelExecutionContext`, the one parallel
context of every :class:`repro.session.Session`; placement policy is a
:class:`~repro.core.policies.SchedulerConfig` field rather than a
constructor argument.  This class keeps the old surface working::

    sched = MultiGpuScheduler(["1660", "1660"])       # DeprecationWarning
    a = sched.array(N)
    k = sched.build_kernel(fn, "k", "ptr, sint32")
    k(512, 256)(a, N)
    sched.sync()

New code should write
``Session(gpus=2, config=SchedulerConfig(placement=...))`` instead.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Any, Callable

from repro.core.context import ParallelExecutionContext
from repro.core.policies import DevicePlacementPolicy, SchedulerConfig
from repro.gpusim.specs import GPUSpec
from repro.kernels.kernel import Kernel
from repro.kernels.profile import CostModel
from repro.memory.array import AccessKind, DeviceArray
from repro.session import Session

__all__ = ["DevicePlacementPolicy", "MultiGpuScheduler"]


class MultiGpuScheduler:
    """A GrCUDA-style runtime scheduling across several GPUs
    (deprecated alias of a multi-GPU Session)."""

    def __init__(
        self,
        gpus: list[str | GPUSpec],
        policy: DevicePlacementPolicy = DevicePlacementPolicy.MIN_TRANSFER,
        config: SchedulerConfig | None = None,
    ) -> None:
        warnings.warn(
            "MultiGpuScheduler is deprecated; use repro.Session(gpus=N,"
            " config=SchedulerConfig(placement=...)) — one entry point"
            " across single-GPU, multi-GPU and serving",
            DeprecationWarning,
            stacklevel=2,
        )
        if not gpus:
            raise ValueError("need at least one GPU")
        config = replace(config or SchedulerConfig(), placement=policy)
        self.session = Session(gpus=len(gpus), gpu=gpus, config=config)
        self.policy = policy

    # -- session delegation -------------------------------------------------

    @property
    def config(self) -> SchedulerConfig:
        return self.session.config

    @property
    def engine(self):
        return self.session.engine

    @property
    def devices(self):
        return self.session.devices

    @property
    def context(self) -> ParallelExecutionContext:
        ctx = self.session.context
        assert isinstance(ctx, ParallelExecutionContext)
        return ctx

    @property
    def dag(self):
        return self.session.dag

    @property
    def coherence(self):
        return self.context.coherence

    @property
    def placements(self) -> dict[int, int]:
        """element id -> device index (placement decisions, for tests)."""
        return self.context.placements

    def array(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = "float32",
        name: str = "",
        materialize: bool = True,
    ) -> DeviceArray:
        """Allocate an array visible to every GPU (UM address space)."""
        return self.session.array(
            shape, dtype=dtype, name=name, materialize=materialize
        )

    def build_kernel(
        self,
        code: Callable[..., None] | str,
        name: str,
        signature: str,
        cost_model: CostModel | None = None,
    ) -> Kernel:
        return self.session.build_kernel(
            code, name, signature, cost_model=cost_model
        )

    # -- host interaction ------------------------------------------------------

    def write_input(self, array: DeviceArray, data=None) -> None:
        """Host write: invalidates all device copies (via the array's
        CPU-access hook, which synchronizes conflicting work first)."""
        if data is not None:
            array.copy_from_host(data)
        else:
            array.touch_write_full()

    def read_result(self, array: DeviceArray, nbytes: int | None = None):
        """Host read: syncs producers and charges the readback (partial
        when ``nbytes`` bounds it), returning the live buffer — the
        legacy contract."""
        touched = min(nbytes or array.nbytes, array.nbytes)
        array._notify(AccessKind.READ, touched)
        return array.kernel_view

    def sync(self) -> None:
        self.session.sync()

    @property
    def elapsed(self) -> float:
        return self.session.elapsed()

    def device_kernel_counts(self) -> list[int]:
        """Kernels executed per GPU (load-balance introspection)."""
        return self.context.device_kernel_counts()
