"""Launchable kernels, GrCUDA-style.

The host-facing API reproduces the paper's Fig. 4::

    K1 = build_kernel(K1_CODE, "square", "ptr, sint32")
    K1(NUM_BLOCKS, NUM_THREADS)(X, N)

``K1`` is a :class:`Kernel`; calling it with a launch geometry yields a
:class:`ConfiguredKernel`; calling *that* with arguments produces a
:class:`KernelLaunch` which is handed to the execution context (the
scheduler) — the host never blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import LaunchError
from repro.kernels.profile import CostModel
from repro.kernels.signature import Signature
from repro.memory.array import AccessKind, DeviceArray

#: CUDA limits: threads per block in [1, 1024]; paper sweeps 32..1024.
MAX_THREADS_PER_BLOCK = 1024

Dim = tuple[int, int, int]


def normalize_dim(dim: int | tuple[int, ...]) -> Dim:
    """Normalize an int or 1-3 element tuple to a 3-D geometry tuple."""
    if isinstance(dim, (int, np.integer)):
        values: tuple[int, ...] = (int(dim),)
    else:
        values = tuple(int(v) for v in dim)
    if not 1 <= len(values) <= 3:
        raise LaunchError(f"geometry must have 1-3 dimensions, got {values}")
    if any(v < 1 for v in values):
        raise LaunchError(f"geometry dimensions must be >= 1, got {values}")
    return (values + (1, 1))[:3]  # type: ignore[return-value]


def _dim_product(dim: Dim) -> int:
    return dim[0] * dim[1] * dim[2]


@dataclass(frozen=True)
class KernelLaunch:
    """One fully-specified kernel invocation, ready for scheduling."""

    kernel: "Kernel"
    grid: Dim
    block: Dim
    args: tuple[Any, ...]
    array_args: tuple[tuple[DeviceArray, AccessKind], ...]
    scalar_args: tuple[Any, ...]

    @property
    def threads_per_block(self) -> int:
        return _dim_product(self.block)

    @property
    def blocks(self) -> int:
        return _dim_product(self.grid)

    @property
    def threads_total(self) -> int:
        return self.blocks * self.threads_per_block

    @property
    def label(self) -> str:
        return self.kernel.name

    def resources(self):
        """Price this launch with the kernel's cost model."""
        return self.kernel.cost_model.resources(self)

    def execute(self) -> None:
        """Run the functional (numpy) implementation.

        Pointer parameters are passed as raw numpy views; scalars pass
        through unchanged.  Called by the simulator at kernel-completion
        time, in dependency order.
        """
        concrete = [
            getattr(a, "kernel_view", a) for a in self.args
        ]
        self.kernel.compute_fn(*concrete)


def timing_only(*args: Any) -> None:
    """The compute function of a timing-only kernel: the simulator
    prices and schedules its launches, and nothing is computed."""


#: Set by the execution context; receives every launch.
LaunchHandler = Callable[[KernelLaunch], None]


class Kernel:
    """A compiled GPU kernel bound to a signature and a cost model."""

    def __init__(
        self,
        name: str,
        signature: Signature,
        compute_fn: Callable[..., None],
        cost_model: CostModel,
        launch_handler: LaunchHandler | None = None,
    ) -> None:
        self.name = name
        self.signature = signature
        self.compute_fn = compute_fn
        self.cost_model = cost_model
        self.launch_handler = launch_handler
        self.launch_count = 0

    def __call__(
        self, grid: int | tuple[int, ...], block: int | tuple[int, ...] = 128
    ) -> "ConfiguredKernel":
        """Configure a launch geometry: ``kernel(blocks, threads)``."""
        grid3 = normalize_dim(grid)
        block3 = normalize_dim(block)
        tpb = _dim_product(block3)
        if tpb > MAX_THREADS_PER_BLOCK:
            raise LaunchError(
                f"{self.name}: {tpb} threads per block exceeds the CUDA"
                f" limit of {MAX_THREADS_PER_BLOCK}"
            )
        return ConfiguredKernel(self, grid3, block3)

    def bind_args(
        self,
        args: tuple[Any, ...],
        grid: Dim = (1, 1, 1),
        block: Dim = (1, 1, 1),
    ) -> KernelLaunch:
        """Validate ``args`` against the signature; package a launch of
        the given normalized geometry (not dispatched)."""
        params = self.signature.parameters
        if len(args) != len(params):
            raise LaunchError(
                f"{self.name}: expected {len(params)} arguments"
                f" ({self.signature.raw}), got {len(args)}"
            )
        array_args: list[tuple[DeviceArray, AccessKind]] = []
        scalar_args: list[Any] = []
        for arg, param in zip(args, params):
            if param.is_pointer:
                # Duck-typed: anything exposing the device-pointer
                # protocol of DeviceArray binds to a pointer.
                if not (
                    hasattr(arg, "kernel_view") and hasattr(arg, "nbytes")
                ):
                    raise LaunchError(
                        f"{self.name}: parameter {param.name!r} is a"
                        f" pointer; got {type(arg).__name__}"
                    )
                array_args.append((arg, param.access))
            else:
                if isinstance(arg, DeviceArray):
                    raise LaunchError(
                        f"{self.name}: parameter {param.name!r} is a"
                        f" scalar; got a DeviceArray"
                    )
                scalar_args.append(arg)
        return KernelLaunch(
            kernel=self,
            grid=grid,
            block=block,
            args=tuple(args),
            array_args=tuple(array_args),
            scalar_args=tuple(scalar_args),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name}({self.signature.raw})>"


@dataclass(frozen=True)
class ConfiguredKernel:
    """A kernel with its launch geometry fixed; calling it launches."""

    kernel: Kernel
    grid: Dim
    block: Dim

    def bind(self, *args: Any) -> KernelLaunch:
        """The launch of ``args`` at this geometry, not yet dispatched."""
        return self.kernel.bind_args(args, self.grid, self.block)

    def __call__(self, *args: Any) -> KernelLaunch:
        launch = self.bind(*args)
        self.kernel.launch_count += 1
        if self.kernel.launch_handler is None:
            raise LaunchError(
                f"kernel {self.kernel.name} is not attached to a runtime"
            )
        self.kernel.launch_handler(launch)
        return launch
