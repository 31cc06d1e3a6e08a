"""Kernel cost models.

Each kernel carries a cost model that converts a concrete launch (grid,
block, argument sizes) into a :class:`KernelResourceRequest` consumed by
the simulator's roofline/contention model.  Workloads parameterize these
per kernel; tests pin them against hand-computed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.gpusim.ops import KernelResourceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.kernel import KernelLaunch


class CostModel(Protocol):
    """Anything that prices a kernel launch."""

    def resources(self, launch: "KernelLaunch") -> KernelResourceRequest:
        """Resource footprint of the launch (fault_bytes left at 0; the
        execution context fills it in from coherence state)."""
        ...


@dataclass(frozen=True)
class LinearCostModel:
    """Costs linear in a work-item count.

    ``items_fn`` extracts the item count from the launch; by default it is
    the element count of the largest array argument, which matches the
    elementwise kernels that dominate the suite.  Per-item coefficients
    then give FLOPs, DRAM traffic, L2 traffic and instructions.

    A fixed ``*_base`` term covers launch-constant work (e.g. a reduction
    tree's final passes).

    The price of a launch depends only on its item count and total
    thread count, so each such pair is priced once per model and every
    later launch of that size gets the same (immutable) request.  The
    memo is not part of the model's ``repr``, ``==`` or ``hash``.
    """

    flops_per_item: float = 0.0
    dram_bytes_per_item: float = 0.0
    l2_bytes_per_item: float = 0.0
    instructions_per_item: float = 10.0
    flops_base: float = 0.0
    dram_bytes_base: float = 0.0
    fp64: bool = False
    sm_fraction_cap: float = 1.0
    items_fn: Callable[["KernelLaunch"], float] | None = None
    _priced: dict[tuple[float, int], KernelResourceRequest] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _items(self, launch: "KernelLaunch") -> float:
        if self.items_fn is not None:
            return float(self.items_fn(launch))
        sizes = [a.size for a, _ in launch.array_args]
        if not sizes:
            return float(launch.threads_total)
        return float(max(sizes))

    def resources(self, launch: "KernelLaunch") -> KernelResourceRequest:
        n = self._items(launch)
        threads = launch.threads_total
        request = self._priced.get((n, threads))
        if request is None:
            request = self._priced[n, threads] = KernelResourceRequest(
                flops=self.flops_per_item * n + self.flops_base,
                fp64=self.fp64,
                dram_bytes=self.dram_bytes_per_item * n + self.dram_bytes_base,
                l2_bytes=self.l2_bytes_per_item * n,
                instructions=self.instructions_per_item * n,
                threads_total=threads,
                sm_fraction_cap=self.sm_fraction_cap,
            )
        return request


@dataclass(frozen=True)
class FixedCostModel:
    """A launch-size-independent footprint (for tests and micro-kernels)."""

    flops: float = 0.0
    dram_bytes: float = 0.0
    l2_bytes: float = 0.0
    instructions: float = 0.0
    fp64: bool = False

    def resources(self, launch: "KernelLaunch") -> KernelResourceRequest:
        return KernelResourceRequest(
            flops=self.flops,
            fp64=self.fp64,
            dram_bytes=self.dram_bytes,
            l2_bytes=self.l2_bytes,
            instructions=self.instructions,
            threads_total=launch.threads_total,
        )


def combine_resources(
    base: KernelResourceRequest, fault_bytes: float
) -> KernelResourceRequest:
    """Return ``base`` with on-demand migration bytes attached.

    The execution context calls this when a kernel runs without its
    inputs resident and without prefetching (the page-fault path).
    """
    return KernelResourceRequest(
        flops=base.flops,
        fp64=base.fp64,
        dram_bytes=base.dram_bytes,
        l2_bytes=base.l2_bytes,
        instructions=base.instructions,
        threads_total=base.threads_total,
        fault_bytes=fault_bytes,
        sm_fraction_cap=base.sm_fraction_cap,
    )
