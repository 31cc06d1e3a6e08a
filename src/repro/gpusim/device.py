"""Simulated GPU device: spec + memory accounting + contention model."""

from __future__ import annotations

from repro.errors import OutOfMemoryError
from repro.gpusim.contention import ContentionModel
from repro.gpusim.specs import GPUSpec


class Device:
    """One simulated GPU.

    Tracks device-memory allocations (Table I sizes workloads against the
    capacity of each GPU) and owns the
    :class:`~repro.gpusim.contention.ContentionModel` that prices its
    running operations.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self.contention = ContentionModel(spec)
        self.allocated_bytes: int = 0
        self.peak_allocated_bytes: int = 0
        self._allocations: dict[int, int] = {}
        self._alloc_counter = 0

    # -- memory accounting ------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of device memory; returns an allocation id.

        Raises
        ------
        OutOfMemoryError
            If the allocation would exceed device capacity.  Unified
            memory on real Pascal+ GPUs can oversubscribe, but the paper
            sizes every input to fit, so the simulator treats
            oversubscription as a configuration error.
        """
        if nbytes < 0:
            raise ValueError("allocation size must be >= 0")
        if self.allocated_bytes + nbytes > self.spec.device_memory_bytes:
            raise OutOfMemoryError(
                f"{self.spec.name}: allocating {nbytes / 1e9:.2f} GB on top"
                f" of {self.allocated_bytes / 1e9:.2f} GB exceeds"
                f" {self.spec.device_memory_gb:.1f} GB device memory"
            )
        self._alloc_counter += 1
        handle = self._alloc_counter
        self._allocations[handle] = nbytes
        self.allocated_bytes += nbytes
        self.peak_allocated_bytes = max(
            self.peak_allocated_bytes, self.allocated_bytes
        )
        return handle

    def free(self, handle: int) -> None:
        nbytes = self._allocations.pop(handle, None)
        if nbytes is None:
            raise KeyError(f"unknown allocation handle {handle}")
        self.allocated_bytes -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Device {self.spec.name}"
            f" {self.allocated_bytes / 1e9:.2f}/{self.spec.device_memory_gb:.1f} GB>"
        )
