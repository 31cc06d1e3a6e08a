"""Unified-memory device arrays.

A :class:`DeviceArray` is the GrCUDA managed array: a numpy buffer that
the host program indexes like a normal array while the runtime intercepts
every access to (a) keep the coherence state machine honest and (b) turn
accesses that conflict with in-flight GPU work into computational
elements (section IV-A: "memory accesses by the CPU host program to
GrCUDA UM-backed arrays" are DAG vertices).

Values live in one numpy buffer — the host and device "copies" exist
only in the location set used for timing.  This keeps functional results
exact while the simulator charges realistic migration costs.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Sequence

import numpy as np

from repro.gpusim.device import Device


class AccessKind(enum.Enum):
    """How a computation touches an array."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"

    def __init__(self, value: str) -> None:
        # Plain member attributes: every scheduled access asks these,
        # and an attribute is an order of magnitude cheaper than a
        # property comparing enum members.
        self.reads = value != "write"
        self.writes = value != "read"


#: Signature of the CPU-access hook installed by the execution context.
#: Called *before* the numpy access happens.
AccessHook = Callable[["DeviceArray", AccessKind, int], None]


def zero_block(shape: tuple[int, ...], dtype: Any) -> np.ndarray:
    """A read-only all-zeros array of ``shape`` backed by one element:
    host data nobody wrote, at one element's size whatever its shape."""
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


def read_only_view(data: np.ndarray, dtype: Any) -> np.ndarray:
    """``data`` as ``dtype`` (converted only on a mismatch), through a
    view that cannot write it."""
    view = np.asarray(data, dtype=dtype).view()
    view.flags.writeable = False
    return view


def is_zero_block(a: np.ndarray) -> bool:
    """Whether every element of ``a`` is one all-zero-bits element."""
    if any(a.strides):
        return False
    return a.size == 0 or not any(a[(0,) * a.ndim].tobytes())


class DeviceArray:
    """A unified-memory array visible to the host and to every GPU of
    its session.

    Data location is a *location set*: the host and any subset of the
    devices may hold a valid copy.  A GPU read adds its device, a GPU
    write leaves its device as the only valid copy, a host write leaves
    the host as the only valid copy.  A single GPU is the one-device
    case.  Fresh UM memory is zeroed, so it starts valid everywhere.

    ``devices`` are the session's devices; the array allocates its
    bytes on each.  An array made outside a session (placeholders,
    staging buffers) allocates nothing and counts as one device's.
    ``buffer`` adopts existing host data (same shape and dtype) as the
    array's storage instead of allocating zeros.
    """

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float32,
        devices: Sequence[Device] = (),
        name: str = "",
        materialize: bool = True,
        buffer: np.ndarray | None = None,
    ) -> None:
        self._shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self._dtype = np.dtype(dtype)
        self.materialized = materialize
        if buffer is None:
            # A virtual (``materialize=False``) array keeps its declared
            # geometry, so every transfer and coherence cost stays
            # exact, without the host RAM paper scales would need.
            buffer = np.zeros(self._shape if materialize else 1, self._dtype)
        elif buffer.shape != self._shape or buffer.dtype != self._dtype:
            raise ValueError(
                f"cannot adopt a {buffer.dtype}{list(buffer.shape)} buffer"
                f" as a {self._dtype}{list(self._shape)} array"
            )
        self._data = buffer
        self.name = name or f"arr{id(self) & 0xFFFF:x}"
        self.devices = tuple(devices)
        copies = range(max(1, len(self.devices)))
        self.host_valid = True
        self.valid_on: set[int] = set(copies)
        #: per device, the race-detector token of the array's copy
        #: there (built once: every op touching the copy shares it)
        self.copy_keys = tuple((id(self), d) for d in copies)
        self._alloc_handles = [
            dev.allocate(self.nbytes) for dev in self.devices
        ]
        self._on_cpu_access: AccessHook | None = None
        self.freed = False

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def nbytes(self) -> int:
        return self.size * self._dtype.itemsize

    @property
    def size(self) -> int:
        n = 1
        for s in self._shape:
            n *= s
        return n

    @property
    def itemsize(self) -> int:
        return self._dtype.itemsize

    def __len__(self) -> int:
        return self._shape[0] if self._shape else 0

    def _check_alive(self) -> None:
        if self.freed:
            raise ValueError(f"array {self.name} was freed")

    # -- host access (hooked) ------------------------------------------------

    def _touched_bytes(self, key: Any) -> int:
        """Rough byte count an indexing expression touches."""
        if isinstance(key, (int, np.integer)):
            rest = 1
            for s in self._shape[1:]:
                rest *= s
            return rest * self.itemsize
        if isinstance(key, slice) and self._shape:
            count = len(range(*key.indices(self._shape[0])))
            rest = 1
            for s in self._shape[1:]:
                rest *= s
            return count * rest * self.itemsize
        if not self.materialized:
            return self.nbytes  # conservative for exotic keys
        try:
            probe = np.empty(self.shape, dtype=np.bool_)[key]
        except Exception:
            return self.nbytes
        if isinstance(probe, np.ndarray):
            return int(probe.size) * self.itemsize
        return self.itemsize

    def _selected_shape(self, key: Any) -> tuple[int, ...]:
        """Shape of a slice selection on a virtual array (cheap cases)."""
        if isinstance(key, slice) and self._shape:
            count = len(range(*key.indices(self._shape[0])))
            return (count, *self._shape[1:])
        return (0,)

    def __getitem__(self, key: Any) -> Any:
        self._check_alive()
        self._notify(AccessKind.READ, self._touched_bytes(key))
        if not self.materialized:
            if isinstance(key, (int, np.integer)):
                return np.zeros(1, dtype=self.dtype)[0]
            return np.zeros(self._selected_shape(key), dtype=self.dtype)
        return self._data[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._check_alive()
        self._notify(AccessKind.WRITE, self._touched_bytes(key))
        if self.materialized:
            self._data[key] = value

    def fill(self, value: Any) -> None:
        """Host-side bulk initialization."""
        self._check_alive()
        self._notify(AccessKind.WRITE, self.nbytes)
        if self.materialized:
            self._data.fill(value)

    def copy_from_host(self, source: np.ndarray) -> None:
        """Host-side bulk write from a numpy array (shape-checked)."""
        self._check_alive()
        src = np.asarray(source, dtype=self.dtype)
        if src.shape != self.shape:
            raise ValueError(
                f"shape mismatch: array {self.shape}, source {src.shape}"
            )
        self._notify(AccessKind.WRITE, self.nbytes)
        if self.materialized:
            np.copyto(self._data, src)

    def touch_write_full(self) -> None:
        """Announce a full-array host overwrite without supplying data.

        Timing-equivalent to :meth:`copy_from_host`; used by timing-only
        sweeps on virtual arrays where generating gigabytes of input
        values would be wasted work.
        """
        self._check_alive()
        self._notify(AccessKind.WRITE, self.nbytes)

    def touch_read_full(self) -> None:
        """Announce a full-array host read without reading data:
        timing-equivalent to :meth:`to_numpy`."""
        self._check_alive()
        self._notify(AccessKind.READ, self.nbytes)

    def to_numpy(self) -> np.ndarray:
        """Host-side bulk read; returns a copy."""
        self._check_alive()
        self._notify(AccessKind.READ, self.nbytes)
        if not self.materialized:
            return np.zeros(self.shape, dtype=self.dtype)
        return self._data.copy()

    # -- unchecked access for kernels -----------------------------------------

    @property
    def kernel_view(self) -> np.ndarray:
        """The raw buffer, for use *inside* kernel compute functions only.

        Kernel compute functions run at simulated-completion time, after
        the scheduler has already ordered them; routing them through the
        CPU-access hook would deadlock (the GPU would wait for itself).
        """
        return self._data

    # -- location set ---------------------------------------------------------

    def resident_on(self, device_index: int) -> bool:
        return device_index in self.valid_on

    def migration_source(self, device_index: int) -> int | None:
        """Cheapest source for making ``device_index`` valid: another
        device (peer-to-peer copy), ``-1`` for the host, or None if
        already resident."""
        return migration_source(
            self.valid_on, self.host_valid, device_index, self.name
        )

    def migration_bytes(self, device_index: int) -> int:
        """Bytes to move before a kernel on ``device_index`` reads this."""
        return 0 if self.resident_on(device_index) else self.nbytes

    def mark_read(self, device_index: int) -> None:
        """Device obtained a valid copy (after its migration landed)."""
        self.valid_on.add(device_index)

    def mark_write(self, device_index: int) -> None:
        """Device wrote the array: every other copy is stale."""
        self.valid_on = {device_index}
        self.host_valid = False

    def mark_cpu_read(self) -> None:
        self.host_valid = True

    def mark_cpu_write(self) -> None:
        self.host_valid = True
        self.valid_on.clear()

    # -- host access (hooked) ------------------------------------------------

    def set_access_hook(self, hook: AccessHook | None) -> None:
        """Route the array's host accesses through an execution context."""
        self._on_cpu_access = hook

    def _notify(self, kind: AccessKind, touched: int) -> None:
        """Declare an imminent host access to the execution context.

        Without a context attached no time is charged and the
        location-set transition applies directly, so a detached array
        stays coherent."""
        if self._on_cpu_access is not None:
            self._on_cpu_access(self, kind, touched)
            return
        if kind.reads:
            self.mark_cpu_read()
        if kind.writes:
            self.mark_cpu_write()

    # -- lifecycle ----------------------------------------------------------------

    def free(self) -> None:
        """Release the per-device allocations.  Idempotent."""
        if self.freed:
            return
        for dev, handle in zip(self.devices, self._alloc_handles):
            dev.free(handle)
        self._alloc_handles = []
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = ["host"] if self.host_valid else []
        where += [f"gpu{i}" for i in sorted(self.valid_on)]
        return (
            f"<DeviceArray {self.name} {self._dtype}{list(self._shape)}"
            f" valid on {'+'.join(where) or 'nowhere'}>"
        )


def migration_source(
    valid_on: set[int], host_valid: bool, device_index: int, name: str
) -> int | None:
    """Cheapest source for making ``device_index`` valid given a
    location set: the lowest-numbered device holding a copy, ``-1`` for
    the host, or None if ``device_index`` already holds one."""
    if device_index in valid_on:
        return None
    if valid_on:
        return min(valid_on)
    assert host_valid, f"{name} lost all copies"
    return -1
