"""Launchable kernels, GrCUDA-style.

The host-facing API reproduces the paper's Fig. 4::

    K1 = build_kernel(K1_CODE, "square", "ptr, sint32")
    K1(NUM_BLOCKS, NUM_THREADS)(X, N)

``K1`` is a :class:`Kernel`; calling it with a launch geometry yields a
:class:`ConfiguredKernel`; calling *that* with arguments produces a
:class:`KernelLaunch` which is handed to the execution context (the
scheduler) — the host never blocks.  A loop that repeats a launch binds
it once (``K1(NUM_BLOCKS, NUM_THREADS).bind(X, N)``) and hands the same
launch over on every iteration (:meth:`KernelLaunch.dispatch`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.errors import LaunchError
from repro.gpusim.ops import KernelResourceRequest
from repro.gpusim.timeline import same_type_eq
from repro.kernels.profile import CostModel
from repro.kernels.signature import Signature
from repro.memory.array import AccessKind, DeviceArray, merged_access_kinds

#: CUDA limits: threads per block in [1, 1024]; paper sweeps 32..1024.
MAX_THREADS_PER_BLOCK = 1024

Dim = tuple[int, int, int]

_INTEGER = (int, np.integer)


def _is_integer(value: Any) -> bool:
    """An int or numpy integer, but not a bool (``True`` is an ``int``)."""
    return isinstance(value, _INTEGER) and not isinstance(value, bool)


def normalize_dim(dim: int | tuple[int, ...] | list[int]) -> Dim:
    """Normalize an integer, or a tuple or list of 1-3 integers, to a
    3-D geometry tuple."""
    if _is_integer(dim):
        values: tuple[int, ...] = (int(dim),)
    elif isinstance(dim, (tuple, list)) and all(
        _is_integer(v) for v in dim
    ):
        values = tuple(int(v) for v in dim)
    else:
        raise LaunchError(
            "geometry must be an integer or a tuple or list of 1-3"
            f" integers, got {dim!r}"
        )
    if not 1 <= len(values) <= 3:
        raise LaunchError(f"geometry must have 1-3 dimensions, got {values}")
    if any(v < 1 for v in values):
        raise LaunchError(f"geometry dimensions must be >= 1, got {values}")
    return (values + (1, 1))[:3]  # type: ignore[return-value]


def _dim_product(dim: Dim) -> int:
    return dim[0] * dim[1] * dim[2]


def size_bucket(data_bytes: float) -> int:
    """Log2 bucket of a launch's data size.

    Executions whose inputs differ by less than 2x land in the same or
    an adjacent bucket; the block-size recommender searches nearby
    buckets so a slightly larger input can still reuse evidence.
    """
    return max(0, int(math.log2(max(data_bytes, 1.0))))


class _LaunchFields(NamedTuple):
    """The read-only fields of a :class:`KernelLaunch`."""

    kernel: "Kernel"
    grid: Dim
    block: Dim
    args: tuple[Any, ...]
    array_args: tuple[tuple[DeviceArray, AccessKind], ...]
    scalar_args: tuple[Any, ...]


class KernelLaunch(_LaunchFields):
    """One fully-specified kernel invocation, ready for scheduling.

    A launch is read-only and may be dispatched many times: a host
    program's loop binds its launches once and dispatches each on every
    iteration.  What a submission derives from the launch alone is kept
    on the launch, so it lives exactly as long as the launch: its label
    and geometry products (set at construction), and, built on first
    use, its price (:meth:`resources`), the history record's
    :attr:`data_bytes` and stats key (:attr:`history_key`), the merged
    :meth:`access_kinds` of its array arguments and the race detector's
    per-device :meth:`tokens`.  Arrays keep their size, name and copy
    tokens for life, so the kept values never go stale.
    """

    __eq__ = same_type_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    # The launch facts, until first use (then instance attributes).
    _resources: KernelResourceRequest | None = None
    _data_bytes: float | None = None
    _history_key: tuple[str, int, int] | None = None
    _access_kinds: dict[int, AccessKind] | None = None
    _tokens: dict[int, tuple[tuple, tuple, tuple]] | None = None

    def __new__(
        cls,
        kernel: "Kernel",
        grid: Dim,
        block: Dim,
        args: tuple[Any, ...],
        array_args: tuple[tuple[DeviceArray, AccessKind], ...],
        scalar_args: tuple[Any, ...],
    ) -> "KernelLaunch":
        self = tuple.__new__(
            cls, (kernel, grid, block, args, array_args, scalar_args)
        )
        self.label = kernel.name
        self.threads_per_block = _dim_product(block)
        self.blocks = _dim_product(grid)
        self.threads_total = self.blocks * self.threads_per_block
        return self

    @classmethod
    def _make(cls, iterable) -> "KernelLaunch":
        # Through __new__, so that ``_replace`` sets the facts too.
        return cls(*iterable)

    @property
    def data_bytes(self) -> float:
        """Bytes of every array argument (the size a
        :class:`~repro.core.history.KernelExecutionRecord` reports)."""
        found = self._data_bytes
        if found is None:
            found = self._data_bytes = float(
                sum(a.nbytes for a, _ in self.array_args)
            )
        return found

    @property
    def history_key(self) -> tuple[str, int, int]:
        """The :class:`~repro.core.history.KernelHistory` statistics
        key of this launch's executions: kernel name, threads per block
        and the :func:`size_bucket` of :attr:`data_bytes`."""
        found = self._history_key
        if found is None:
            found = self._history_key = (
                self.label, self.threads_per_block,
                size_bucket(self.data_bytes),
            )
        return found

    def access_kinds(self) -> dict[int, AccessKind]:
        """``id(array) -> access kind`` over the distinct array
        arguments (:func:`~repro.memory.array.merged_access_kinds`),
        built on first use and shared by every submission: a caller
        that mutates it works on a copy."""
        found = self._access_kinds
        if found is None:
            found = self._access_kinds = merged_access_kinds(
                self.array_args
            )
        return found

    def tokens(self, device_index: int) -> tuple[tuple, tuple, tuple]:
        """``(reads, writes, array_names)``: the race detector's
        annotations of this launch on device ``device_index``.

        Tokens are per *copy* — (array, device) — so a peer-to-peer copy
        reading GPU 0's replica does not conflict with a kernel also
        reading it, but does conflict with anything touching the
        destination replica.  The names are (token, name) pairs.  Built
        on the launch's first submission to the device; every later one
        gets the same tuples, which the collector has untracked by then.
        """
        per_device = self._tokens
        if per_device is None:
            per_device = self._tokens = {}
        found = per_device.get(device_index)
        if found is None:
            reads = []
            writes = []
            names = {}
            for array, access in self.array_args:
                key = array.copy_keys[device_index]
                if access.reads:
                    reads.append(key)
                if access.writes:
                    writes.append(key)
                names[key] = array.name
            found = per_device[device_index] = (
                tuple(reads), tuple(writes), tuple(names.items())
            )
        return found

    def dispatch(self) -> None:
        """Hand this launch to its kernel's runtime.

        The one dispatch path: a configured kernel's call and a
        re-dispatched bound launch alike go through here and count in
        :attr:`Kernel.launch_count`."""
        kernel = self.kernel
        kernel.launch_count += 1
        if kernel.launch_handler is None:
            raise LaunchError(
                f"kernel {kernel.name} is not attached to a runtime"
            )
        kernel.launch_handler(self)

    def resources(self) -> KernelResourceRequest:
        """This launch's price under its kernel's cost model, priced on
        first use and kept; an invalid price fails the launch, naming
        the kernel."""
        found = self._resources
        if found is None:
            try:
                found = self._resources = self.kernel.cost_model.resources(
                    self
                )
            except ValueError as exc:
                raise LaunchError(f"{self.kernel.name}: {exc}") from exc
        return found

    @property
    def body(self) -> Callable[[], None] | None:
        """What the simulator runs when the launch completes: its
        :meth:`execute`, or None for a timing-only kernel, which
        computes nothing."""
        if self.kernel.compute_fn is timing_only:
            return None
        return self.execute

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
        #: per parameter: (is_pointer, access, name), read by every bind
        self._params = tuple(
            (p.is_pointer, p.access, p.name) for p in signature.parameters
        )

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
        params = self._params
        if len(args) != len(params):
            raise LaunchError(
                f"{self.name}: expected {len(params)} arguments"
                f" ({self.signature.raw}), got {len(args)}"
            )
        array_args: list[tuple[DeviceArray, AccessKind]] = []
        scalar_args: list[Any] = []
        for arg, (is_pointer, access, name) in zip(args, params):
            if is_pointer:
                # Duck-typed: anything exposing the device-pointer
                # protocol of DeviceArray binds to a pointer.
                if not (
                    hasattr(arg, "kernel_view") and hasattr(arg, "nbytes")
                ):
                    raise LaunchError(
                        f"{self.name}: parameter {name!r} is a"
                        f" pointer; got {type(arg).__name__}"
                    )
                array_args.append((arg, access))
            else:
                if isinstance(arg, DeviceArray):
                    raise LaunchError(
                        f"{self.name}: parameter {name!r} is a"
                        f" scalar; got a DeviceArray"
                    )
                scalar_args.append(arg)
        return KernelLaunch(
            self, grid, block, tuple(args), tuple(array_args),
            tuple(scalar_args),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name}({self.signature.raw})>"


class ConfiguredKernel(NamedTuple):
    """A kernel with its launch geometry fixed; calling it launches."""

    kernel: Kernel
    grid: Dim
    block: Dim

    __eq__ = same_type_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    def bind(self, *args: Any) -> KernelLaunch:
        """The launch of ``args`` at this geometry, not yet dispatched."""
        return self.kernel.bind_args(args, self.grid, self.block)

    def __call__(self, *args: Any) -> KernelLaunch:
        launch = self.bind(*args)
        launch.dispatch()
        return launch
