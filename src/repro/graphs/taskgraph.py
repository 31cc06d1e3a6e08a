"""Task graphs: one computation declared as data.

A :class:`TaskGraph` is a *declarative*, runtime-independent description
of one host program: the arrays it allocates (with optional host input
data), the kernels it builds and its launches in program order.  It is
exactly the information a GrCUDA host program conveys through the
Fig. 4 API, reified as data.  Every suite benchmark declares one
iteration this way, and the serving layer queues, batches, prices and
replays the same type per request; dependency inference, stream
assignment and transfers all derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.kernels.profile import CostModel
from repro.kernels.signature import parse_signature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.kernel import Kernel, KernelLaunch


def _captured(value: object) -> object:
    """A closure cell's share of a kernel identity (see
    :attr:`KernelDecl.identity`)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return id(value)


@dataclass(frozen=True)
class ArrayDecl:
    """One array of a task graph, with optional host input data."""

    name: str
    shape: tuple[int, ...] | int
    dtype: Any = np.float32
    #: host data copied in before the first launch (None -> zeros, the
    #: fresh-UM default).  Read-only: executors read it in place, and
    #: it may be a :func:`~repro.memory.array.zero_block`, so copy it
    #: before writing.
    init: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        shape = (self.shape,) if isinstance(self.shape, int) else self.shape
        n = 1
        for s in shape:
            n *= s
        return n * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class KernelDecl:
    """One kernel of a task graph: implementation + signature + cost."""

    name: str
    signature: str
    fn: Callable[..., None]
    cost: CostModel

    @property
    def identity(self) -> tuple:
        """Hashable identity used by topology keys and kernel caches.

        A closure also computes with what it captured (HITS kernels
        close over their benchmark's matrices), so its captured values
        join the key: plain values by value, anything else by object
        identity."""
        fn_key: object = getattr(self.fn, "__qualname__", repr(self.fn))
        closure = getattr(self.fn, "__closure__", None)
        if closure:
            captured = tuple(_captured(c.cell_contents) for c in closure)
            fn_key = (fn_key, captured)
        return (self.name, self.signature, fn_key, repr(self.cost))


@dataclass(frozen=True)
class LaunchDecl:
    """One kernel launch in host-program order.

    String entries of ``args`` name graph arrays; everything else passes
    through as a scalar.
    """

    kernel: str
    grid: int | tuple[int, ...]
    block: int | tuple[int, ...]
    args: tuple[Any, ...]

    @property
    def array_names(self) -> list[str]:
        """The arrays the launch passes, in pointer-parameter order."""
        return [a for a in self.args if isinstance(a, str)]

    def resolve(self, arrays: Mapping[str, Any]) -> tuple[Any, ...]:
        """The launch's arguments, each array name replaced by
        ``arrays[name]``."""
        return tuple(arrays[a] if isinstance(a, str) else a for a in self.args)

    def bind(
        self, kernel: "Kernel", arrays: Mapping[str, Any]
    ) -> "KernelLaunch":
        """The bound launch of ``kernel`` this declares over ``arrays``:
        geometry normalized, arguments resolved and validated, not yet
        dispatched.  A host program that repeats the launch binds it
        once and dispatches the same launch each time."""
        return kernel(self.grid, self.block).bind(*self.resolve(arrays))


@dataclass
class TaskGraph:
    """A complete, self-contained task-graph description."""

    name: str
    arrays: dict[str, ArrayDecl]
    kernels: tuple[KernelDecl, ...]
    launches: tuple[LaunchDecl, ...]
    #: arrays read back to the host when the graph completes; defaults
    #: (in __post_init__) to every array some launch writes
    outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.launches:
            raise ValueError(f"task graph {self.name!r} has no launches")
        known = set(self.arrays)
        kernel_names = {k.name for k in self.kernels}
        for launch in self.launches:
            if launch.kernel not in kernel_names:
                raise ValueError(
                    f"launch references unknown kernel {launch.kernel!r}"
                )
            for arg in launch.args:
                if isinstance(arg, str) and arg not in known:
                    raise ValueError(
                        f"launch of {launch.kernel!r} references unknown"
                        f" array {arg!r}"
                    )
        if not self.outputs:
            self.outputs = tuple(sorted(self.written_arrays()))

    # -- derived structure ------------------------------------------------

    def kernel_by_name(self, name: str) -> KernelDecl:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    def signature_accesses(self) -> dict[str, list]:
        """kernel name -> pointer-parameter access kinds, in order."""
        return {
            k.name: [
                p.access for p in parse_signature(k.signature) if p.is_pointer
            ]
            for k in self.kernels
        }

    def written_arrays(self) -> frozenset[str]:
        """Arrays written by at least one launch (per the signatures).

        Memoized like :meth:`topology_key`: replay and readback consult
        it per request."""
        cached = self.__dict__.get("_written_arrays")
        if cached is not None:
            return cached
        accesses = self.signature_accesses()
        written: set[str] = set()
        for launch in self.launches:
            for name, access in zip(
                launch.array_names, accesses[launch.kernel]
            ):
                if access.writes:
                    written.add(name)
        frozen = self.__dict__["_written_arrays"] = frozenset(written)
        return frozen

    @property
    def total_bytes(self) -> int:
        """UM footprint of the graph (the Table-I quantity)."""
        return sum(a.nbytes for a in self.arrays.values())

    @property
    def input_bytes(self) -> int:
        """Host input data staged in before the first launch — the
        bytes a cross-node placement must move over the cluster
        network before the graph can start."""
        return sum(
            a.nbytes for a in self.arrays.values() if a.init is not None
        )

    @property
    def output_bytes(self) -> int:
        """Bytes read back to the submitting host when the graph
        completes (the cluster-network return leg)."""
        return sum(self.arrays[name].nbytes for name in self.outputs)

    def topology_key(self) -> tuple:
        """Hashable structural identity of the graph.

        Two graphs with equal keys launch the *same kernels with the same
        signatures, geometries and argument wiring on same-shaped
        arrays* — they differ at most in array contents.  Such graphs
        share one capture plan and may be coalesced into one batch.

        Memoized: the serving loop evaluates keys per queued request per
        batch, and graphs are immutable once submitted.
        """
        cached = self.__dict__.get("_topology_key")
        if cached is not None:
            return cached
        key = (
            tuple(
                (n, a.shape if isinstance(a.shape, tuple) else (a.shape,),
                 str(np.dtype(a.dtype)))
                for n, a in sorted(self.arrays.items())
            ),
            tuple(k.identity for k in self.kernels),
            tuple(
                (d.kernel, d.grid, d.block, d.args) for d in self.launches
            ),
            self.outputs,
        )
        self.__dict__["_topology_key"] = key
        return key
