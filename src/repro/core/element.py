"""Computational elements: the vertices of the computation DAG.

Section IV-A: "Vertices of the DAG are computational elements: GPU
kernels, memory accesses by the CPU host program to GrCUDA UM-backed
arrays, and pre-registered or user-defined library functions."

Each element tracks its *dependency set* — initially all of its array
arguments; an argument is removed when a later computation writes it,
after which the element can no longer introduce dependencies through that
argument (Fig. 3 semantics).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Sequence

from repro.memory.array import AccessKind, DeviceArray, merged_access_kinds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.stream import SimEvent, SimStream
    from repro.kernels.kernel import KernelLaunch

_element_counter = itertools.count()


class ComputationalElement:
    """Base class for DAG vertices.

    Attributes
    ----------
    accesses:
        ``(array, access-kind)`` pairs — how this element touches each of
        its array arguments.  Scalars never appear (passed by copy).
    dependency_set:
        ``array-id -> access-kind`` map of arguments that can still
        introduce dependencies on this element.
    stream:
        Stream the element was scheduled on (None until scheduled, and
        for CPU accesses, which run on the host).
    finish_event:
        Event recorded right after the element's operations; later
        elements on other streams synchronize on it.
    children_count:
        Number of elements scheduled so far that depend on this one; the
        stream manager gives the parent's stream to the *first* child.

    The dependency set is mutated only by :class:`repro.core.dag.ComputationDAG`,
    which mirrors every entry into its per-array writer/reader indexes;
    long programs keep thousands of elements alive in those indexes, so
    the hierarchy is ``__slots__``-ed.
    """

    __slots__ = (
        "element_id",
        "label",
        "accesses",
        "dependency_set",
        "stream",
        "finish_event",
        "children_count",
        "active",
    )

    def __init__(
        self,
        accesses: Sequence[tuple[DeviceArray, AccessKind]],
        label: str = "",
        kinds: dict[int, AccessKind] | None = None,
    ) -> None:
        self.element_id: int = next(_element_counter)
        self.label = label or f"elem{self.element_id}"
        self.accesses: tuple[tuple[DeviceArray, AccessKind], ...] = tuple(
            accesses
        )
        # Duplicate arrays (e.g. K(X, X)) merge; ``kinds`` is that merge
        # when the caller keeps it (a bound launch does), and the set is
        # this element's own copy.
        self.dependency_set: dict[int, AccessKind] = (
            merged_access_kinds(accesses) if kinds is None else dict(kinds)
        )
        self.stream: "SimStream | None" = None
        self.finish_event: "SimEvent | None" = None
        self.children_count: int = 0
        self.active: bool = True

    # -- dependency-set queries (Fig. 3) -----------------------------------

    def uses(self, array: DeviceArray) -> AccessKind | None:
        """Access kind through which ``array`` is still dependency-visible."""
        return self.dependency_set.get(id(array))

    def writes_in_set(self, array: DeviceArray) -> bool:
        kind = self.uses(array)
        return kind is not None and kind.writes

    def reads_only_in_set(self, array: DeviceArray) -> bool:
        return self.uses(array) is AccessKind.READ

    def remove_from_set(self, array: DeviceArray) -> None:
        self.dependency_set.pop(id(array), None)

    @property
    def dependency_set_empty(self) -> bool:
        return not self.dependency_set

    # -- classification ------------------------------------------------------

    @property
    def is_kernel(self) -> bool:
        return isinstance(self, KernelElement)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {id(a): a.name for a, _ in self.accesses}
        deps = {names[a]: k.value for a, k in self.dependency_set.items()}
        return f"<{type(self).__name__} {self.label} dep_set={deps}>"


class KernelElement(ComputationalElement):
    """A GPU kernel invocation."""

    __slots__ = ("launch",)

    def __init__(self, launch: "KernelLaunch") -> None:
        super().__init__(
            launch.array_args, launch.label, launch.access_kinds()
        )
        self.launch = launch


class ArrayAccessElement(ComputationalElement):
    """A CPU access to a UM array that conflicts with in-flight GPU work.

    Section IV-A: accesses that introduce no dependency are executed
    immediately *without* becoming DAG elements; the execution context
    implements that fast path, so every constructed ArrayAccessElement
    really is a DAG vertex.
    """

    __slots__ = ("array", "kind", "touched_bytes")

    def __init__(
        self, array: DeviceArray, kind: AccessKind, touched_bytes: int
    ) -> None:
        super().__init__([(array, kind)], label=f"cpu:{array.name}")
        self.array = array
        self.kind = kind
        self.touched_bytes = touched_bytes


class LibraryCallElement(ComputationalElement):
    """A pre-registered host library function (e.g. RAPIDS).

    Stream-aware libraries expose the execution stream in their API and
    can be scheduled asynchronously like kernels; others must run
    synchronously to guarantee correctness (section IV-A).
    """

    __slots__ = ("fn", "stream_aware", "cost_seconds")

    def __init__(
        self,
        fn: Callable[..., None],
        accesses: list[tuple[DeviceArray, AccessKind]],
        label: str,
        stream_aware: bool,
        cost_seconds: float = 0.0,
    ) -> None:
        super().__init__(accesses, label=label)
        self.fn = fn
        self.stream_aware = stream_aware
        self.cost_seconds = cost_seconds
