"""The computation DAG with dependency-set inference.

This is the heart of the paper (section IV-A, Fig. 3).  The DAG is built
incrementally at run time: the scheduler never sees the whole program,
only the current *frontier* of active computations.  Dependencies are
inferred from argument usage:

* a computation that **reads** an argument depends on the active
  computation that holds the argument *writable* in its dependency set
  (the last writer); the writer's set is **not** updated, so further
  readers also attach to the writer directly and run concurrently
  (Fig. 3 A and C);
* a computation that **writes** an argument depends on all active
  *readers* of that argument if any exist (write-after-read
  anti-dependencies, Fig. 3 B) — otherwise on the last writer
  (write-after-write); either way the argument is then removed from
  every previous holder's dependency set ("all dependency sets will be
  updated");
* an element whose dependency set empties can no longer introduce
  dependencies and leaves the frontier.

Provider lookup is *indexed*: per-array ``last writer`` and ``readers``
maps mirror the frontier's dependency sets, so inferring one argument's
dependencies costs O(degree) — the number of elements actually holding
that array — instead of O(frontier).  The frozen scan-based
implementation lives in ``tests/core/reference_dag.py`` and property
tests assert equivalence over randomized access sequences.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.element import ComputationalElement
from repro.gpusim.timeline import same_type_eq
from repro.memory.array import DeviceArray


class DependencyEdge(NamedTuple):
    """One inferred data dependency, labelled with the array that caused
    it (the edge labels of Fig. 2).  Read-only."""

    parent: ComputationalElement
    child: ComputationalElement
    array: DeviceArray

    __eq__ = same_type_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__


class ComputationDAG:
    """Incrementally-built computation DAG.

    ``frontier`` holds the *active* elements — those that can still
    introduce dependencies.  ``vertices``/``edges`` accumulate the full
    history for introspection (Fig. 2-style rendering, tests, metrics);
    the scheduler itself only ever consults the frontier (through the
    per-array indexes).
    """

    def __init__(self) -> None:
        #: active elements, keyed by element id in insertion order (the
        #: same relative order the legacy frontier list maintained)
        self._frontier: dict[int, ComputationalElement] = {}
        self.vertices: list[ComputationalElement] = []
        self.edges: list[DependencyEdge] = []
        #: array id -> the frontier element holding the array *writable*
        #: in its dependency set (at most one active writer, Fig. 3)
        self._writer: dict[int, ComputationalElement] = {}
        #: array id -> frontier elements holding the array read-only,
        #: keyed by element id in insertion order
        self._readers: dict[int, dict[int, ComputationalElement]] = {}
        #: adjacency maps over the accumulated edge history
        self._parent_edges: dict[int, list[DependencyEdge]] = {}
        self._child_edges: dict[int, list[DependencyEdge]] = {}
        #: elements with a finish event, awaiting host-sync deactivation
        self._watched: list[ComputationalElement] = []

    @property
    def frontier(self) -> list[ComputationalElement]:
        return list(self._frontier.values())

    # -- construction ---------------------------------------------------------

    def add(
        self, element: ComputationalElement
    ) -> list[ComputationalElement]:
        """Insert ``element``, inferring its dependencies.

        Returns the (deduplicated, insertion-ordered) parent elements.
        Dependency-set updates follow Fig. 3 exactly; see the module
        docstring for the rules.
        """
        parents: dict[int, ComputationalElement] = {}
        edge_arrays: dict[int, DeviceArray] = {}

        for array, kind in element.accesses:
            if kind.writes:
                found = self._providers_for_write(array)
            else:
                found = self._providers_for_read(array)
            for provider in found:
                if provider.element_id not in parents:
                    parents[provider.element_id] = provider
                    edge_arrays[provider.element_id] = array

        for parent in parents.values():
            parent.children_count += 1
            edge = DependencyEdge(
                parent, element, edge_arrays[parent.element_id]
            )
            self.edges.append(edge)
            self._child_edges.setdefault(parent.element_id, []).append(edge)
            self._parent_edges.setdefault(element.element_id, []).append(edge)

        self.vertices.append(element)
        if not element.dependency_set_empty:
            self._frontier[element.element_id] = element
            for aid, kind in element.dependency_set.items():
                if kind.writes:
                    self._writer[aid] = element
                else:
                    self._readers.setdefault(aid, {})[
                        element.element_id
                    ] = element
        return list(parents.values())

    def _providers_for_read(
        self, array: DeviceArray
    ) -> list[ComputationalElement]:
        """Read dependency: the active last writer of ``array``.

        The writer keeps the argument in its dependency set, so multiple
        readers all depend on the writer directly and may overlap.
        """
        writer = self._writer.get(id(array))
        if writer is not None and writer.active:
            return [writer]
        return []

    def _providers_for_write(
        self, array: DeviceArray
    ) -> list[ComputationalElement]:
        """Write dependency: active readers if any (WAR), else the last
        writer (WAW).  Either way the argument leaves every previous
        holder's dependency set."""
        aid = id(array)
        readers_map = self._readers.get(aid)
        readers = (
            [e for e in readers_map.values() if e.active]
            if readers_map
            else []
        )
        writer = self._writer.get(aid)
        writers = [writer] if writer is not None and writer.active else []
        providers = readers if readers else writers
        for holder in (*readers, *writers):
            holder.remove_from_set(array)
            if holder.dependency_set_empty:
                self._frontier.pop(holder.element_id, None)
        # The argument left every active holder's set: the per-array
        # indexes for it are now empty.
        self._readers.pop(aid, None)
        self._writer.pop(aid, None)
        return providers

    # -- deactivation -----------------------------------------------------------

    def deactivate(self, element: ComputationalElement) -> None:
        """Remove an element from the frontier (the CPU consumed its
        result, section IV-B)."""
        element.active = False
        if self._frontier.pop(element.element_id, None) is not None:
            self._unindex(element)

    def _unindex(self, element: ComputationalElement) -> None:
        """Drop a departing frontier element from the per-array indexes."""
        for aid, kind in element.dependency_set.items():
            if kind.writes:
                if self._writer.get(aid) is element:
                    del self._writer[aid]
            else:
                readers = self._readers.get(aid)
                if readers is not None:
                    readers.pop(element.element_id, None)
                    if not readers:
                        del self._readers[aid]

    def watch_completion(self, element: ComputationalElement) -> None:
        """Register an element whose ``finish_event`` was just assigned,
        so host syncs only visit elements that can actually have
        completed instead of walking the whole frontier."""
        self._watched.append(element)

    def deactivate_completed(self) -> None:
        """Sweep the watched elements whose finish event completed.

        Called after host synchronizations: any element the host has
        (transitively) waited on is complete and no longer needs to be
        considered for dependencies.  Keeping completed elements around
        would stay *correct* (waiting on a completed event is a no-op)
        but wastes scheduling time and holds streams hostage.
        """
        if not self._watched:
            return
        remaining: list[ComputationalElement] = []
        for element in self._watched:
            if element.element_id not in self._frontier:
                continue  # already left the frontier some other way
            event = element.finish_event
            if event is not None and event.complete:
                self.deactivate(element)
            else:
                remaining.append(element)
        self._watched = remaining

    # -- indexed frontier queries ---------------------------------------------

    def active_writers(
        self, array: DeviceArray
    ) -> list[ComputationalElement]:
        """Frontier elements holding ``array`` writable (0 or 1)."""
        writer = self._writer.get(id(array))
        if writer is not None and writer.active:
            return [writer]
        return []

    def active_users(
        self, array: DeviceArray
    ) -> list[ComputationalElement]:
        """Frontier elements holding ``array`` in their dependency set
        through any access kind, in frontier (insertion) order."""
        aid = id(array)
        users: dict[int, ComputationalElement] = {}
        readers = self._readers.get(aid)
        if readers:
            users.update(readers)
        writer = self._writer.get(aid)
        if writer is not None:
            users[writer.element_id] = writer
        return [users[eid] for eid in sorted(users) if users[eid].active]

    # -- introspection ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def parents_of(
        self, element: ComputationalElement
    ) -> list[ComputationalElement]:
        return [
            e.parent
            for e in self._parent_edges.get(element.element_id, ())
        ]

    def children_of(
        self, element: ComputationalElement
    ) -> list[ComputationalElement]:
        return [
            e.child for e in self._child_edges.get(element.element_id, ())
        ]

    def to_networkx(self):
        """Export the accumulated DAG as a :class:`networkx.DiGraph`.

        Vertex attributes: ``label``; edge attributes: ``array`` (name of
        the array causing the dependency).  Used by examples and tests;
        the scheduler never needs it.
        """
        import networkx as nx

        g = nx.DiGraph()
        for v in self.vertices:
            g.add_node(v.element_id, label=v.label)
        for e in self.edges:
            g.add_edge(
                e.parent.element_id,
                e.child.element_id,
                array=e.array.name,
            )
        return g

    def is_acyclic(self) -> bool:
        """The construction can only add edges from old to new vertices,
        so this always holds; exposed for property tests."""
        import networkx as nx

        return nx.is_directed_acyclic_graph(self.to_networkx())
