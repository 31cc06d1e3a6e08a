"""The counter/gauge registry of the observability subsystem.

Every layer of the stack kept its own ad-hoc tallies — ``steps`` /
``repricings`` ints on :class:`~repro.gpusim.engine.SimEngine`,
``*_bytes_total`` floats on
:class:`~repro.memory.coherence.CoherenceEngine`, capture hit/miss ints
on the serving cache.  A :class:`CounterRegistry` absorbs them behind
one namespaced API without slowing the hot paths that bump them: the
registry hands out :class:`Counter` cells once, and the owner increments
``cell.value`` directly — the same cost as the plain attribute it
replaces (one attribute load and an in-place add), with no per-increment
dict lookup.

Naming convention: dotted namespaces, lowest component last —
``engine.steps``, ``coherence.htod_bytes``, ``serve.capture_hits``,
``coherence.window_flush.pre-sync``.  :meth:`CounterRegistry.snapshot`
returns a flat, name-sorted dict (deterministic: counters accumulate
from deterministic simulation events only), and
:meth:`CounterRegistry.merge` folds one registry into another — the
serving layer merges each retired request's coherence counters into its
fleet slot, and the slots into the service-level summary.
"""

from __future__ import annotations

from typing import Iterator


class Counter:
    """One named, monotonically written cell of a registry.

    ``value`` is public on purpose: hot paths (the engine step loop, the
    coherence submit path) do ``cell.value += 1`` instead of calling
    through the registry.  Gauges are just counters whose owner assigns
    instead of adding.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, delta: float = 1) -> None:
        self.value += delta

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class CounterRegistry:
    """A flat namespace of :class:`Counter` cells.

    Registries are cheap (one dict); every component that needs private
    tallies owns one, and aggregation happens by :meth:`merge` rather
    than by sharing cells — so per-instance introspection (one request's
    coherence engine, one engine's step counts) keeps working even when
    many instances feed one roll-up.
    """

    def __init__(self) -> None:
        self._cells: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Create-or-get the cell for ``name``."""
        cell = self._cells.get(name)
        if cell is None:
            cell = Counter(name)
            self._cells[name] = cell
        return cell

    def inc(self, name: str, delta: float = 1) -> None:
        self.counter(name).value += delta

    def set_max(self, name: str, value: float) -> None:
        """High-watermark gauge: keep the largest value seen."""
        cell = self.counter(name)
        if value > cell.value:
            cell.value = value

    def get(self, name: str, default: float = 0) -> float:
        cell = self._cells.get(name)
        return default if cell is None else cell.value

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Counter]:
        return iter(self._cells.values())

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._cells if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """Name-sorted flat view, optionally restricted to ``prefix``."""
        return {
            name: self._cells[name].value for name in self.names(prefix)
        }

    def merge(self, other: "CounterRegistry", prefix: str = "") -> None:
        """Accumulate every cell of ``other`` into this registry,
        optionally re-namespaced under ``prefix``."""
        for cell in other:
            self.counter(prefix + cell.name).value += cell.value

    def clear(self) -> None:
        self._cells.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterRegistry {len(self._cells)} cells>"
