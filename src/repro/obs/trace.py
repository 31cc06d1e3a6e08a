"""Span tracer: nested, zero-alloc-when-disabled structured tracing.

One request travels through four layers — admission in
:class:`~repro.serve.service.SchedulerService`, placement in
:class:`~repro.serve.fleet.GpuFleet`, coherence planning in
:class:`~repro.memory.coherence.CoherenceEngine`, and op execution in
:class:`~repro.gpusim.engine.SimEngine`.  The tracer is the one place
those layers report to, so a single trace shows the whole journey.

Every event carries **two clocks**:

* *virtual* time (``vt``) — the simulator clock, in the engine's native
  unit (virtual seconds; the Chrome-trace exporter converts to µs).
  Virtual stamps are a pure function of the simulated schedule, so
  traces are replay-deterministic: the same workload produces the same
  virtual timeline on every run and every machine.
* *wall* time (``wall``) — ``time.perf_counter()`` at record time, for
  profiling the simulator itself.  Wall stamps are advisory and
  excluded from determinism comparisons.

Disabled cost contract: the hot paths guard every tracer call with a
single ``if tracer.enabled:`` attribute test, the cheapest check Python
offers.  A disabled tracer (such as ``NULL_TRACER``, the module default)
short-circuits ``span()`` to a shared no-op span, so even unguarded call
sites allocate nothing.  sim-bench asserts the end-to-end cost of the
disabled path is < 5% of an untraced run.

Tracers reach engines created deep inside harness code through a
module-level default: :func:`use_tracer` installs a tracer for a
``with`` block, :func:`current_tracer` reads it, and
``SimEngine.__init__`` / ``SchedulerService.__init__`` pick it up
automatically.  Explicit ``tracer=`` parameters override the default.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator


class TraceEvent:
    """One recorded event.

    ``ph`` follows the Chrome Trace Event phase vocabulary: ``"X"`` for
    complete spans (has a duration), ``"i"`` for instants.  ``vt`` /
    ``dur`` are virtual µs; ``wall`` / ``wall_dur`` are host-process
    seconds from ``perf_counter``.  ``depth`` is the span-nesting level
    within the event's track at record time (0 = top level), letting
    exporters and tests check nesting without replaying the stack.
    """

    __slots__ = (
        "name", "track", "ph", "vt", "dur",
        "wall", "wall_dur", "depth", "attrs",
    )

    def __init__(
        self,
        name: str,
        track: str,
        ph: str,
        vt: float,
        dur: float,
        wall: float,
        wall_dur: float,
        depth: int,
        attrs: dict | None,
    ) -> None:
        self.name = name
        self.track = track
        self.ph = ph
        self.vt = vt
        self.dur = dur
        self.wall = wall
        self.wall_dur = wall_dur
        self.depth = depth
        self.attrs = attrs

    def to_dict(self) -> dict:
        """Flat JSON-ready form (the JSONL exporter's row shape)."""
        out = {
            "name": self.name,
            "track": self.track,
            "ph": self.ph,
            "vt": self.vt,
            "dur": self.dur,
            "wall": self.wall,
            "wall_dur": self.wall_dur,
            "depth": self.depth,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceEvent {self.track}/{self.name}"
            f" vt={self.vt} dur={self.dur}>"
        )


class Span:
    """An open span, closed by ``__exit__`` (or :meth:`close`).

    Virtual timestamps come from the ``clock`` callable sampled at open
    and close; :meth:`annotate` adds attributes mid-flight (e.g. the
    chosen slot, once placement decides).
    """

    __slots__ = (
        "_tracer", "name", "track", "_clock",
        "_vt_start", "_wall_start", "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        track: str,
        clock: Callable[[], float] | None,
        attrs: dict | None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self._clock = clock
        self._vt_start = clock() if clock is not None else 0.0
        self._wall_start = time.perf_counter()
        self.attrs = attrs

    def annotate(self, **attrs) -> "Span":
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        tracer = self._tracer
        vt_end = (
            self._clock() if self._clock is not None else self._vt_start
        )
        depths = tracer._depths
        depth = depths.get(self.track, 1) - 1
        depths[self.track] = depth
        tracer.events.append(
            TraceEvent(
                self.name,
                self.track,
                "X",
                self._vt_start,
                vt_end - self._vt_start,
                self._wall_start,
                time.perf_counter() - self._wall_start,
                depth,
                self.attrs,
            )
        )


class _NullSpan:
    """The shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceEvent` s from every instrumented layer.

    A tracer constructed with ``enabled=False``, such as
    :data:`NULL_TRACER`, records nothing: every method returns before
    allocating.  This is how the sim-bench overhead pair measures the
    disabled path explicitly.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        #: engines registered via :meth:`attach_engine`, in attach
        #: order — the Chrome-trace exporter reads their timelines for
        #: per-device tracks.
        self.engines: list = []
        #: open-span depth per track (span nesting bookkeeping)
        self._depths: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        track: str = "host",
        clock: Callable[[], float] | None = None,
        **attrs,
    ):
        """Open a nested span on ``track``; close it via ``with`` or
        ``.close()``.  ``clock`` supplies virtual time (sampled at open
        and close); without one the span records vt 0/dur 0 and is a
        wall-time-only span."""
        if not self.enabled:
            return _NULL_SPAN
        self._depths[track] = self._depths.get(track, 0) + 1
        return Span(self, name, track, clock, attrs or None)

    def instant(
        self,
        name: str,
        *,
        track: str = "host",
        vt: float = 0.0,
        **attrs,
    ) -> None:
        """Record a zero-duration marker (e.g. a repricing event)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self.events.append(
            TraceEvent(
                name, track, "i", vt, 0.0, now, 0.0,
                self._depths.get(track, 0), attrs or None,
            )
        )

    def complete(
        self,
        name: str,
        *,
        track: str = "host",
        vt_start: float = 0.0,
        vt_end: float = 0.0,
        **attrs,
    ) -> None:
        """Record a span post-hoc from known virtual endpoints.

        This is the hot-path form: op completion and coherence-window
        flushes know their exact virtual interval only after the fact,
        so they emit one ``complete()`` call instead of holding a
        context manager open across simulator internals.
        """
        if not self.enabled:
            return
        now = time.perf_counter()
        self.events.append(
            TraceEvent(
                name, track, "X", vt_start, vt_end - vt_start,
                now, 0.0, self._depths.get(track, 0), attrs or None,
            )
        )

    # -- engine registry ---------------------------------------------------

    def attach_engine(self, engine, name: str | None = None) -> None:
        """Register ``engine`` so exporters can pull its
        :class:`~repro.gpusim.timeline.Timeline` into per-device
        tracks.  Idempotent; ``name`` becomes the track prefix
        (default ``engine<ordinal>``)."""
        if not self.enabled:
            return
        if any(e is engine for e in self.engines):
            return
        engine._obs_name = name or f"engine{len(self.engines)}"
        self.engines.append(engine)

    def clear(self) -> None:
        self.events.clear()
        self.engines.clear()
        self._depths.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state} events={len(self.events)}>"


#: The shared always-off tracer; the module default.
NULL_TRACER = Tracer(enabled=False)

_default_tracer: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The process-wide default tracer (``NULL_TRACER`` unless
    :func:`set_default_tracer` / :func:`use_tracer` installed one).
    Engines and services read this at construction time."""
    return _default_tracer


def set_default_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the default (``None`` restores
    ``NULL_TRACER``); returns the previous default."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = NULL_TRACER if tracer is None else tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer]:
    """Scope a default tracer to a ``with`` block — the way harness
    entry points thread one tracer through engines they never
    construct directly."""
    previous = set_default_tracer(tracer)
    try:
        yield _default_tracer
    finally:
        set_default_tracer(previous)


__all__ = [
    "NULL_TRACER",
    "Span",
    "TraceEvent",
    "Tracer",
    "current_tracer",
    "set_default_tracer",
    "use_tracer",
]
