"""Hand-tuned CUDA-events baseline.

Direct multi-stream execution with full manual control over data
movement — the paper's strongest baseline, built "to have full control
over data movement and simulate CUDA Graphs' performance if it supported
data prefetching".  Per-kernel launch overhead is paid on every launch
(nothing is amortized), but the programmer prefetches explicitly and
places every kernel on exactly the stream a skilled CUDA developer
would.
"""

from __future__ import annotations

from repro.core.context import submit_kernel
from repro.gpusim.engine import SimEngine
from repro.gpusim.stream import SimEvent, SimStream
from repro.kernels.kernel import KernelLaunch
from repro.memory.array import DeviceArray
from repro.memory.coherence import CoherenceEngine, MovementPolicy

#: Host cost of one kernel launch through the driver API.
LAUNCH_OVERHEAD_US = 5.0


class HandTunedScheduler:
    """Expert-written host code: explicit streams, events and prefetch.

    The expert also gets the cross-stream prefetch hazard right: a
    kernel reading an array whose migration was issued on a *different*
    stream waits on the migration's event (the migration tracker), just
    like the automatic scheduler does.
    """

    def __init__(self, engine: SimEngine) -> None:
        self.engine = engine
        self._streams: list[SimStream] = []
        # Explicit prefetches come from the programmer; anything they
        # forget falls back to lazy movement (faults on Pascal+, eager
        # copies on Maxwell) — same rules as every other execution mode.
        self.coherence = CoherenceEngine(
            engine, policy=MovementPolicy.PAGE_FAULT
        )

    # -- stream / event plumbing -------------------------------------------

    def stream(self) -> SimStream:
        s = self.engine.create_stream(label=f"ht-{len(self._streams)}")
        self._streams.append(s)
        return s

    def record_event(self, stream: SimStream) -> SimEvent:
        return self.engine.record_event(stream)

    def wait_event(self, stream: SimStream, event: SimEvent) -> None:
        self.engine.wait_event(stream, event)

    def sync(self) -> None:
        self.engine.sync_all()

    # -- data movement ------------------------------------------------------

    def prefetch(self, array: DeviceArray, stream: SimStream) -> None:
        """``cudaMemPrefetchAsync``: move a stale array to the device."""
        self.coherence.prefetch(array, stream)

    # -- kernel launches --------------------------------------------------------

    def launch(self, stream: SimStream, launch: KernelLaunch) -> None:
        """Launch the bound ``launch`` on ``stream``
        (``kernel(grid, block).bind(*args)``; an expert binds a launch
        once and launches it on every iteration).

        Arrays the programmer forgot to prefetch fall back to page
        faults (Pascal+) or eager copies (Maxwell) — same rules as every
        other execution mode.
        """
        self.engine.charge_host_time(LAUNCH_OVERHEAD_US * 1e-6)
        submit_kernel(self.coherence, stream, launch)
