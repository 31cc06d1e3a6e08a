"""Task graphs, their static schedule, and the baselines that run it.

:mod:`repro.graphs.taskgraph` declares one computation as data (arrays,
kernels, launches); :mod:`repro.graphs.planner` derives its
dependencies and the static stream schedule a skilled programmer
writes.  The rest of the package is the baseline executors: the C++
CUDA Graphs API and hand-tuned event scheduling.

Section V-D compares the GrCUDA scheduler against three hand-optimized
baselines, all re-implemented here on the simulator:

* **CUDA Graphs + manual dependencies** — the Graph API: nodes and edges
  specified explicitly, instantiated once, replayed cheaply.
* **CUDA Graphs + stream capture** — hand-optimized multi-stream host
  code with events, recorded into a graph via stream capture.
* **Hand-tuned CUDA events** — the same multi-stream schedule executed
  directly, with explicit data prefetching ("to simulate CUDA Graphs'
  performance if it supported data prefetching").

The first two cannot prefetch unified memory (the paper observes the
CUDA Graphs API "seems unable to perform" prefetching), which is what
GrCUDA's automatic prefetcher beats on Pascal+ GPUs.
"""

from repro.graphs.graph import (
    CudaGraph,
    ExecutableGraph,
    GraphNode,
    NodeKind,
)
from repro.graphs.capture import StreamCapture
from repro.graphs.handtuned import HandTunedScheduler

__all__ = [
    "CudaGraph",
    "ExecutableGraph",
    "GraphNode",
    "NodeKind",
    "StreamCapture",
    "HandTunedScheduler",
]
