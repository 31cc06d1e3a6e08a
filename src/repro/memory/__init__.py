"""Unified-memory substrate.

GrCUDA backs its arrays with CUDA Unified Memory (UM): a single address
space visible from host and devices, kept coherent by page migration.
This package models that with location sets plus page-granular CPU
access costs:

* a :class:`DeviceArray` wraps a real numpy buffer (so kernels compute
  real results) and tracks which copies — the host and any subset of
  the session's devices; one device on a single GPU — are valid;
* GPU reads require a valid copy on the reading device — obtained by
  prefetch, eager copy, peer-to-peer copy, or on-demand page faults
  depending on architecture and policy;
* CPU accesses touch single pages, not whole arrays, mirroring UM's
  page-migration granularity;
* every executor declares its accesses to the
  :class:`~repro.memory.coherence.CoherenceEngine`, which plans the
  transfers its :class:`~repro.memory.coherence.MovementPolicy` calls
  for and applies location-set transitions on operation completion.
"""

from repro.memory.pages import PAGE_SIZE_BYTES
from repro.memory.array import DeviceArray, AccessKind
from repro.memory.coherence import AcquirePlan, CoherenceEngine, MovementPolicy

__all__ = [
    "PAGE_SIZE_BYTES",
    "DeviceArray",
    "AccessKind",
    "AcquirePlan",
    "CoherenceEngine",
    "MovementPolicy",
]
