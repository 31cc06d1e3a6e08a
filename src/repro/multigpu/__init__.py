"""Multi-GPU scheduling — the paper's section-VI future work.

"As future work, we plan to extend our technique to multiple GPUs: the
problem is significantly harder, as it requires to compute data location
and migration costs at run time to identify the optimal scheduling."

The machinery lives in the one runtime path every session runs:

* :class:`~repro.memory.array.DeviceArray` tracks *data location* — a
  location set of the devices (and the host) holding a valid copy; a
  single GPU is the one-device case;
* :class:`~repro.core.context.ParallelExecutionContext` extends the
  runtime DAG scheduler with a device-placement step that prices each
  candidate GPU's *migration cost* (host uploads and peer-to-peer
  copies, on the coherence engine's planned view) before choosing, with
  round-robin and locality-aware policies to compare
  (:class:`~repro.core.policies.DevicePlacementPolicy`);
* peer-to-peer transfers ride the simulator's ``DEVICE_TO_DEVICE``
  direction.

This package keeps the deprecated :class:`MultiGpuScheduler` facade;
new code writes ``Session(gpus=N, config=SchedulerConfig(placement=...))``.
"""

from repro.core.policies import DevicePlacementPolicy
from repro.multigpu.scheduler import MultiGpuScheduler

__all__ = [
    "DevicePlacementPolicy",
    "MultiGpuScheduler",
]
