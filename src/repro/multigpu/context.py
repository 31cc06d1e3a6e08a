"""Former home of the multi-GPU execution context.

Device placement is part of the one parallel context now:
:class:`repro.core.context.ParallelExecutionContext` places every
computation, on device 0 when the session has one GPU.  The old name
stays importable because the benchmark's layer tracer
(``bench/layers.py``) still wraps it.
"""

from repro.core.context import (
    ParallelExecutionContext as MultiGpuExecutionContext,
)

__all__ = ["MultiGpuExecutionContext"]
