"""repro — reproduction of "DAG-based Scheduling with Resource Sharing
for Multi-task Applications in a Polyglot GPU Runtime" (IPDPS 2021).

The package implements the paper's runtime GPU scheduler (automatic
dependency inference, transparent streams/events, transfer-computation
overlap, space-sharing) on top of a discrete-event GPU simulator, plus
the full benchmark suite and every experiment of the evaluation section.

Quickstart::

    from repro import Session

    sess = Session(gpu="Tesla P100")       # gpus=2 for a fleet
    x = sess.array(1_000_000)
    square = sess.build_kernel(lambda a, n: np.square(a, out=a),
                               "square", "ptr, sint32")
    square(256, 256)(x, 1_000_000)
    value = x[0]      # host access; the scheduler syncs just enough

:class:`Session` is the single entry point: the paper's scheduler runs
any device count through one path (``gpus>1`` adds the section-VI
device placement; one GPU is the one-device case), and
:mod:`repro.serve` multiplexes many tenants over a pool of sessions —
each session configured through one :class:`SchedulerConfig`.
"""

from repro.session import Session, SessionMetrics
from repro.core.policies import (
    AdmissionPolicy,
    DevicePlacementPolicy,
    ExecutionPolicy,
    NewStreamPolicy,
    ParentStreamPolicy,
    SchedulerConfig,
)
from repro.errors import ConfigError
from repro.gpusim.specs import (
    ALL_GPUS,
    GTX960,
    GTX1660_SUPER,
    TESLA_P100,
    GPUSpec,
    gpu_by_name,
)
from repro.memory.array import AccessKind, DeviceArray
from repro.memory.coherence import CoherenceEngine, MovementPolicy
from repro.obs import (
    NULL_TRACER,
    CounterRegistry,
    Tracer,
    current_tracer,
    set_default_tracer,
    use_tracer,
    write_chrome_trace,
)

__version__ = "1.0.0"

__all__ = [
    "Session",
    "SessionMetrics",
    "AdmissionPolicy",
    "ConfigError",
    "DevicePlacementPolicy",
    "ExecutionPolicy",
    "NewStreamPolicy",
    "ParentStreamPolicy",
    "SchedulerConfig",
    "ALL_GPUS",
    "GTX960",
    "GTX1660_SUPER",
    "TESLA_P100",
    "GPUSpec",
    "gpu_by_name",
    "AccessKind",
    "DeviceArray",
    "CoherenceEngine",
    "MovementPolicy",
    "NULL_TRACER",
    "CounterRegistry",
    "Tracer",
    "current_tracer",
    "set_default_tracer",
    "use_tracer",
    "write_chrome_trace",
    "__version__",
]
