"""The paper's benchmark suite (section V-B): six multi-task GPU
workloads with opportunities for transfer/compute overlap and
space-sharing, each defined once and runnable under five execution
modes:

* GrCUDA **serial** scheduler (the baseline of Fig. 7),
* GrCUDA **parallel** scheduler (the paper's contribution),
* CUDA Graphs with **manual dependencies** (Fig. 8),
* CUDA Graphs built by **stream capture** (Fig. 8),
* **hand-tuned CUDA events** with explicit prefetching (Fig. 8).

Each benchmark declares one iteration as a task graph plus the host
writes before each iteration.  Each kernel carries both a real numpy
implementation (results are validated against independent references)
and a roofline cost profile (timings are simulated).
"""

from repro.workloads.base import Benchmark, Mode, RunResult
from repro.workloads.vec import VectorSquares
from repro.workloads.bs import BlackScholes
from repro.workloads.img import ImageProcessing
from repro.workloads.ml import MLEnsemble
from repro.workloads.hits import HITS
from repro.workloads.dl import DeepLearning
from repro.workloads.suite import (
    BENCHMARKS,
    create_benchmark,
    default_scales,
)

__all__ = [
    "Benchmark",
    "Mode",
    "RunResult",
    "VectorSquares",
    "BlackScholes",
    "ImageProcessing",
    "MLEnsemble",
    "HITS",
    "DeepLearning",
    "BENCHMARKS",
    "create_benchmark",
    "default_scales",
]
