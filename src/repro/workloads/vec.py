"""VEC — Vector Squares (section V-B, Fig. 4).

"A simple benchmark that measures a basic case of task-level parallelism
and computes the sum of differences of 2 squared vectors.  Each iteration
has new input data, simulating a streaming computation that requires
transfer from CPU to GPU."

DAG per iteration::

    square(X)   square(Y)        (independent -> two streams)
         \\        /
        reduce(X, Y, res)         (X, Y read-only)

Both kernels are memory-bound; the parallel scheduler's gain comes from
overlapping the two input transfers with computation (pure TC/CT overlap,
no compute-compute gain — exactly Fig. 12's "VEC does not have any
increase in memory throughput").
"""

from __future__ import annotations

import functools

import numpy as np

from repro.graphs.taskgraph import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.kernels.profile import LinearCostModel
from repro.memory.array import DeviceArray
from repro.workloads.base import NUM_BLOCKS, Benchmark, Writes, fill_uniform, generate


def _square(x: np.ndarray, n: int) -> None:
    np.square(x[:n], out=x[:n])


def _reduce(x: np.ndarray, y: np.ndarray, res: np.ndarray, n: int) -> None:
    res[0] = float(np.sum(x[:n] - y[:n], dtype=np.float64))


class VectorSquares(Benchmark):
    """VEC: two elementwise squares feeding a sum-of-differences."""

    name = "vec"
    description = (
        "Sum of differences of two squared vectors; streaming inputs"
    )

    def graph(self) -> TaskGraph:
        n = self.scale
        g, b = NUM_BLOCKS, self.block_size
        return self.declare(
            arrays=[ArrayDecl("x", n), ArrayDecl("y", n), ArrayDecl("res", 1)],
            kernels=[
                KernelDecl(
                    name="square",
                    signature="ptr, sint32",
                    fn=_square,
                    # 1 FLOP, read+write 4 B each: purely memory-bound.
                    cost=LinearCostModel(
                        flops_per_item=1.0,
                        dram_bytes_per_item=8.0,
                        l2_bytes_per_item=8.0,
                        instructions_per_item=4.0,
                    ),
                ),
                KernelDecl(
                    name="reduce",
                    signature="const ptr, const ptr, ptr, sint32",
                    fn=_reduce,
                    # Reads both vectors; the scalar result is negligible.
                    cost=LinearCostModel(
                        flops_per_item=2.0,
                        dram_bytes_per_item=8.0,
                        l2_bytes_per_item=8.0,
                        instructions_per_item=6.0,
                    ),
                ),
            ],
            launches=[
                LaunchDecl("square", g, b, ("x", n)),
                LaunchDecl("square", g, b, ("y", n)),
                LaunchDecl("reduce", g, b, ("x", "y", "res", n)),
            ],
        )

    def inputs(self, iteration: int) -> Writes:
        rng = functools.cache(lambda: self.rng(iteration))

        def vector() -> np.ndarray:
            return fill_uniform(
                rng(), 0.0, 2.0, np.empty(self.scale, np.float32)
            )

        return {"x": vector, "y": vector}

    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        return float(arrays["res"][0])

    def reference(self, iteration: int) -> float:
        ins = generate(self.inputs(iteration))
        x64 = ins["x"].astype(np.float32)
        y64 = ins["y"].astype(np.float32)
        return float(
            np.sum(
                np.square(x64) - np.square(y64), dtype=np.float64
            ).astype(np.float32)
        )
