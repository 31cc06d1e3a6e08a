"""DL — Deep Learning (section V-B).

"A convolutional neural network that projects 2 input images to low
dimensional embeddings and combines the embeddings using a dense layer.
Similar neural networks can be used, for example, to classify if 2
images contain the same subject."

DAG per iteration (Fig. 6)::

    conv(x,w1→x1) ─ pool(x1→x2) ─ conv(x2,w2→x3) ─┐
                                                   concat(x3,y3→z) ─ dot(z,wd→out)
    conv(y,w3→y1) ─ pool(y1→y2) ─ conv(y2,w4→y3) ─┘

Two independent CNN towers (one per input image) joined by a dense
layer.  Convolutions are compute-bound FP32 kernels with register-limited
occupancy; the towers space-share, giving the moderate 1.2-1.3x speedups
of Fig. 11.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.graphs.taskgraph import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.kernels.profile import LinearCostModel
from repro.memory.array import DeviceArray
from repro.workloads.base import (
    BLOCK_SIZE_2D,
    NUM_BLOCKS,
    NUM_BLOCKS_2D,
    Benchmark,
    Writes,
    fill_uniform,
    generate,
)

KERNEL_SIZE = 3


def _conv(x: np.ndarray, w: np.ndarray, out: np.ndarray, side: int) -> None:
    # scipy loads when a kernel computes: timing-only runs skip it.
    from scipy import ndimage

    np.maximum(
        ndimage.convolve(x, w, mode="constant"), 0.0, out=out
    )


def _pool(x: np.ndarray, out: np.ndarray, side: int) -> None:
    h = side // 2
    out[:, :] = x[: 2 * h, : 2 * h].reshape(h, 2, h, 2).max(axis=(1, 3))


def _concat(a: np.ndarray, b: np.ndarray, z: np.ndarray, n: int) -> None:
    z[:n] = a.ravel()
    z[n : 2 * n] = b.ravel()


def _dot(z: np.ndarray, w: np.ndarray, out: np.ndarray, n: int) -> None:
    out[0] = float(np.dot(z[:n].astype(np.float64), w[:n].astype(np.float64)))


class DeepLearning(Benchmark):
    """DL: two CNN towers joined by a dense layer."""

    name = "dl"
    description = (
        "Two-tower CNN producing image embeddings combined by a dense"
        " layer"
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scale -= self.scale % 2  # pooling halves the side
        if self.scale < 4:
            raise ValueError("DL needs scale >= 4")

    def graph(self) -> TaskGraph:
        s = self.scale
        h = s // 2
        img, half, w = (s, s), (h, h), (KERNEL_SIZE, KERNEL_SIZE)
        g2 = (NUM_BLOCKS_2D, NUM_BLOCKS_2D)
        b2 = (BLOCK_SIZE_2D, BLOCK_SIZE_2D)
        g1, b1 = NUM_BLOCKS, self.block_size
        conv_sig = "const ptr, const ptr, ptr, sint32"
        return self.declare(
            arrays=[
                ArrayDecl("x", img),
                ArrayDecl("y", img),
                ArrayDecl("w1", w),
                ArrayDecl("w2", w),
                ArrayDecl("w3", w),
                ArrayDecl("w4", w),
                ArrayDecl("x1", img),
                ArrayDecl("y1", img),
                ArrayDecl("x2", half),
                ArrayDecl("y2", half),
                ArrayDecl("x3", half),
                ArrayDecl("y3", half),
                ArrayDecl("z", 2 * h * h),
                ArrayDecl("wd", 2 * h * h),
                ArrayDecl("out", 1),
            ],
            kernels=[
                KernelDecl(
                    "conv", conv_sig, _conv,
                    # 3x3 kernel across 32 feature channels (~600 MACs
                    # per output pixel); register-limited occupancy.
                    # The functional implementation computes one
                    # representative channel; the cost model prices the
                    # full layer.
                    LinearCostModel(
                        flops_per_item=600.0,
                        dram_bytes_per_item=12.0,
                        l2_bytes_per_item=200.0,
                        instructions_per_item=250.0,
                        sm_fraction_cap=0.85,
                    ),
                ),
                KernelDecl(
                    "pool", "const ptr, ptr, sint32", _pool,
                    LinearCostModel(
                        flops_per_item=3.0,
                        dram_bytes_per_item=5.0,
                        instructions_per_item=5.0,
                    ),
                ),
                KernelDecl(
                    "concat", "const ptr, const ptr, ptr, sint32", _concat,
                    LinearCostModel(
                        dram_bytes_per_item=12.0,
                        instructions_per_item=3.0,
                    ),
                ),
                KernelDecl(
                    "dot", "const ptr, const ptr, ptr, sint32", _dot,
                    LinearCostModel(
                        flops_per_item=2.0,
                        dram_bytes_per_item=8.0,
                        instructions_per_item=4.0,
                    ),
                ),
            ],
            launches=[
                LaunchDecl("conv", g2, b2, ("x", "w1", "x1", s)),
                LaunchDecl("pool", g2, b2, ("x1", "x2", s)),
                LaunchDecl("conv", g2, b2, ("x2", "w2", "x3", h)),
                LaunchDecl("conv", g2, b2, ("y", "w3", "y1", s)),
                LaunchDecl("pool", g2, b2, ("y1", "y2", s)),
                LaunchDecl("conv", g2, b2, ("y2", "w4", "y3", h)),
                LaunchDecl("concat", g1, b1, ("x3", "y3", "z", h * h)),
                LaunchDecl("dot", g1, b1, ("z", "wd", "out", 2 * h * h)),
            ],
        )

    def inputs(self, iteration: int) -> Writes:
        rng = functools.cache(lambda: self.rng(iteration))
        s = self.scale

        def image() -> np.ndarray:
            return fill_uniform(rng(), 0.0, 1.0, np.empty((s, s), np.float32))

        writes = {"x": image, "y": image}
        if iteration == 0:
            writes.update(self._weight_inputs())
        return writes

    def _weight_inputs(self) -> Writes:
        """The network's weights, written once before the first
        iteration."""
        wrng = functools.cache(lambda: self.rng(424_243))
        h = self.scale // 2

        def kernel() -> np.ndarray:
            shape = (KERNEL_SIZE, KERNEL_SIZE)
            return fill_uniform(wrng(), -0.5, 0.5, np.empty(shape, np.float32))

        return {
            "w1": kernel, "w2": kernel, "w3": kernel, "w4": kernel,
            "wd": lambda: fill_uniform(
                wrng(), -0.1, 0.1, np.empty(2 * h * h, np.float32)
            ),
        }

    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        return float(arrays["out"][0])

    def reference(self, iteration: int) -> float:
        ins = generate(self.inputs(iteration))
        w = generate(self._weight_inputs())
        s = self.scale
        h = s // 2

        def tower(img, wa, wb):
            c1 = np.empty_like(img)
            _conv(img, wa, c1, s)
            p = np.empty((h, h), dtype=np.float32)
            _pool(c1, p, s)
            c2 = np.empty_like(p)
            _conv(p, wb, c2, h)
            return c2

        x3 = tower(ins["x"], w["w1"], w["w2"])
        y3 = tower(ins["y"], w["w3"], w["w4"])
        z = np.concatenate([x3.ravel(), y3.ravel()])
        out = np.empty(1, dtype=np.float32)
        _dot(z, w["wd"], out, 2 * h * h)
        return float(out[0])
