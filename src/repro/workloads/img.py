"""IMG — Image Processing (section V-B).

"An image processing pipeline that combines a sharpened picture with
copies blurred at low and medium frequencies, to sharpen the edges,
soften everything else, and enhance the subject.  The benchmark has
complex dependencies on 4 streams."

DAG per iteration (Fig. 6)::

    blur_small(img)──sobel(bs→ms)────────────────────────┐
    blur_large(img)──sobel(bl→ml)──max┐                  │
                                  ──min┴─extend(ml)──┐   │
    blur_unsharpen(img)──unsharpen(img,bu→iu)─────────┤   │
                               combine(iu,bl,ml→i2)───┴───┤
                               combine(i2,bs,ms→i3)───────┘

The blur kernels tile through shared memory and are occupancy-limited
(``sm_fraction_cap`` < 1): run serially they leave SMs idle, which is
the space-sharing headroom behind IMG's speedup (section V-F: "the
overlap of kernels that leave a large amount of shared memory unused if
executed serially explains the speedup in IMG").
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

SIGMA_SMALL = 1.0
SIGMA_LARGE = 4.0
SIGMA_UNSHARPEN = 2.0
UNSHARPEN_AMOUNT = 0.5


def _blur(sigma: float):
    def blur(image: np.ndarray, out: np.ndarray, side: int) -> None:
        # scipy loads when a kernel computes: timing-only runs skip it.
        from scipy import ndimage

        out[:, :] = ndimage.gaussian_filter(image, sigma=sigma)

    return blur


def _sobel(image: np.ndarray, out: np.ndarray, side: int) -> None:
    from scipy import ndimage

    gx = ndimage.sobel(image, axis=0, mode="nearest")
    gy = ndimage.sobel(image, axis=1, mode="nearest")
    out[:, :] = np.hypot(gx, gy)


def _maximum(image: np.ndarray, out: np.ndarray, side: int) -> None:
    out[0] = float(image.max())


def _minimum(image: np.ndarray, out: np.ndarray, side: int) -> None:
    out[0] = float(image.min())


def _extend(
    mask: np.ndarray, lo: np.ndarray, hi: np.ndarray, side: int
) -> None:
    span = float(hi[0] - lo[0]) or 1.0
    np.clip((mask - lo[0]) * (5.0 / span), 0.0, 1.0, out=mask)


def _unsharpen(
    image: np.ndarray,
    blurred: np.ndarray,
    out: np.ndarray,
    amount: float,
    side: int,
) -> None:
    np.clip(
        image * (1.0 + amount) - blurred * amount, 0.0, 1.0, out=out
    )


def _combine(
    a: np.ndarray,
    b: np.ndarray,
    mask: np.ndarray,
    out: np.ndarray,
    side: int,
) -> None:
    out[:, :] = a * mask + b * (1.0 - mask)


class ImageProcessing(Benchmark):
    """IMG: low/medium-frequency blurs + sharpening, merged by masks."""

    name = "img"
    description = (
        "Sharpen edges and soften background via blurred copies and"
        " gradient masks; 4-stream pipeline"
    )

    def graph(self) -> TaskGraph:
        s = self.scale
        g2 = (NUM_BLOCKS_2D, NUM_BLOCKS_2D)
        b2 = (BLOCK_SIZE_2D, BLOCK_SIZE_2D)
        g1, b1 = NUM_BLOCKS, self.block_size
        blur_cost = dict(
            dram_bytes_per_item=8.0,
            instructions_per_item=30.0,
            sm_fraction_cap=0.6,  # shared-memory tiles limit occupancy
        )
        images = (
            "image", "blurred_small", "mask_small", "blurred_large",
            "mask_large", "blurred_unsharpen", "image_unsharpened",
            "image2", "image3",
        )
        return self.declare(
            arrays=[ArrayDecl(name, (s, s)) for name in images]
            + [ArrayDecl("minimum", 1), ArrayDecl("maximum", 1)],
            kernels=[
                KernelDecl(
                    "blur_small", "const ptr, ptr, sint32",
                    _blur(SIGMA_SMALL),
                    LinearCostModel(
                        flops_per_item=18.0, l2_bytes_per_item=44.0,
                        **blur_cost,
                    ),
                ),
                KernelDecl(
                    "blur_large", "const ptr, ptr, sint32",
                    _blur(SIGMA_LARGE),
                    LinearCostModel(
                        flops_per_item=50.0, l2_bytes_per_item=80.0,
                        **blur_cost,
                    ),
                ),
                KernelDecl(
                    "blur_unsharpen", "const ptr, ptr, sint32",
                    _blur(SIGMA_UNSHARPEN),
                    LinearCostModel(
                        flops_per_item=30.0, l2_bytes_per_item=60.0,
                        **blur_cost,
                    ),
                ),
                KernelDecl(
                    "sobel", "const ptr, ptr, sint32", _sobel,
                    LinearCostModel(
                        flops_per_item=25.0,
                        dram_bytes_per_item=8.0,
                        l2_bytes_per_item=40.0,
                        instructions_per_item=20.0,
                        sm_fraction_cap=0.75,
                    ),
                ),
                KernelDecl(
                    "maximum", "const ptr, ptr, sint32", _maximum,
                    LinearCostModel(
                        flops_per_item=1.0,
                        dram_bytes_per_item=4.0,
                        instructions_per_item=4.0,
                    ),
                ),
                KernelDecl(
                    "minimum", "const ptr, ptr, sint32", _minimum,
                    LinearCostModel(
                        flops_per_item=1.0,
                        dram_bytes_per_item=4.0,
                        instructions_per_item=4.0,
                    ),
                ),
                KernelDecl(
                    "extend", "ptr, const ptr, const ptr, sint32", _extend,
                    LinearCostModel(
                        flops_per_item=5.0,
                        dram_bytes_per_item=8.0,
                        instructions_per_item=6.0,
                    ),
                ),
                KernelDecl(
                    "unsharpen",
                    "const ptr, const ptr, ptr, float, sint32",
                    _unsharpen,
                    LinearCostModel(
                        flops_per_item=6.0,
                        dram_bytes_per_item=12.0,
                        instructions_per_item=8.0,
                    ),
                ),
                KernelDecl(
                    "combine",
                    "const ptr, const ptr, const ptr, ptr, sint32",
                    _combine,
                    LinearCostModel(
                        flops_per_item=4.0,
                        dram_bytes_per_item=16.0,
                        l2_bytes_per_item=16.0,
                        instructions_per_item=8.0,
                    ),
                ),
            ],
            launches=[
                LaunchDecl("blur_small", g2, b2, ("image", "blurred_small", s)),
                LaunchDecl("blur_large", g2, b2, ("image", "blurred_large", s)),
                LaunchDecl(
                    "blur_unsharpen", g2, b2,
                    ("image", "blurred_unsharpen", s),
                ),
                LaunchDecl("sobel", g2, b2, ("blurred_small", "mask_small", s)),
                LaunchDecl("sobel", g2, b2, ("blurred_large", "mask_large", s)),
                LaunchDecl("maximum", g1, b1, ("mask_large", "maximum", s)),
                LaunchDecl("minimum", g1, b1, ("mask_large", "minimum", s)),
                LaunchDecl(
                    "extend", g1, b1, ("mask_large", "minimum", "maximum", s)
                ),
                LaunchDecl(
                    "unsharpen", g2, b2,
                    (
                        "image", "blurred_unsharpen", "image_unsharpened",
                        UNSHARPEN_AMOUNT, s,
                    ),
                ),
                LaunchDecl(
                    "combine", g2, b2,
                    (
                        "image_unsharpened", "blurred_large", "mask_large",
                        "image2", s,
                    ),
                ),
                LaunchDecl(
                    "combine", g2, b2,
                    ("image2", "blurred_small", "mask_small", "image3", s),
                ),
            ],
        )

    def inputs(self, iteration: int) -> Writes:
        rng = functools.cache(lambda: self.rng(iteration))
        return {
            "image": lambda: fill_uniform(
                rng(), 0.0, 1.0, np.empty((self.scale, self.scale), np.float32)
            ),
        }

    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        return float(np.sum(arrays["image3"][0], dtype=np.float64))

    def reference(self, iteration: int) -> float:
        image = generate(self.inputs(iteration))["image"]
        side = self.scale
        bs = np.empty_like(image)
        bl = np.empty_like(image)
        bu = np.empty_like(image)
        _blur(SIGMA_SMALL)(image, bs, side)
        _blur(SIGMA_LARGE)(image, bl, side)
        _blur(SIGMA_UNSHARPEN)(image, bu, side)
        ms = np.empty_like(image)
        ml = np.empty_like(image)
        _sobel(bs, ms, side)
        _sobel(bl, ml, side)
        lo = np.array([ml.min()], dtype=np.float32)
        hi = np.array([ml.max()], dtype=np.float32)
        _extend(ml, lo, hi, side)
        iu = np.empty_like(image)
        _unsharpen(image, bu, iu, UNSHARPEN_AMOUNT, side)
        i2 = np.empty_like(image)
        _combine(iu, bl, ml, i2, side)
        i3 = np.empty_like(image)
        _combine(i2, bs, ms, i3, side)
        return float(np.sum(i3[0], dtype=np.float64))
