"""ML — Machine Learning Ensemble (section V-B, Fig. 2).

"An ML pipeline that combines Categorical Naive Bayes and Ridge
Regression classifiers by applying softmax normalization and averaging
scores.  The input matrix has 200 features.  This benchmark contains
branch imbalance (the Naive Bayes classifier takes longer) and read-only
arguments."

DAG per iteration::

    x ─ nb_mmul(x,nb_w→r1) ─ addv ─ exp ─ softmax ─┐
                                                    ├─ argmax(r1,r2→r)
    z ─ rr_mmul(z,rr_w→r2) ─ addv ─ norm ─ softmax ─┘

Following the GrCUDA benchmark, the two classifiers read *different*
uploads of the feature matrix — the raw ``x`` for Naive Bayes and the
standardized copy ``z`` for Ridge Regression (prepared on the host).
Each branch's input transfer therefore overlaps the other branch's
computation (the Fig. 10 timeline).  The NB multiplication works on a
tall matrix with limited parallelism (low IPC, section V-F), modelled
with a small occupancy cap — running the Ridge branch concurrently
hides its latency.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.graphs.taskgraph import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.kernels.profile import LinearCostModel
from repro.memory.array import DeviceArray
from repro.workloads.base import NUM_BLOCKS, Benchmark, Writes, fill_uniform, generate

FEATURES = 200
CLASSES = 10

#: the classifiers' parameters
WEIGHT_SHAPES = {
    "nb_w": (CLASSES, FEATURES),
    "nb_b": (CLASSES,),
    "rr_w": (CLASSES, FEATURES),
    "rr_b": (CLASSES,),
}


def _standardize(x: np.ndarray) -> np.ndarray:
    """Host-side feature standardization for the Ridge branch (a
    float32 ``x`` gives a float32 result)."""
    mu = x.mean(axis=0, keepdims=True)
    sd = x.std(axis=0, keepdims=True) + 1e-6
    z = np.subtract(x, mu)
    z /= sd
    return z


def _mmul(x: np.ndarray, w: np.ndarray, out: np.ndarray,
          rows: int, features: int, classes: int) -> None:
    out[:, :] = x @ w.T


def _addv(m: np.ndarray, bias: np.ndarray, rows: int, classes: int) -> None:
    m += bias


def _exp(m: np.ndarray, rows: int, classes: int) -> None:
    np.exp(m - m.max(axis=1, keepdims=True), out=m)


def _norm(m: np.ndarray, rows: int, classes: int) -> None:
    lo = m.min(axis=1, keepdims=True)
    hi = m.max(axis=1, keepdims=True)
    np.divide(m - lo, np.maximum(hi - lo, 1e-12), out=m)


def _softmax(m: np.ndarray, rows: int, classes: int) -> None:
    e = np.exp(m - m.max(axis=1, keepdims=True))
    np.divide(e, e.sum(axis=1, keepdims=True), out=m)


def _argmax(r1: np.ndarray, r2: np.ndarray, r: np.ndarray,
            rows: int, classes: int) -> None:
    r[:] = np.argmax(r1 + r2, axis=1).astype(r.dtype)


def _mmul_items(launch) -> float:
    rows, features, classes = launch.scalar_args
    return float(rows) * features * classes


def _rows_classes_items(launch) -> float:
    rows, classes = launch.scalar_args[-2:]
    return float(rows) * classes


class MLEnsemble(Benchmark):
    """ML: Naive Bayes + Ridge Regression ensemble with softmax."""

    name = "ml"
    description = (
        "Naive-Bayes + ridge-regression ensemble; imbalanced branches"
        " sharing a read-only input"
    )

    def graph(self) -> TaskGraph:
        r = self.scale
        g, b = NUM_BLOCKS, self.block_size
        mmul_sig = "const ptr, const ptr, ptr, sint32, sint32, sint32"
        rows_cols_sig = "ptr, sint32, sint32"
        return self.declare(
            arrays=[
                ArrayDecl("x", (r, FEATURES)),
                ArrayDecl("z", (r, FEATURES)),
                ArrayDecl("nb_w", (CLASSES, FEATURES)),
                ArrayDecl("nb_b", CLASSES),
                ArrayDecl("rr_w", (CLASSES, FEATURES)),
                ArrayDecl("rr_b", CLASSES),
                ArrayDecl("r1", (r, CLASSES)),
                ArrayDecl("r2", (r, CLASSES)),
                ArrayDecl("r", r),
            ],
            kernels=[
                KernelDecl(
                    "nb_mmul", mmul_sig, _mmul,
                    # Tall-matrix multiplication with poor parallelism:
                    # the slow branch ("the low IPC in ML is caused by a
                    # slow kernel that operates on tall matrices").
                    LinearCostModel(
                        flops_per_item=2.0,
                        dram_bytes_per_item=1.0,
                        l2_bytes_per_item=8.0,
                        instructions_per_item=6.0,
                        sm_fraction_cap=0.25,
                        items_fn=_mmul_items,
                    ),
                ),
                KernelDecl(
                    "rr_mmul", mmul_sig, _mmul,
                    LinearCostModel(
                        flops_per_item=2.0,
                        dram_bytes_per_item=1.0,
                        l2_bytes_per_item=8.0,
                        instructions_per_item=2.0,
                        sm_fraction_cap=0.9,
                        items_fn=_mmul_items,
                    ),
                ),
                KernelDecl(
                    "addv", "ptr, const ptr, sint32, sint32", _addv,
                    LinearCostModel(
                        flops_per_item=1.0,
                        dram_bytes_per_item=8.0,
                        instructions_per_item=4.0,
                        items_fn=_rows_classes_items,
                    ),
                ),
                KernelDecl(
                    "exp", rows_cols_sig, _exp,
                    LinearCostModel(
                        flops_per_item=12.0,
                        dram_bytes_per_item=8.0,
                        instructions_per_item=10.0,
                        items_fn=_rows_classes_items,
                    ),
                ),
                KernelDecl(
                    "norm", rows_cols_sig, _norm,
                    LinearCostModel(
                        flops_per_item=6.0,
                        dram_bytes_per_item=8.0,
                        instructions_per_item=8.0,
                        items_fn=_rows_classes_items,
                    ),
                ),
                KernelDecl(
                    "softmax", rows_cols_sig, _softmax,
                    LinearCostModel(
                        flops_per_item=14.0,
                        dram_bytes_per_item=8.0,
                        instructions_per_item=12.0,
                        items_fn=_rows_classes_items,
                    ),
                ),
                KernelDecl(
                    "argmax", "const ptr, const ptr, ptr, sint32, sint32",
                    _argmax,
                    LinearCostModel(
                        flops_per_item=3.0,
                        dram_bytes_per_item=9.0,
                        instructions_per_item=6.0,
                        items_fn=_rows_classes_items,
                    ),
                ),
            ],
            launches=[
                LaunchDecl(
                    "nb_mmul", g, b, ("x", "nb_w", "r1", r, FEATURES, CLASSES)
                ),
                LaunchDecl("addv", g, b, ("r1", "nb_b", r, CLASSES)),
                LaunchDecl("exp", g, b, ("r1", r, CLASSES)),
                LaunchDecl("softmax", g, b, ("r1", r, CLASSES)),
                LaunchDecl(
                    "rr_mmul", g, b, ("z", "rr_w", "r2", r, FEATURES, CLASSES)
                ),
                LaunchDecl("addv", g, b, ("r2", "rr_b", r, CLASSES)),
                LaunchDecl("norm", g, b, ("r2", r, CLASSES)),
                LaunchDecl("softmax", g, b, ("r2", r, CLASSES)),
                LaunchDecl("argmax", g, b, ("r1", "r2", "r", r, CLASSES)),
            ],
        )

    def inputs(self, iteration: int) -> Writes:
        rng = functools.cache(lambda: self.rng(iteration))
        x = functools.cache(
            lambda: fill_uniform(
                rng(), -1.0, 1.0, np.empty((self.scale, FEATURES), np.float32)
            )
        )
        # Ridge regression reads the standardized features, prepared on
        # the host (a second full-size upload, like the GrCUDA bench).
        writes = {"x": x, "z": lambda: _standardize(x())}
        if iteration == 0:
            writes.update(self._weight_inputs())
        return writes

    def _weight_inputs(self) -> Writes:
        """The classifiers' parameters, written once before the first
        iteration."""
        wrng = functools.cache(lambda: self.rng(999_983))
        return {
            name: lambda shape=shape: fill_uniform(
                wrng(), -0.5, 0.5, np.empty(shape, np.float32)
            )
            for name, shape in WEIGHT_SHAPES.items()
        }

    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        return float(np.sum(arrays["r"][:64], dtype=np.float64))

    def reference(self, iteration: int) -> float:
        ins = generate(self.inputs(iteration))
        x, z = ins["x"], ins["z"]
        w = generate(self._weight_inputs())
        rows = self.scale
        r1 = x @ w["nb_w"].T
        _addv(r1, w["nb_b"], rows, CLASSES)
        _exp(r1, rows, CLASSES)
        _softmax(r1, rows, CLASSES)
        r2 = z @ w["rr_w"].T
        _addv(r2, w["rr_b"], rows, CLASSES)
        _norm(r2, rows, CLASSES)
        _softmax(r2, rows, CLASSES)
        r = np.empty(rows, dtype=np.float32)
        _argmax(r1, r2, r, rows, CLASSES)
        return float(np.sum(r[:64], dtype=np.float64))
