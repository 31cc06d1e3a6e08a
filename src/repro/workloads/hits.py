"""HITS — hubs and authorities (section V-B).

"It computes the HITS algorithm on a graph using repeated sparse
matrix-vector multiplication on a matrix and its transpose [LightSpMV].
It contains complex cross-synchronizations and multiple iterations."

DAG per HITS step (Fig. 6)::

    spmv(Aᵀ, hub → auth2) ── sum(auth2 → na) ── divide(auth2/na → auth)
    spmv(A,  auth → hub2) ── sum(hub2 → nh) ── divide(hub2/nh → hub)

The two chains overlap, but each step's ``divide`` writes the vector the
*other* chain's next ``spmv`` reads — the cross-synchronizations that
limit HITS's speedup (1.13-1.38x in Fig. 11).

SpMV kernels are memory/L2-bound (CSR traversal); two concurrent SpMVs
contend on DRAM bandwidth, so space-sharing gains are modest — matching
Fig. 12's small HITS deltas.

The graph is a synthetic uniform-degree random digraph in CSR form; the
CSR arrays are uploaded once and shared read-only by both chains.
Functionally the multiplication uses a scipy.sparse matrix built from
the same CSR data (documented substitution: a Python-loop CSR walk would
be orders of magnitude too slow for the test suite while computing the
identical result).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.taskgraph import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.kernels.profile import LinearCostModel
from repro.memory.array import DeviceArray
from repro.workloads.base import NUM_BLOCKS, Benchmark, Writes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

AVG_DEGREE = 3


def build_csr(n: int, degree: int, seed: int) -> sparse.csr_matrix:
    """Uniform-degree random digraph (LightSpMV-style CSR input).

    32-bit indices, like LightSpMV's CSR: the paper's largest HITS input
    (1.4e8 vertices, Table I's 9.9 GB) only fits the P100 this way.
    """
    # Imported here, like the matrix: timing-only runs never build it.
    from scipy import sparse

    rng = np.random.default_rng(seed)
    cols = rng.integers(0, n, size=n * degree, dtype=np.int32)
    indptr = np.arange(0, n * degree + 1, degree, dtype=np.int32)
    data = np.ones(n * degree, dtype=np.float32)
    return sparse.csr_matrix((data, cols, indptr), shape=(n, n))


class HITS(Benchmark):
    """HITS: iterated SpMV on a matrix and its transpose."""

    name = "hits"
    description = (
        "Kleinberg's HITS via repeated SpMV on A and Aᵀ;"
        " cross-synchronized chains"
    )

    #: HITS power-iteration steps per benchmark iteration ("multiple
    #: iterations" within one execution; amortizes the CSR upload).
    inner_steps = 10

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._a_cache: sparse.csr_matrix | None = None
        self._at_cache: sparse.csr_matrix | None = None

    @property
    def _a(self) -> sparse.csr_matrix:
        """The adjacency matrix; built lazily (timing-only sweeps at
        paper scales never need the actual graph data)."""
        if self._a_cache is None:
            self._a_cache = build_csr(self.scale, AVG_DEGREE, self.seed)
        return self._a_cache

    @property
    def _at(self) -> sparse.csr_matrix:
        if self._at_cache is None:
            self._at_cache = self._a.T.tocsr()
        return self._at_cache

    def graph(self) -> TaskGraph:
        n = self.scale
        nnz = n * AVG_DEGREE
        g, b = NUM_BLOCKS, self.block_size

        def spmv_a(row, col, val, vin, vout, n):
            vout[:n] = self._a @ vin[:n]

        def spmv_at(row, col, val, vin, vout, n):
            vout[:n] = self._at @ vin[:n]

        def vec_sum(v, out, n):
            out[0] = float(np.sum(v[:n], dtype=np.float64))

        def divide(vin, vout, norm, n):
            np.divide(vin[:n], max(float(norm[0]), 1e-12), out=vout[:n])

        spmv_sig = "const ptr, const ptr, const ptr, const ptr, ptr, sint32"
        # Items default to the largest argument (the nnz-sized col/val
        # arrays): per-nonzero costs.
        spmv_cost = LinearCostModel(
            flops_per_item=2.0,
            dram_bytes_per_item=12.0,
            l2_bytes_per_item=16.0,
            instructions_per_item=10.0,
        )
        vec_cost = LinearCostModel(
            flops_per_item=1.0,
            dram_bytes_per_item=4.0,
            instructions_per_item=4.0,
        )
        div_cost = LinearCostModel(
            flops_per_item=1.0,
            dram_bytes_per_item=8.0,
            instructions_per_item=4.0,
        )
        step = [
            LaunchDecl(
                "spmv_at", g, b,
                ("at_row", "at_col", "at_val", "hub", "auth2", n),
            ),
            LaunchDecl(
                "spmv_a", g, b,
                ("a_row", "a_col", "a_val", "auth", "hub2", n),
            ),
            LaunchDecl("sum", g, b, ("auth2", "auth_norm", n)),
            LaunchDecl("sum", g, b, ("hub2", "hub_norm", n)),
            LaunchDecl("divide", g, b, ("auth2", "auth", "auth_norm", n)),
            LaunchDecl("divide", g, b, ("hub2", "hub", "hub_norm", n)),
        ]
        return self.declare(
            arrays=[
                ArrayDecl("a_row", n + 1, np.int32),
                ArrayDecl("a_col", nnz, np.int32),
                ArrayDecl("a_val", nnz),
                ArrayDecl("at_row", n + 1, np.int32),
                ArrayDecl("at_col", nnz, np.int32),
                ArrayDecl("at_val", nnz),
                ArrayDecl("auth", n),
                ArrayDecl("hub", n),
                ArrayDecl("auth2", n),
                ArrayDecl("hub2", n),
                ArrayDecl("auth_norm", 1),
                ArrayDecl("hub_norm", 1),
            ],
            kernels=[
                KernelDecl("spmv_a", spmv_sig, spmv_a, spmv_cost),
                KernelDecl("spmv_at", spmv_sig, spmv_at, spmv_cost),
                KernelDecl("sum", "const ptr, ptr, sint32", vec_sum, vec_cost),
                KernelDecl(
                    "divide", "const ptr, ptr, const ptr, sint32", divide,
                    div_cost,
                ),
            ],
            launches=step * self.inner_steps,
        )

    def inputs(self, iteration: int) -> Writes:
        writes: Writes = {}
        if iteration == 0:
            # The graph is fixed: its CSR arrays are uploaded once.
            for m, csr in (("a", lambda: self._a), ("at", lambda: self._at)):
                writes[f"{m}_row"] = lambda csr=csr: csr().indptr.astype(
                    np.int32
                )
                writes[f"{m}_col"] = lambda csr=csr: csr().indices.astype(
                    np.int32
                )
                writes[f"{m}_val"] = lambda csr=csr: csr().data

        # Both vectors restart from ones every iteration.
        def ones() -> np.ndarray:
            return np.ones(self.scale, dtype=np.float32)

        return {**writes, "auth": ones, "hub": ones}

    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        return float(
            np.sum(arrays["auth"][:8], dtype=np.float64)
            + np.sum(arrays["hub"][:8], dtype=np.float64)
        )

    def reference(self, iteration: int) -> float:
        n = self.scale
        auth = np.ones(n, dtype=np.float32)
        hub = np.ones(n, dtype=np.float32)
        for _ in range(self.inner_steps):
            auth2 = (self._at @ hub).astype(np.float32)
            hub2 = (self._a @ auth).astype(np.float32)
            na = np.float32(np.sum(auth2, dtype=np.float64))
            nh = np.float32(np.sum(hub2, dtype=np.float64))
            auth = auth2 / max(float(na), 1e-12)
            hub = hub2 / max(float(nh), 1e-12)
        return float(
            np.sum(auth[:8], dtype=np.float64)
            + np.sum(hub[:8], dtype=np.float64)
        )
