"""B&S — Black & Scholes (section V-B).

"Black & Scholes equation for European call options, for 10 underlying
stocks, and 10 vectors of prices.  Adapted [from the CUDA samples] to
simulate a computationally intensive streaming benchmark with
double-precision arithmetic and many independent kernels that can be
overlapped with no dependencies."

DAG per iteration: 10 fully independent ``bs(x_i) -> y_i`` chains, one
per stock (Fig. 6).  The kernels are FP64-bound: on consumer GPUs they
saturate the scarce double-precision units (so concurrent execution
yields little CC gain and the benchmark sits at 15-20 % of its
contention-free bound, Fig. 9); on the P100 the computation is fast
enough to hide entirely behind the PCIe transfers (high CT overlap and
the best speedups of Fig. 7).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.graphs.taskgraph import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.kernels.profile import LinearCostModel
from repro.memory.array import DeviceArray
from repro.workloads.base import NUM_BLOCKS, Benchmark, Writes, fill_uniform, generate

#: Option parameters (the CUDA sample's fixed rate/volatility setup).
RISK_FREE = 0.02
VOLATILITY = 0.30
STRIKE = 30.0
MATURITY = 1.0

NUM_STOCKS = 10


def black_scholes_call(
    prices: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Closed-form European call price for unit maturity (float64).

    Evaluated in place — into ``out`` (a float64 array of ``prices``'s
    shape that does not overlap it) when given — with one temporary, in
    the operation order of the textbook expression, so the result is
    bit-identical to it.  ``prices`` is never written."""
    # Imported here: a timing-only run computes nothing and never
    # pays scipy's import.
    from scipy.special import ndtr

    s = prices.astype(np.float64, copy=False)
    if out is None:
        out = np.empty_like(s)
    sqrt_t = np.sqrt(MATURITY)
    # d1 = (log(s / K) + (r + sigma^2 / 2) T) / (sigma sqrt(T))
    d1 = np.divide(s, STRIKE, out=np.empty_like(s))
    np.log(d1, out=d1)
    d1 += (RISK_FREE + 0.5 * VOLATILITY**2) * MATURITY
    d1 /= VOLATILITY * sqrt_t
    # out holds d2 = d1 - sigma sqrt(T), then K e^{-rT} N(d2)
    np.subtract(d1, VOLATILITY * sqrt_t, out=out)
    ndtr(out, out=out)
    out *= STRIKE * np.exp(-RISK_FREE * MATURITY)
    # call = s N(d1) - K e^{-rT} N(d2)
    ndtr(d1, out=d1)
    d1 *= s
    np.subtract(d1, out, out=out)
    return out


def _bs_kernel(x: np.ndarray, y: np.ndarray, n: int) -> None:
    black_scholes_call(x[:n], out=y[:n])


class BlackScholes(Benchmark):
    """B&S: ten independent double-precision option-pricing chains."""

    name = "b&s"
    description = (
        "European call options for 10 stocks; FP64-heavy, no dependencies"
    )

    def graph(self) -> TaskGraph:
        n = self.scale
        g, b = NUM_BLOCKS, self.block_size
        return self.declare(
            arrays=[
                ArrayDecl(f"{xy}{i}", n, np.float64)
                for i in range(NUM_STOCKS)
                for xy in "xy"
            ],
            kernels=[
                KernelDecl(
                    name="bs",
                    signature="const ptr double, ptr double, sint32",
                    fn=_bs_kernel,
                    # log, exp, sqrt and two ndtr evaluations expand to
                    # ~180 FP64 operations per option (transcendentals
                    # are multi-instruction sequences); 8 B in + 8 B out.
                    cost=LinearCostModel(
                        flops_per_item=180.0,
                        dram_bytes_per_item=16.0,
                        l2_bytes_per_item=16.0,
                        instructions_per_item=180.0,
                        fp64=True,
                    ),
                )
            ],
            launches=[
                LaunchDecl("bs", g, b, (f"x{i}", f"y{i}", n))
                for i in range(NUM_STOCKS)
            ],
        )

    def inputs(self, iteration: int) -> Writes:
        rng = functools.cache(lambda: self.rng(iteration))

        def prices() -> np.ndarray:
            return fill_uniform(rng(), 20.0, 40.0, np.empty(self.scale))

        return {f"x{i}": prices for i in range(NUM_STOCKS)}

    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        return float(
            sum(float(arrays[f"y{i}"][0]) for i in range(NUM_STOCKS))
        )

    def reference(self, iteration: int) -> float:
        ins = generate(self.inputs(iteration))
        return float(
            sum(
                black_scholes_call(ins[f"x{i}"][:1])[0]
                for i in range(NUM_STOCKS)
            )
        )
