"""Unit tests for the workload kernels themselves: functional math
against independent references, and cost-model sanity."""

import numpy as np
import pytest

from repro.workloads import BENCHMARKS, create_benchmark
from repro.workloads.bs import (
    MATURITY,
    RISK_FREE,
    STRIKE,
    VOLATILITY,
    _bs_kernel,
    black_scholes_call,
)
from repro.workloads.hits import AVG_DEGREE, build_csr
from repro.workloads.img import _combine, _extend, _sobel, _unsharpen
from repro.workloads.ml import _argmax, _norm, _softmax, _standardize
from repro.workloads.dl import _conv, _pool


class TestBlackScholesMath:
    def test_deep_in_the_money_approaches_intrinsic(self):
        s = np.array([300.0])
        price = black_scholes_call(s)[0]
        intrinsic = 300.0 - STRIKE * np.exp(-RISK_FREE * MATURITY)
        assert price == pytest.approx(intrinsic, rel=1e-6)

    def test_deep_out_of_the_money_near_zero(self):
        assert black_scholes_call(np.array([1.0]))[0] < 1e-8

    def test_price_bounds(self):
        s = np.linspace(5, 100, 50)
        c = black_scholes_call(s)
        # 0 <= C <= S and C >= S - K e^{-rT}.
        assert np.all(c >= -1e-12)
        assert np.all(c <= s + 1e-12)
        assert np.all(c >= s - STRIKE * np.exp(-RISK_FREE) - 1e-9)

    def test_monotonic_in_spot(self):
        s = np.linspace(10, 60, 100)
        c = black_scholes_call(s)
        assert np.all(np.diff(c) > 0)

    def test_put_call_parity_via_forward(self):
        # C - P = S - K e^{-rT}; recompute P via the same formula with
        # reversed ndtr arguments to validate internal consistency.
        from scipy.special import ndtr

        s = np.array([25.0, 30.0, 35.0])
        sqrt_t = np.sqrt(MATURITY)
        d1 = (
            np.log(s / STRIKE)
            + (RISK_FREE + 0.5 * VOLATILITY**2) * MATURITY
        ) / (VOLATILITY * sqrt_t)
        d2 = d1 - VOLATILITY * sqrt_t
        put = STRIKE * np.exp(-RISK_FREE * MATURITY) * ndtr(-d2) - s * ndtr(
            -d1
        )
        call = black_scholes_call(s)
        parity = call - put
        assert parity == pytest.approx(
            s - STRIKE * np.exp(-RISK_FREE * MATURITY), rel=1e-10
        )

    def test_in_place_evaluation_is_bit_identical_to_the_expression(self):
        """The in-place kernel reorders no arithmetic: its bits equal
        the textbook expression's, for every size, price range and
        input dtype, both standalone and written through the kernel."""
        from scipy.special import ndtr

        def expression(prices):
            s = prices.astype(np.float64)
            sqrt_t = np.sqrt(MATURITY)
            d1 = (
                np.log(s / STRIKE)
                + (RISK_FREE + 0.5 * VOLATILITY**2) * MATURITY
            ) / (VOLATILITY * sqrt_t)
            d2 = d1 - VOLATILITY * sqrt_t
            return s * ndtr(d1) - STRIKE * np.exp(
                -RISK_FREE * MATURITY
            ) * ndtr(d2)

        cases = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for size in (1, 2, 17, 256, 4099, 60_000):
                for lo, hi in ((20.0, 40.0), (0.01, 5.0), (100.0, 1e5)):
                    for dtype in (np.float64, np.float32):
                        prices = rng.uniform(lo, hi, size).astype(dtype)
                        prices.flags.writeable = False
                        want = expression(prices).tobytes()
                        assert black_scholes_call(prices).tobytes() == want
                        y = np.full(size + 1, -1.0)
                        _bs_kernel(prices, y, size)
                        assert y[:size].tobytes() == want
                        assert y[size] == -1.0
                        cases += 1
        assert cases == 1440


class TestImageKernels:
    def test_sobel_flat_image_zero_gradient(self):
        img = np.full((16, 16), 0.5, dtype=np.float32)
        out = np.empty_like(img)
        _sobel(img, out, 16)
        assert np.allclose(out, 0.0)

    def test_sobel_detects_edge(self):
        img = np.zeros((16, 16), dtype=np.float32)
        img[:, 8:] = 1.0
        out = np.empty_like(img)
        _sobel(img, out, 16)
        assert out[8, 8] > 0.5
        assert out[8, 0] == pytest.approx(0.0, abs=1e-6)

    def test_extend_normalizes_to_unit_range(self):
        rng = np.random.default_rng(0)
        mask = rng.uniform(-3, 7, (8, 8)).astype(np.float32)
        lo = np.array([mask.min()], dtype=np.float32)
        hi = np.array([mask.max()], dtype=np.float32)
        _extend(mask, lo, hi, 8)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_unsharpen_clips(self):
        img = np.ones((4, 4), dtype=np.float32)
        blurred = np.zeros_like(img)
        out = np.empty_like(img)
        _unsharpen(img, blurred, out, 0.5, 4)
        assert np.all(out <= 1.0)

    def test_combine_is_convex_blend(self):
        a = np.full((4, 4), 1.0, dtype=np.float32)
        b = np.zeros_like(a)
        mask = np.full_like(a, 0.25)
        out = np.empty_like(a)
        _combine(a, b, mask, out, 4)
        assert np.allclose(out, 0.25)


class TestMLKernels:
    def test_softmax_rows_sum_to_one(self):
        m = np.random.default_rng(0).normal(size=(5, 10)).astype(np.float32)
        _softmax(m, 5, 10)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-5)
        assert np.all(m >= 0)

    def test_norm_unit_range_per_row(self):
        m = np.random.default_rng(0).normal(size=(5, 10)).astype(np.float32)
        _norm(m, 5, 10)
        assert np.allclose(m.min(axis=1), 0.0, atol=1e-6)
        assert np.allclose(m.max(axis=1), 1.0, atol=1e-5)

    def test_argmax_combines_scores(self):
        r1 = np.zeros((2, 3), dtype=np.float32)
        r2 = np.zeros((2, 3), dtype=np.float32)
        r1[0, 2] = 1.0
        r2[1, 1] = 1.0
        out = np.empty(2, dtype=np.float32)
        _argmax(r1, r2, out, 2, 3)
        assert list(out) == [2.0, 1.0]

    def test_standardize_zero_mean_unit_std(self):
        x = np.random.default_rng(0).normal(
            3.0, 2.0, (1000, 4)
        ).astype(np.float32)
        z = _standardize(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-3)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-2)


class TestDLKernels:
    def test_conv_identity_kernel(self):
        img = np.random.default_rng(0).uniform(
            0, 1, (8, 8)
        ).astype(np.float32)
        w = np.zeros((3, 3), dtype=np.float32)
        w[1, 1] = 1.0
        out = np.empty_like(img)
        _conv(img, w, out, 8)
        assert np.allclose(out, img)  # identity + relu on positives

    def test_conv_relu_clamps_negative(self):
        img = np.ones((4, 4), dtype=np.float32)
        w = np.full((3, 3), -1.0, dtype=np.float32)
        out = np.empty_like(img)
        _conv(img, w, out, 4)
        assert np.all(out == 0.0)

    def test_pool_takes_max(self):
        img = np.arange(16, dtype=np.float32).reshape(4, 4)
        out = np.empty((2, 2), dtype=np.float32)
        _pool(img, out, 4)
        assert out[0, 0] == 5.0   # max of [[0,1],[4,5]]
        assert out[1, 1] == 15.0


class TestHITSGraph:
    def test_uniform_out_degree(self):
        a = build_csr(100, AVG_DEGREE, seed=1)
        degrees = np.diff(a.indptr)
        assert np.all(degrees == AVG_DEGREE)

    def test_deterministic(self):
        a = build_csr(50, 3, seed=7)
        b = build_csr(50, 3, seed=7)
        assert np.array_equal(a.indices, b.indices)

    def test_shape(self):
        a = build_csr(64, 3, seed=0)
        assert a.shape == (64, 64)
        assert a.nnz == 64 * 3


class TestCostModels:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_resources_positive_and_finite(self, name):
        scale = {"img": 64, "dl": 64}.get(name, 10_000)
        bench = create_benchmark(name, scale, execute=False)
        # Use the contention-free machinery to price every invocation.
        from repro.metrics.contention_free import contention_free_time

        t = contention_free_time(bench, "1660")
        assert np.isfinite(t) and t > 0

    def test_only_bs_uses_fp64(self):
        for name, cls in BENCHMARKS.items():
            scale = {"img": 64, "dl": 64}.get(name, 10_000)
            bench = cls(scale, execute=False)
            fp64_kernels = [
                k.name
                for k in bench.graph().kernels
                if getattr(k.cost, "fp64", False)
            ]
            if name == "b&s":
                assert fp64_kernels == ["bs"]
            else:
                assert fp64_kernels == []
