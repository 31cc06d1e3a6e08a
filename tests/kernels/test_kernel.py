"""Tests for kernel objects, launch geometry and cost models."""

import re

import numpy as np
import pytest

from repro import Session
from repro.errors import LaunchError
from repro.gpusim.ops import KernelResourceRequest
from repro.kernels import (
    FixedCostModel,
    LinearCostModel,
    build_kernel,
    normalize_dim,
)
from repro.kernels.registry import KernelRegistry
from repro.memory import AccessKind, DeviceArray


def make_kernel(launches, signature="const ptr, ptr, sint32", name="axpy"):
    def axpy(x, y, n):
        y[:n] += 2.0 * x[:n]

    return build_kernel(
        axpy, name, signature, launch_handler=launches.append
    )


class TestNormalizeDim:
    def test_int(self):
        assert normalize_dim(8) == (8, 1, 1)

    def test_tuple_2d(self):
        assert normalize_dim((8, 8)) == (8, 8, 1)

    def test_tuple_3d(self):
        assert normalize_dim((4, 4, 4)) == (4, 4, 4)

    def test_zero_rejected(self):
        with pytest.raises(LaunchError):
            normalize_dim(0)

    def test_too_many_dims_rejected(self):
        with pytest.raises(LaunchError):
            normalize_dim((1, 2, 3, 4))

    @pytest.mark.parametrize(
        "dim, want",
        [
            (5, (5, 1, 1)),
            (np.int64(5), (5, 1, 1)),
            ((4, 4), (4, 4, 1)),
            ([4, 4], (4, 4, 1)),
        ],
    )
    def test_integer_spellings_accepted(self, dim, want):
        assert normalize_dim(dim) == want

    @pytest.mark.parametrize(
        "dim", ["12", "256", (2.9,), 5.0, np.float64(3.0)]
    )
    def test_non_integer_spellings_rejected(self, dim):
        # Iterating a string or truncating a float would launch a
        # geometry nobody asked for.
        with pytest.raises(LaunchError, match="integer"):
            normalize_dim(dim)

    def test_misspelled_launch_rejected(self):
        k = make_kernel([])
        x, y = DeviceArray(8), DeviceArray(8)
        with pytest.raises(LaunchError, match=r"\(2\.9,\)"):
            k((2.9,), "256")(x, y, 8)
        with pytest.raises(LaunchError, match="'256'"):
            k(2, "256")(x, y, 8)

    @pytest.mark.parametrize("dim", [True, False, (True, 2), [4, False]])
    def test_bool_rejected(self, dim):
        # bool is an int: True would silently launch one block.
        with pytest.raises(LaunchError, match=re.escape(repr(dim))):
            normalize_dim(dim)

    def test_bool_launch_rejected(self):
        k = make_kernel([])
        with pytest.raises(LaunchError, match="True"):
            k(True, 256)


class TestLaunchValidation:
    def test_block_limit(self):
        k = make_kernel([])
        with pytest.raises(LaunchError):
            k(4, 2048)

    def test_2d_block_limit(self):
        k = make_kernel([])
        with pytest.raises(LaunchError):
            k(4, (64, 64))  # 4096 threads

    def test_wrong_arg_count(self):
        launches = []
        k = make_kernel(launches)
        x = DeviceArray(8)
        with pytest.raises(LaunchError):
            k(1, 32)(x, x)

    def test_scalar_in_pointer_slot(self):
        k = make_kernel([])
        x = DeviceArray(8)
        with pytest.raises(LaunchError):
            k(1, 32)(3, x, 8)

    def test_array_in_scalar_slot(self):
        k = make_kernel([])
        x = DeviceArray(8)
        with pytest.raises(LaunchError):
            k(1, 32)(x, x, x)

    def test_unattached_kernel_rejects_launch(self):
        k = build_kernel(lambda x, n: None, "k", "ptr, sint32")
        with pytest.raises(LaunchError):
            k(1, 32)(DeviceArray(4), 4)


class TestNonFiniteCost:
    """A non-finite cost fails the launch itself, naming the kernel,
    instead of a later sync with an anonymous time-step error."""

    @pytest.mark.parametrize("flops", [float("nan"), float("inf")])
    def test_launch_names_the_kernel(self, flops):
        session = Session()
        k = session.build_kernel(
            lambda x, n: None,
            "bad_cost",
            "ptr, sint32",
            cost_model=LinearCostModel(flops_per_item=flops),
        )
        x = session.array(64)
        with pytest.raises(LaunchError, match="bad_cost.*flops"):
            k(1, 32)(x, 64)

    @pytest.mark.parametrize("flops", [float("nan"), float("inf"), -1.0])
    def test_request_names_the_field(self, flops):
        with pytest.raises(ValueError, match="flops"):
            KernelResourceRequest(
                flops=flops, fp64=False, dram_bytes=0.0, l2_bytes=0.0,
                instructions=0.0, threads_total=1,
            )


class TestLaunchPackaging:
    def test_launch_captures_geometry(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        k(4, 32)(x, y, 8)
        [launch] = launches
        assert launch.grid == (4, 1, 1)
        assert launch.block == (32, 1, 1)
        assert launch.blocks == 4
        assert launch.threads_per_block == 32
        assert launch.threads_total == 128
        assert launch.label == "axpy"

    def test_access_kinds_from_signature(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        k(1, 32)(x, y, 8)
        [launch] = launches
        accesses = dict(
            (arr.name, kind) for arr, kind in launch.array_args
        )
        assert accesses[x.name] is AccessKind.READ
        assert accesses[y.name] is AccessKind.READ_WRITE

    def test_scalars_separated(self):
        launches = []
        k = make_kernel(launches)
        k(1, 32)(DeviceArray(8), DeviceArray(8), 8)
        assert launches[0].scalar_args == (8,)

    def test_execute_runs_numpy(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        x.kernel_view[:] = 1.0
        k(1, 32)(x, y, 8)
        launches[0].execute()
        assert np.all(y.kernel_view == 2.0)

    def test_launch_count(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        k(1, 32)(x, y, 8)
        k(1, 32)(x, y, 8)
        assert k.launch_count == 2

    def test_launch_count_counts_dispatches_of_a_bound_launch(self):
        launches = []
        k = make_kernel(launches)
        x, y = DeviceArray(8), DeviceArray(8)
        launch = k(1, 32).bind(x, y, 8)
        assert k.launch_count == 0 and launches == []
        for _ in range(3):
            launch.dispatch()
        k(1, 32)(x, y, 8)
        assert k.launch_count == 4
        assert launches[:3] == [launch] * 3
        assert all(sent is launch for sent in launches[:3])
        assert launches[3] == launch and launches[3] is not launch

    def test_unattached_bound_launch_rejects_dispatch(self):
        k = build_kernel(lambda x, n: None, "k", "ptr, sint32")
        launch = k(1, 32).bind(DeviceArray(4), 4)
        with pytest.raises(LaunchError, match="not attached"):
            launch.dispatch()

    def test_launch_facts_are_kept_on_the_launch(self):
        k = make_kernel([])
        x, y = DeviceArray(8, name="x"), DeviceArray(4, name="y")
        launch = k(1, 32).bind(x, y, 8)
        assert launch.data_bytes == float(x.nbytes + y.nbytes)
        reads, writes, names = launch.tokens(0)
        assert reads == (x.copy_keys[0], y.copy_keys[0])
        assert writes == (y.copy_keys[0],)
        assert names == ((x.copy_keys[0], "x"), (y.copy_keys[0], "y"))
        assert launch.tokens(0) is launch.tokens(0)
        # A rebuilt launch is equal and hashes alike, but builds its own.
        rebuilt = type(launch)(*launch)
        assert rebuilt == launch and hash(rebuilt) == hash(launch)
        assert rebuilt.tokens(0) == launch.tokens(0)
        assert rebuilt.tokens(0) is not launch.tokens(0)

    def test_price_is_kept_on_the_launch(self):
        # FixedCostModel builds a fresh request on every call.
        k = build_kernel(
            lambda x, n: None, "k", "ptr, sint32",
            cost_model=FixedCostModel(flops=1e6),
        )
        launch = k((4, 2), (32, 2)).bind(DeviceArray(8), 8)
        assert launch.resources() is launch.resources()
        assert launch.resources().threads_total == 512
        assert (launch.blocks, launch.threads_per_block) == (8, 64)
        assert launch.threads_total == 512 and launch.label == "k"
        wider = launch._replace(block=(128, 1, 1))
        assert (wider.threads_per_block, wider.threads_total) == (128, 1024)

    def test_merged_kinds_and_history_key_are_kept(self):
        k = build_kernel(
            lambda x, y, n: None, "k", "const ptr, ptr, sint32"
        )
        x = DeviceArray(1024)
        launch = k(2, 64).bind(x, x, 8)
        assert launch.access_kinds() == {id(x): AccessKind.READ_WRITE}
        assert launch.access_kinds() is launch.access_kinds()
        assert launch.history_key == ("k", 64, 13)  # 2 * 4 KB -> 2**13
        assert launch.history_key is launch.history_key


class TestCostModels:
    def _launch(self, model, n=1000):
        launches = []
        k = build_kernel(
            lambda x, n: None,
            "k",
            "ptr, sint32",
            cost_model=model,
            launch_handler=launches.append,
        )
        k(8, 128)(DeviceArray(n), n)
        return launches[0]

    def test_linear_scales_with_array_size(self):
        model = LinearCostModel(flops_per_item=2.0, dram_bytes_per_item=8.0)
        res = self._launch(model, n=1000).resources()
        assert res.flops == 2000.0
        assert res.dram_bytes == 8000.0
        assert res.threads_total == 8 * 128

    def test_linear_custom_items_fn(self):
        model = LinearCostModel(
            flops_per_item=1.0, items_fn=lambda launch: launch.scalar_args[0]
        )
        res = self._launch(model, n=500).resources()
        assert res.flops == 500.0

    def test_linear_base_terms(self):
        model = LinearCostModel(flops_per_item=1.0, flops_base=100.0)
        res = self._launch(model, n=10).resources()
        assert res.flops == 110.0

    def test_fixed_model(self):
        model = FixedCostModel(flops=42.0, dram_bytes=7.0)
        res = self._launch(model).resources()
        assert res.flops == 42.0
        assert res.dram_bytes == 7.0

    def test_fp64_flag_propagates(self):
        res = self._launch(LinearCostModel(fp64=True)).resources()
        assert res.fp64

    def test_no_array_args_falls_back_to_threads(self):
        launches = []
        k = build_kernel(
            lambda n: None,
            "k",
            "sint32",
            cost_model=LinearCostModel(flops_per_item=1.0),
            launch_handler=launches.append,
        )
        k(2, 64)(5)
        assert launches[0].resources().flops == 128.0


class TestRegistry:
    def test_register_and_build_by_name(self):
        reg = KernelRegistry()
        reg.register("scale", lambda x, n: None, FixedCostModel(flops=1.0))
        k = build_kernel("scale", "scale_k", "ptr, sint32", registry=reg)
        assert k.name == "scale_k"
        assert k.cost_model.flops == 1.0

    def test_duplicate_rejected(self):
        reg = KernelRegistry()
        reg.register("a", lambda: None)
        with pytest.raises(ValueError):
            reg.register("a", lambda: None)

    def test_unknown_name_rejected(self):
        reg = KernelRegistry()
        with pytest.raises(LaunchError):
            build_kernel("nope", "k", "ptr", registry=reg)

    def test_contains_and_names(self):
        reg = KernelRegistry()
        reg.register("b", lambda: None)
        reg.register("a", lambda: None)
        assert "a" in reg and "c" not in reg
        assert reg.names() == ["a", "b"]

    def test_cost_model_override(self):
        reg = KernelRegistry()
        reg.register("k", lambda x, n: None, FixedCostModel(flops=1.0))
        k = build_kernel(
            "k", "k", "ptr, sint32",
            cost_model=FixedCostModel(flops=9.0), registry=reg,
        )
        assert k.cost_model.flops == 9.0
