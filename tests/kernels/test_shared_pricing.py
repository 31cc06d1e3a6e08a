"""Launch pricing is computed once per size and shared: a cost model
hands every launch of one item count and geometry the same immutable
request, and the launch values themselves are read-only."""

import dataclasses
import pickle

import pytest

from repro.gpusim.ops import KernelResourceRequest
from repro.kernels import LinearCostModel, build_kernel, combine_resources
from repro.kernels.kernel import ConfiguredKernel, KernelLaunch
from repro.memory import AccessKind, DeviceArray
from repro.workloads.ml import _mmul_items


LAUNCH_FIELDS = (
    "kernel", "grid", "block", "args", "array_args", "scalar_args",
)


def _kernel(model, signature="ptr, sint32"):
    launches = []
    k = build_kernel(
        lambda *args: None, "k", signature,
        cost_model=model, launch_handler=launches.append,
    )
    return k, launches


def _elementwise():
    return LinearCostModel(flops_per_item=2.0, dram_bytes_per_item=8.0)


class TestSharedRequest:
    def test_equal_size_and_geometry_share_one_request(self):
        k, launches = _kernel(_elementwise())
        k(8, 128)(DeviceArray(1000), 1000)
        k(8, 128)(DeviceArray(1000), 1000)
        first, second = (launch.resources() for launch in launches)
        assert first is second

    def test_other_size_or_geometry_gets_its_own(self):
        k, launches = _kernel(_elementwise())
        k(8, 128)(DeviceArray(1000), 1000)
        k(8, 128)(DeviceArray(2000), 2000)
        k(16, 128)(DeviceArray(1000), 1000)
        base, bigger, wider = (launch.resources() for launch in launches)
        assert bigger is not base and bigger.flops == 2 * base.flops
        assert wider is not base and wider.threads_total == 16 * 128
        assert wider.flops == base.flops

    def test_items_from_scalar_arguments(self):
        model = LinearCostModel(flops_per_item=2.0, items_fn=_mmul_items)
        k, launches = _kernel(
            model, "const ptr, const ptr, ptr, sint32, sint32, sint32"
        )
        x, w, r = DeviceArray(64), DeviceArray(64), DeviceArray(64)
        k(4, 64)(x, w, r, 100, 8, 2)
        k(4, 64)(DeviceArray(8), w, r, 100, 8, 2)  # same items: shared
        k(4, 64)(x, w, r, 200, 8, 2)
        same, shared, other = (launch.resources() for launch in launches)
        assert shared is same
        assert other is not same
        assert (same.flops, other.flops) == (3200.0, 6400.0)

    def test_pricing_leaves_the_model_unchanged(self):
        model = LinearCostModel(
            flops_per_item=2.0, items_fn=_mmul_items, sm_fraction_cap=0.5
        )
        fresh = LinearCostModel(
            flops_per_item=2.0, items_fn=_mmul_items, sm_fraction_cap=0.5
        )
        before = (repr(model), hash(model))
        k, launches = _kernel(
            model, "const ptr, const ptr, ptr, sint32, sint32, sint32"
        )
        a = DeviceArray(64)
        for rows in (10, 20, 10):
            k(4, 64)(a, a, a, rows, 8, 2).resources()
        assert (repr(model), hash(model)) == before
        assert model == fresh and hash(model) == hash(fresh)
        assert repr(model) == repr(fresh)

    def test_fault_bytes_make_a_new_request(self):
        k, launches = _kernel(_elementwise())
        k(8, 128)(DeviceArray(1000), 1000)
        shared = launches[0].resources()
        faulted = combine_resources(shared, 1e6)
        assert faulted is not shared
        assert faulted.fault_bytes == 1e6
        assert shared.fault_bytes == 0.0
        assert launches[0].resources() is shared


class TestReadOnlyLaunchValues:
    def _launch(self):
        k, launches = _kernel(_elementwise())
        configured = k(8, 128)
        configured(DeviceArray(16), 16)
        return configured, launches[0]

    def test_resource_request_fields_cannot_be_assigned(self):
        _, launch = self._launch()
        request = launch.resources()
        for field in dataclasses.fields(KernelResourceRequest):
            with pytest.raises(AttributeError):
                setattr(request, field.name, 0)

    def test_launch_fields_cannot_be_assigned(self):
        configured, launch = self._launch()
        for name in ("kernel", "grid", "block"):
            with pytest.raises(AttributeError):
                setattr(configured, name, None)
        for name in LAUNCH_FIELDS:
            with pytest.raises(AttributeError):
                setattr(launch, name, None)

    def test_keyword_construction(self):
        configured, launch = self._launch()
        assert ConfiguredKernel(
            kernel=configured.kernel, grid=(8, 1, 1), block=(128, 1, 1)
        ) == configured
        rebuilt = KernelLaunch(
            kernel=launch.kernel,
            grid=launch.grid,
            block=launch.block,
            args=launch.args,
            array_args=launch.array_args,
            scalar_args=launch.scalar_args,
        )
        assert rebuilt == launch and hash(rebuilt) == hash(launch)
        assert rebuilt.array_args[0][1] is AccessKind.READ_WRITE

    def test_equality_is_by_value_within_one_type(self):
        configured, launch = self._launch()
        values = tuple(getattr(launch, name) for name in LAUNCH_FIELDS)
        assert launch != values and values != launch
        assert configured != (configured.kernel, (8, 1, 1), (128, 1, 1))

    def test_request_round_trips(self):
        _, launch = self._launch()
        request = launch.resources()
        back = pickle.loads(pickle.dumps(request))
        assert back == request and back.signature() == request.signature()
