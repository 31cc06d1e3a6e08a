"""Property tests of the contention-class model.

The class-based allocator prices one rate per distinct resource
signature instead of one per running op.  These tests pin it against
``reference_contention.ReferenceContentionModel`` — the frozen per-op
allocator — on random running sets (mixed kernels/transfers, duplicate
signatures, FP64, fault bytes):

* mathematically the two are the same formula, differing only in float
  fold *order* (the reference folds pool weights in running-list order,
  the class model folds per-class ladders in signature order), so rates
  agree to 1e-9 relative on arbitrary inputs;
* when the running set is a single class the folds coincide term for
  term, so equality is **exact** — no tolerance;
* the incremental multiset (``class_add`` / ``class_remove``) must be
  **bit-identical** to a one-shot ``allocate`` of the same set, with the
  reprice memo on or off: both price the same signature-sorted class
  tuple through one pricing function, which is the invariant the
  engine's golden tests rely on.

Plus the scaling regression the rewrite exists for: class count stays
O(distinct signatures) — not O(streams) — under 256 homogeneous streams.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from reference_contention import ReferenceContentionModel

from repro.gpusim.contention import ContentionModel
from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.ops import (
    KernelOp,
    KernelResourceRequest,
    TransferDirection,
    TransferOp,
)
from repro.gpusim.specs import GTX1660_SUPER, TESLA_P100

SPECS = (GTX1660_SUPER, TESLA_P100)

#: (flops, fp64, dram, l2, instructions, threads, fault, cap)
resource_params = st.tuples(
    st.floats(0, 1e12),
    st.booleans(),
    st.floats(0, 1e10),
    st.floats(0, 1e10),
    st.floats(0, 1e11),
    st.integers(32, 1 << 20),
    st.floats(0, 1e9),
    st.floats(0.1, 1.0),
)


def _kernel(params) -> KernelOp:
    flops, fp64, dram, l2, instr, threads, fault, cap = params
    return KernelOp(
        label="k",
        resources=KernelResourceRequest(
            flops=flops,
            fp64=fp64,
            dram_bytes=dram,
            l2_bytes=l2,
            instructions=instr,
            threads_total=threads,
            fault_bytes=fault,
            sm_fraction_cap=cap,
        ),
    )


def _transfer(direction, nbytes) -> TransferOp:
    return TransferOp(label="t", direction=direction, nbytes=nbytes)


@st.composite
def running_sets(draw):
    """A running set drawn from a small signature pool (so duplicate
    signatures are common — each duplicate is a fresh request object,
    exercising value-based interning), mixed with transfers, in a
    random submission order."""
    pool = draw(
        st.lists(resource_params, min_size=1, max_size=4, unique=True)
    )
    picks = draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=16
        )
    )
    ops: list = [_kernel(pool[i]) for i in picks]
    transfers = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        TransferDirection.HOST_TO_DEVICE,
                        TransferDirection.DEVICE_TO_HOST,
                    ]
                ),
                st.floats(1, 1e9),
            ),
            max_size=4,
        )
    )
    ops.extend(_transfer(d, n) for d, n in transfers)
    return draw(st.permutations(ops))


@st.composite
def homogeneous_sets(draw):
    """Many ops of ONE signature (one contention class)."""
    params = draw(resource_params)
    count = draw(st.integers(2, 20))
    return [_kernel(params) for _ in range(count)]


class TestClassedMatchesReference:
    @given(running=running_sets(), spec=st.sampled_from(SPECS))
    @settings(max_examples=150, deadline=None)
    def test_rates_match_reference(self, running, spec):
        """Class pricing equals the frozen per-op allocator: exact for
        transfers (verbatim DMA logic), 1e-9 relative for kernels
        (same formula, different float fold order)."""
        got = ContentionModel(spec).allocate(list(running))
        want = ReferenceContentionModel(spec).allocate(list(running))
        assert set(got.rates) == set(want.rates)
        for op in running:
            g, w = got.rates[op.op_id], want.rates[op.op_id]
            if isinstance(op, TransferOp):
                assert g == w
            else:
                assert math.isclose(g, w, rel_tol=1e-9), (op, g, w)
        assert set(got.kernel_sm_share) == set(want.kernel_sm_share)
        for op_id, share in want.kernel_sm_share.items():
            assert math.isclose(
                got.kernel_sm_share[op_id], share, rel_tol=1e-9
            )

    @given(kernels=homogeneous_sets(), spec=st.sampled_from(SPECS))
    @settings(max_examples=100, deadline=None)
    def test_single_class_exact(self, kernels, spec):
        """One signature: the class ladder IS the reference's sequential
        fold, so equality is bit-exact."""
        got = ContentionModel(spec).allocate(list(kernels))
        want = ReferenceContentionModel(spec).allocate(list(kernels))
        for k in kernels:
            assert got.rates[k.op_id] == want.rates[k.op_id]
            assert (
                got.kernel_sm_share[k.op_id]
                == want.kernel_sm_share[k.op_id]
            )


class TestIncrementalMatchesOneShot:
    @pytest.mark.parametrize("memo", [True, False], ids=["memo-on", "memo-off"])
    @given(
        running=running_sets(),
        spec=st.sampled_from(SPECS),
        drop_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_incremental_reprice_is_bit_identical(
        self, memo, running, spec, drop_seed
    ):
        """Adding kernels one at a time then repricing gives exactly the
        one-shot allocation, including after removing a subset — with
        the reprice memo on, and off as it turns itself off when its hit
        rate stays low."""
        kernels = [op for op in running if isinstance(op, KernelOp)]
        if not kernels:
            return
        model = ContentionModel(spec)
        if not memo:
            model._price_memo = None
        cls_of = {k.op_id: model.class_add(k) for k in kernels}

        def check(current):
            priced = {
                cls: (rate, share)
                for cls, rate, share in model.reprice_classes()
            }
            want = ContentionModel(spec).allocate(list(current))
            for k in current:
                rate, share = priced[cls_of[k.op_id]]
                assert rate == want.rates[k.op_id]
                assert share == want.kernel_sm_share[k.op_id]

        check(kernels)
        # Remove a deterministic pseudo-random subset and re-check.
        keep, dropped = [], []
        for i, k in enumerate(kernels):
            if (drop_seed >> (i % 32)) & 1:
                model.class_remove(cls_of[k.op_id])
                model.forget_op(k.op_id)
                dropped.append(k)
            else:
                keep.append(k)
        if keep:
            check(keep)
        assert model.active_class_count <= len(
            {k.resources.signature() for k in keep}
        )


class TestClassCountRegression:
    def test_256_homogeneous_streams_one_class(self):
        """256 live streams of identical kernels must collapse to ONE
        contention class — the per-op cost the rewrite removes."""
        engine = SimEngine(Device(GTX1660_SUPER))
        streams = [engine.create_stream() for _ in range(256)]
        for i in range(512):
            engine.submit(
                streams[i % 256],
                KernelOp(
                    label=f"k{i}",
                    resources=KernelResourceRequest(
                        flops=1e9,
                        fp64=False,
                        dram_bytes=float(1 << 20),
                        l2_bytes=0.0,
                        instructions=0.0,
                        threads_total=2048,
                    ),
                ),
            )
        engine.sync_all()
        assert engine.counters.get("engine.classes") == 1
        assert engine.device.contention.active_class_count == 0

    def test_class_watermark_tracks_distinct_signatures(self):
        """Mixed signatures: the class high-watermark is bounded by the
        number of distinct signatures, never by the stream count."""
        engine = SimEngine(Device(GTX1660_SUPER))
        streams = [engine.create_stream() for _ in range(64)]
        distinct = 4
        for i in range(256):
            engine.submit(
                streams[i % 64],
                KernelOp(
                    label=f"k{i}",
                    resources=KernelResourceRequest(
                        flops=1e9 * (1 + i % distinct),
                        fp64=False,
                        dram_bytes=float(1 << 18),
                        l2_bytes=0.0,
                        instructions=0.0,
                        threads_total=1024,
                    ),
                ),
            )
        engine.sync_all()
        watermark = engine.counters.get("engine.classes")
        assert 1 <= watermark <= distinct
