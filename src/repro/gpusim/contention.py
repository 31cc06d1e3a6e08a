"""Resource-sharing (contention) model.

Given the set of operations currently running on the device, the model
assigns each one a progress rate in work-units/second.  Rates stay
constant until the running set changes, so the engine can jump the clock
straight to the next completion.

Modelled resources
------------------
* **SMs** — each kernel can occupy at most the SM fraction its grid
  geometry allows (``threads_total / max_resident_threads``).  When the
  summed demand exceeds the device, allocations shrink proportionally
  (water-filling).  Small grids or tiny blocks leave SMs free: that is the
  space-sharing headroom the paper exploits.
* **Device-memory and L2 bandwidth** — each kernel's bandwidth demand is
  proportional to its compute speed; when aggregate demand exceeds device
  bandwidth, everyone slows by the same factor.  This yields the ~30-40 %
  contention loss of Fig. 9.
* **FP64 units** — double-precision FLOPs draw from a separate (much
  smaller on consumer parts) throughput pool, which is why B&S saturates
  a GTX 1660 but not a P100.
* **PCIe** — one link per direction; concurrent transfers in the same
  direction split the bandwidth evenly.
* **Page-fault controller** — kernels whose data was not prefetched
  migrate it on demand; all faulting kernels share the controller's
  sustained bandwidth, making it the bottleneck under concurrency
  (section V-C's argument for automatic prefetching).

Contention classes
------------------
Kernels with identical resource signatures (see
:meth:`repro.gpusim.ops.KernelResourceRequest.signature`) are
indistinguishable to the model: they demand the same SM fraction and the
same pool weights, so they always receive the same rate.  The model
therefore groups the running set into **contention classes** — one
interned :class:`_ContentionClass` per distinct signature — and prices
one rate per class instead of one per op.  Aggregates (SM demand, pool
weights) are evaluated per class from cached repeated-addition ladders,
making the allocation a pure function of the class *multiset*: any two
running lists with the same ops (in any order) price bit-identically,
which is the invariant the engine's golden tests pin down.

The model also maintains the active class multiset **incrementally**
(O(1) amortized per membership change), so the engine's hot path
reprices in O(classes) rather than O(running ops).  One pricing
function serves both that incremental reprice and the whole-list
:meth:`ContentionModel.allocate` the frozen reference engine calls.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.gpusim.ops import (
    KernelOp,
    Operation,
    TransferDirection,
    TransferOp,
)
from repro.gpusim.specs import GPUSpec

#: Progress below this is treated as a stall (guards divide-by-zero).
_EPSILON = 1e-18

#: Rate assigned to transfers queued behind their direction's DMA engine
#: head.  Must be positive (the engine rejects stalled ops) but small
#: enough to be negligible over any simulated horizon.
DMA_QUEUE_RATE = 1e-6


@dataclass(frozen=True)
class RateAllocation:
    """Rates assigned to the running set at one instant.

    ``rates`` maps op_id -> work-units/second.  ``kernel_sm_share`` maps
    op_id -> granted SM fraction (for timeline/occupancy reporting).
    """

    rates: dict[int, float]
    kernel_sm_share: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class KernelTimings:
    """Uncontended roofline terms for one kernel launch, in seconds.

    ``duration`` is the max of the steady-state terms — the classical
    roofline: a kernel is as slow as its most saturated resource — plus
    the page-fault term.  Fault migration is *additive*: on-demand UM
    pages stall the kernel at first touch rather than overlapping with
    its steady-state execution (which is precisely why the paper's
    automatic prefetching wins).
    """

    compute_time: float
    dram_time: float
    l2_time: float
    instruction_time: float
    fault_time: float
    sm_fraction: float

    @property
    def duration(self) -> float:
        steady = max(
            self.compute_time,
            self.dram_time,
            self.l2_time,
            self.instruction_time,
            _EPSILON,
        )
        return steady + self.fault_time


class _ContentionClass:
    """One interned kernel resource signature.

    Holds the signature's roofline timings plus a cached
    *repeated-addition ladder* per shared resource: ``ladder[k]`` is the
    term added to itself ``k`` times left-to-right in float arithmetic.
    Aggregating ``k`` identical members through the ladder is bitwise
    equal to folding them one by one, but costs O(1) amortized — the
    incremental aggregate maintenance the engine's reprice relies on.

    Aggregate index 0 is the SM demand (``sm_fraction``); 1..3 are the
    DRAM / L2 / page-fault pool weights (``pool_time / duration``).
    """

    __slots__ = (
        "signature", "timings", "duration", "sm_frac", "pool_used",
        "_ladders",
    )

    def __init__(self, signature: tuple, timings: KernelTimings) -> None:
        self.signature = signature
        self.timings = timings
        self.duration = timings.duration
        self.sm_frac = timings.sm_fraction
        #: whether this class draws on each shared pool at all — the cap
        #: applies to pool *users*, keyed on the raw pool time (not the
        #: weight, which can underflow to 0.0 for extreme durations)
        self.pool_used = (
            True,  # every kernel occupies SMs
            timings.dram_time > 0,
            timings.l2_time > 0,
            timings.fault_time > 0,
        )
        d = self.duration
        self._ladders = (
            [0.0, timings.sm_fraction],
            [0.0, timings.dram_time / d],
            [0.0, timings.l2_time / d],
            [0.0, timings.fault_time / d],
        )

    def aggregate(self, index: int, count: int) -> float:
        """``count`` members' summed contribution to aggregate ``index``
        (exact repeated float addition, cached)."""
        ladder = self._ladders[index]
        if count >= len(ladder):
            term = ladder[1]
            value = ladder[-1]
            append = ladder.append
            for _ in range(count - len(ladder) + 1):
                value += term
                append(value)
        return ladder[count]


class ContentionModel:
    """Computes per-operation progress rates for a running set.

    The engine adds and removes running kernels one at a time
    (:meth:`class_add` / :meth:`class_remove`, O(1) amortized: a count
    bump, plus a sorted-insert only when a signature first appears) and
    reprices in O(classes) via :meth:`reprice_classes`.  The one-shot
    :meth:`allocate` prices a whole running list without that state.
    Both go through :meth:`_price` over the same signature-sorted class
    order and the same ladder values, so they are bit-identical on equal
    running sets — the property the frozen reference engine's golden
    tests rely on.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        #: interned contention classes, keyed by resource signature
        self._classes: dict[tuple, _ContentionClass] = {}
        #: per-class pricing columns keyed by the live class tuple (see
        #: :meth:`_columns_for`)
        self._column_memo: dict[tuple, tuple] = {}
        #: op_id -> contention class: memoizes ``kernel_timings`` per
        #: launch (resources are immutable after submit, so nothing ever
        #: invalidates; the engine prunes entries on op completion via
        #: :meth:`forget_op`)
        self._op_class: dict[int, _ContentionClass] = {}
        #: active classes in signature order, with a parallel member
        #: count list (tuple-copied into the memo key) and a parallel
        #: signature-key list for bisect, so reprice never has to sort
        self._active_sorted: list[_ContentionClass] = []
        self._active_counts: list[int] = []
        self._active_keys: list[tuple] = []
        #: cached ``tuple(_active_sorted)`` — the class *set* changes
        #: only on first-appearance/last-leave, far more rarely than the
        #: counts, so the memo key reuses one shared tuple
        self._active_tuple: tuple | None = None
        #: class -> index into the parallel lists (O(1) count bumps; the
        #: suffix is renumbered on the rare first-appearance insert)
        self._active_pos: dict[_ContentionClass, int] = {}
        #: incrementally maintained aggregate columns, parallel to
        #: ``_active_sorted``: ``_sub[k][i]`` is class i's ladder value
        #: for aggregate k (SM demand, DRAM/L2/fault pool weight) at its
        #: current member count.  Updated O(1) per membership change, so
        #: a reprice hands :meth:`_price` ready-made float lists.
        self._sub: tuple[list[float], ...] = ([], [], [], [])
        #: pricing memo keyed by the active (classes, counts) multiset —
        #: churn workloads revisit the same running sets, so repeat
        #: reprices become two tuple copies and a dict hit.  At high
        #: stream counts the count multisets rarely repeat; once misses
        #: dominate, the memo turns itself off so the hot path stops
        #: paying the key build + store for nothing.
        self._price_memo: dict[tuple, list] | None = {}
        self._price_memo_hits = 0
        self._price_memo_calls = 0

    # -- single-kernel roofline -----------------------------------------

    def kernel_sm_fraction(
        self, threads_total: int, cap: float = 1.0
    ) -> float:
        """Fraction of the device's SMs a launch can occupy on its own.

        ``cap`` models occupancy limited by shared memory or registers:
        even an arbitrarily large grid cannot exceed it.
        """
        frac = threads_total / self.spec.max_resident_threads
        frac = max(frac, 1.0 / self.spec.sm_count)
        return min(1.0, frac, cap)

    def class_of(self, op: KernelOp) -> _ContentionClass:
        """The interned contention class of one kernel launch."""
        cls = self._op_class.get(op.op_id)
        if cls is None:
            res = op.resources
            assert res is not None
            sig = res.signature()
            cls = self._classes.get(sig)
            if cls is None:
                cls = _ContentionClass(sig, self._compute_timings(op))
                self._classes[sig] = cls
            self._op_class[op.op_id] = cls
        return cls

    def forget_op(self, op_id: int) -> None:
        """Drop the per-op memo entry (called on op completion so the
        memo does not grow without bound in long-lived engines)."""
        self._op_class.pop(op_id, None)

    def kernel_timings(self, op: KernelOp) -> KernelTimings:
        """Uncontended execution-time components of one kernel
        (memoized per ``op_id`` via the class intern table)."""
        return self.class_of(op).timings

    def _compute_timings(self, op: KernelOp) -> KernelTimings:
        res = op.resources
        assert res is not None
        sm_frac = self.kernel_sm_fraction(
            res.threads_total, res.sm_fraction_cap
        )
        # Compute-like resources scale with the SM fraction actually
        # occupied; bandwidth-like resources are device-wide.
        flops_rate = self.spec.flops_rate(res.fp64) * sm_frac
        instr_rate = self.spec.instruction_rate() * sm_frac
        dram_bw = self.spec.dram_bandwidth_gbs * 1e9
        l2_bw = self.spec.l2_bandwidth_gbs * 1e9
        fault_bw = self.spec.pagefault_bandwidth_gbs * 1e9

        compute_time = res.flops / max(flops_rate, _EPSILON)
        instruction_time = res.instructions / max(instr_rate, _EPSILON)
        dram_time = res.dram_bytes / dram_bw
        l2_time = res.l2_bytes / l2_bw
        if res.fault_bytes > 0:
            if fault_bw <= 0:
                raise ValueError(
                    f"{self.spec.name} has no page-fault engine but kernel"
                    f" {op.label!r} has fault_bytes set"
                )
            fault_time = res.fault_bytes / fault_bw
        else:
            fault_time = 0.0
        return KernelTimings(
            compute_time=compute_time,
            dram_time=dram_time,
            l2_time=l2_time,
            instruction_time=instruction_time,
            fault_time=fault_time,
            sm_fraction=sm_frac,
        )

    def kernel_duration(self, op: KernelOp) -> float:
        """Uncontended wall-time of one kernel launch."""
        return self.kernel_timings(op).duration

    # -- class pricing ---------------------------------------------------

    def _columns_for(self, classes: tuple) -> tuple:
        """Per-class column arrays for ``classes`` (a signature-sorted
        tuple), memoized: the *set* of live classes changes far more
        slowly than the member counts, so pricing reuses the columns
        across reprices and only folds the counts."""
        columns = self._column_memo.get(classes)
        if columns is None:
            pool_used = [cls.pool_used for cls in classes]
            columns = (
                [cls.sm_frac for cls in classes],
                [cls.duration for cls in classes],
                pool_used,
                # pools with no user at all fold to exactly 0.0: skip
                tuple(
                    pool
                    for pool in (1, 2, 3)
                    if any(used[pool] for used in pool_used)
                ),
            )
            if len(self._column_memo) >= 1024:
                self._column_memo.clear()
            self._column_memo[classes] = columns
        return columns

    def _price(
        self, classes: tuple, sums: Sequence[list[float]]
    ) -> tuple[list[float], list[float]]:
        """Per-class kernel rates and SM shares for ``classes``, a
        signature-sorted class tuple, where ``sums[k][i]`` is class
        ``i``'s ladder value for aggregate ``k`` at its member count
        (:meth:`_ContentionClass.aggregate`).

        O(len(classes)).  The result is a pure (bitwise-deterministic)
        function of the class multiset: aggregates fold per-class ladder
        values in signature order, never in running-list order, so every
        permutation of the same running set prices identically.

        1. SM water-filling: grant each class its demanded fraction,
           scaled down if the device is over-committed.
        2. Shared device-wide pools: DRAM bandwidth, L2 bandwidth and
           the page-fault controller.  A kernel whose uncontended
           duration is T and whose pool term is p uses fraction
           ``w = p/T`` of the pool at full speed, so the pool's
           aggregate weight is ``W = sum(w)`` over its users; when the
           pool is over-subscribed every user is capped at speed
           ``1/W`` (proportional sharing), which caps aggregate
           utilisation at ``sum((1/W) * w) = 1``.  Non-users are
           untouched.  Both cap terms — the SM water-filling scale and
           ``1/W`` — can only shrink when a kernel is added (ladder
           steps are non-negative and float addition/division are
           monotone), so the allocation is *monotone*: adding a kernel
           never raises any existing kernel's rate (the property the
           engine's next-completion jumps rely on).  (FP64 units need no
           extra pool: they live per-SM, so their sharing is exactly the
           SM water-filling above — the scarcity of FP64 on consumer
           parts is captured in the solo roofline.)

        Arithmetic is arranged for speed but stays bitwise equal to
        those per-class folds: non-users contribute exactly ``+0.0`` to
        a pool fold (``w + 0.0 == w`` for non-negative ``w``), an
        undersubscribed device multiplies by exactly 1.0
        (``x * 1.0 == x``), and a granted-over-demanded ratio of equal
        floats is exactly 1.0.
        """
        fracs, durations, pool_used, live_pools = self._columns_for(classes)
        total_demand = sum(sums[0])
        if total_demand <= 1.0:
            shares = fracs[:]
            speeds = [1.0] * len(fracs)
        else:
            sm_scale = 1.0 / total_demand
            shares = [frac * sm_scale for frac in fracs]
            speeds = [share / frac for share, frac in zip(shares, fracs)]

        for pool in live_pools:
            weight = sum(sums[pool])
            if weight <= 1.0:
                continue
            cap = 1.0 / weight
            speeds = [
                (cap if cap < speed else speed) if used[pool] else speed
                for speed, used in zip(speeds, pool_used)
            ]

        rates = [
            speed / duration
            for speed, duration in zip(speeds, durations)
        ]
        return rates, shares

    # -- incremental class multiset (the engine's hot path) ---------------

    def class_add(self, op: KernelOp) -> _ContentionClass:
        """Register one running kernel; returns its class."""
        cls = self.class_of(op)
        pos = self._active_pos.get(cls)
        if pos is None:
            pos = bisect_left(self._active_keys, cls.signature)
            self._active_keys.insert(pos, cls.signature)
            self._active_sorted.insert(pos, cls)
            self._active_counts.insert(pos, 0)
            for column in self._sub:
                column.insert(pos, 0.0)
            self._active_tuple = None
            renumber = self._active_pos
            for i in range(pos, len(self._active_sorted)):
                renumber[self._active_sorted[i]] = i
        count = self._active_counts[pos] + 1
        self._active_counts[pos] = count
        for k, column in enumerate(self._sub):
            column[pos] = cls.aggregate(k, count)
        return cls

    def class_remove(self, cls: _ContentionClass) -> None:
        """Deregister one running member of ``cls``."""
        pos = self._active_pos[cls]
        count = self._active_counts[pos] - 1
        if count:
            self._active_counts[pos] = count
            for k, column in enumerate(self._sub):
                column[pos] = cls.aggregate(k, count)
        else:
            del self._active_keys[pos]
            del self._active_sorted[pos]
            del self._active_counts[pos]
            for column in self._sub:
                del column[pos]
            self._active_tuple = None
            renumber = self._active_pos
            del renumber[cls]
            for i in range(pos, len(self._active_sorted)):
                renumber[self._active_sorted[i]] = i

    @property
    def active_class_count(self) -> int:
        return len(self._active_sorted)

    def reprice_classes(
        self,
    ) -> list[tuple[_ContentionClass, float, float]]:
        """Price the active classes: ``[(class, rate, sm_share), ...]``.

        O(classes); bitwise equal to what :meth:`allocate` would assign
        each class's members on the same running set.  Results are
        memoized on the (classes, counts) multiset: pricing is a pure
        function of it, and engine churn cycles through a small family
        of running sets, so repeat sets cost one dict lookup.
        """
        if not self._active_sorted:
            return []
        classes = self._active_tuple
        if classes is None:
            classes = self._active_tuple = tuple(self._active_sorted)
        memo = self._price_memo
        if memo is None:
            rates, shares = self._price(classes, self._sub)
            return list(zip(classes, rates, shares))
        key = (classes, tuple(self._active_counts))
        priced = memo.get(key)
        self._price_memo_calls += 1
        if priced is None:
            rates, shares = self._price(classes, self._sub)
            priced = list(zip(classes, rates, shares))
            if len(memo) >= 8192:
                memo.clear()
            memo[key] = priced
            if (
                self._price_memo_calls >= 512
                and self._price_memo_hits * 10 < self._price_memo_calls
            ):
                self._price_memo = None
        else:
            self._price_memo_hits += 1
        return priced

    # -- one-shot running-set rate allocation -----------------------------

    def allocate(self, running: list[Operation]) -> RateAllocation:
        """Assign progress rates to every running operation.

        Kernels interact through SM allocation, the shared DRAM/L2/FP64
        pools and the page-fault controller; transfers interact through
        per-direction PCIe sharing.  Kernels and transfers do not slow
        each other down (DMA engines are independent of the SMs), which is
        exactly the transfer/compute overlap the scheduler exploits.

        Prices the whole list without the incremental multiset: this is
        the form the frozen reference engine calls every step.
        """
        rates: dict[int, float] = {}
        sm_share: dict[int, float] = {}

        kernels = [op for op in running if isinstance(op, KernelOp)]
        transfers = [op for op in running if isinstance(op, TransferOp)]

        self._allocate_kernels(kernels, rates, sm_share)
        self._allocate_transfers(transfers, rates)

        for op in running:
            if op.op_id not in rates:
                # Zero-duration ops complete immediately; the engine
                # handles them before asking for rates, but be safe.
                rates[op.op_id] = float("inf")
        return RateAllocation(rates=rates, kernel_sm_share=sm_share)

    def _allocate_kernels(
        self,
        kernels: list[KernelOp],
        rates: dict[int, float],
        sm_share: dict[int, float],
    ) -> None:
        if not kernels:
            return
        kernel_classes = [self.class_of(k) for k in kernels]
        counts: dict[_ContentionClass, int] = {}
        for cls in kernel_classes:
            counts[cls] = counts.get(cls, 0) + 1
        classes = tuple(sorted(counts, key=lambda cls: cls.signature))
        sums = [
            [cls.aggregate(k, counts[cls]) for cls in classes]
            for k in range(4)
        ]
        priced = dict(zip(classes, zip(*self._price(classes, sums))))
        for k, cls in zip(kernels, kernel_classes):
            rates[k.op_id], sm_share[k.op_id] = priced[cls]

    def _allocate_transfers(
        self, transfers: list[TransferOp], rates: dict[int, float]
    ) -> None:
        """PCIe transfer rates.

        GPUs have one DMA copy engine per direction: same-direction
        transfers do not split the link, they serialize in submission
        order (the staircase visible in the paper's Fig. 10 timeline).
        Opposite directions run full duplex.  The head of each
        direction's queue gets the full link; the rest trickle at
        :data:`DMA_QUEUE_RATE` until the engine reprices on its
        completion.
        """
        if not transfers:
            return
        pcie_bw = self.spec.pcie_bandwidth_gbs * 1e9
        by_dir: dict[TransferDirection, list[TransferOp]] = {}
        for t in transfers:
            by_dir.setdefault(t.direction, []).append(t)
        for ops in by_dir.values():
            ops.sort(key=lambda t: t.op_id)  # submission order
            rates[ops[0].op_id] = pcie_bw
            for t in ops[1:]:
                rates[t.op_id] = DMA_QUEUE_RATE
