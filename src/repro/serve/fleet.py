"""The simulated GPU fleet behind the serving layer.

A :class:`GpuFleet` is a pool of fleet *slots* plus the service-level
placement decision: *which slot serves the next admitted request*.  A
slot is not pinned to one GPU: the fleet takes a **topology spec**
(e.g. ``[2, 2, 1, 1]`` GPUs per slot), each slot owns one
:class:`~repro.gpusim.engine.SimEngine` over its devices and a
:class:`~repro.core.policies.SchedulerConfig`, and a single admitted
graph spans the slot's devices under the in-slot
:class:`~repro.core.policies.DevicePlacementPolicy` — the paper's
multi-GPU scheduler, reachable from the serving path.  A slot holds no
:class:`~repro.session.Session`: every served request builds its own
execution context (or, on a capture-cache hit, its own coherence
engine) on the slot's engine and closes it when its batch ends (see
:mod:`repro.parallel.work`).

Placement therefore composes across two levels:

* **service-level** (this module): which *slot* gets the request —
  ``ROUND_ROBIN`` cycles the fleet; ``LEAST_LOADED`` picks the slot
  with the least backlog ahead of the request per GPU (ties resolve by
  availability, then slot id, so serving replays are reproducible);
  ``MIN_TRANSFER`` prefers a slot
  that has already served this graph topology (*warm*: kernels built,
  capture plan exercised), pricing cold slots at the graph's full UM
  footprint and tie-breaking on availability then slot id.
* **in-slot** (:class:`~repro.core.context.ParallelExecutionContext`):
  which GPU of the slot runs each kernel, configured through the slot's
  :class:`~repro.core.policies.SchedulerConfig` ``placement`` knob
  (defaulting to the paper's MIN_TRANSFER pricing).

Each slot keeps a cache of timing-only kernels (no launch handler: the
context path hands each launch to the request's context, the replay
path submits it directly; their bodies run later, in the data plane of
:mod:`repro.parallel`) and reusable per-device replay-stream pools for
capture-cache fast paths.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.policies import DevicePlacementPolicy, SchedulerConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan, SlotHealth, SlotLifecycle
from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.specs import GPUSpec, gpu_by_name
from repro.gpusim.stream import SimStream
from repro.kernels.kernel import Kernel, timing_only
from repro.kernels.registry import build_kernel
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer, current_tracer
from repro.serve.request import GraphRequest

#: what one entry of a fleet topology spec may be (see
#: :func:`normalize_slot_spec`)
SlotSpec = "int | str | GPUSpec | Sequence[str | GPUSpec] | tuple"


def parse_fleet_spec(text: str) -> list[int]:
    """Parse a CLI fleet spec like ``"2,2,1,1"`` into GPUs-per-slot.

    Raises :class:`~repro.errors.ConfigError` (a :class:`ValueError`)
    on empty specs or non-positive counts.
    """
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(
            f"fleet spec {text!r} must be comma-separated integers"
            " (GPUs per slot), e.g. '2,2,1,1'"
        ) from None
    if not counts or any(c <= 0 for c in counts):
        raise ConfigError(
            f"fleet spec {text!r} needs at least one positive GPU count"
        )
    return counts


def _resolve_gpu(model: str | GPUSpec) -> GPUSpec:
    """A GPU name or spec -> spec; unknown names are a config mistake,
    not a lookup surprise."""
    if isinstance(model, GPUSpec):
        return model
    try:
        return gpu_by_name(model)
    except KeyError:
        raise ConfigError(
            f"unknown GPU model {model!r} in slot spec"
        ) from None


def normalize_slot_spec(
    entry: "SlotSpec", default_gpu: str | GPUSpec
) -> list[GPUSpec]:
    """One topology entry -> the slot's GPU list.

    Accepted forms: an ``int`` (that many ``default_gpu`` s), a GPU name
    or :class:`GPUSpec` (a 1-GPU slot), a ``(count, model)`` pair, or a
    sequence of names/specs (a heterogeneous slot).  Malformed entries
    raise :class:`~repro.errors.ConfigError` (a :class:`ValueError`).
    """
    if isinstance(entry, bool):
        raise ConfigError("a slot spec cannot be a bool")
    if isinstance(entry, int):
        if entry <= 0:
            raise ConfigError(f"a slot needs >= 1 GPU, got {entry}")
        return [_resolve_gpu(default_gpu)] * entry
    if isinstance(entry, (str, GPUSpec)):
        return [_resolve_gpu(entry)]
    entries = list(entry)
    if (
        len(entries) == 2
        and isinstance(entries[0], int)
        and isinstance(entries[1], (str, GPUSpec))
    ):
        count, model = entries
        if count <= 0:
            raise ConfigError(f"a slot needs >= 1 GPU, got {count}")
        return [_resolve_gpu(model)] * count
    if not entries:
        raise ConfigError("a slot spec cannot be empty")
    for e in entries:
        if not isinstance(e, (str, GPUSpec)):
            raise ConfigError(
                "a heterogeneous slot spec must list GPU names or"
                f" specs, got {e!r} — use an int (or a (count, model)"
                " pair) per slot for GPU counts"
            )
    return [_resolve_gpu(e) for e in entries]


class FleetSlot:
    """One serving slot of the fleet: a long-lived (possibly multi-GPU)
    engine, the scheduler configuration its requests run under, and
    serving state."""

    def __init__(
        self,
        index: int,
        specs: list[GPUSpec],
        config: SchedulerConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.index = index
        self.specs = tuple(specs)
        self.gpus = len(self.specs)
        self.config = config or SchedulerConfig()
        self.config.validate(gpus=self.gpus)
        self.devices = tuple(Device(s) for s in self.specs)
        self.engine = SimEngine(list(self.devices), tracer=tracer)
        # Per-device export tracks are named after the slot, not the
        # engine's attach ordinal.
        self.engine._obs_name = f"slot{index}"
        #: roll-up registry: retired requests' coherence counters merge
        #: here (per-request engines die with their submission)
        self.counters = CounterRegistry()
        #: kernel cache: KernelDecl.identity -> built Kernel
        self._kernels: dict[tuple, Kernel] = {}
        #: topology keys this slot has served (MIN_TRANSFER warmth)
        self.warm_topologies: set[tuple] = set()
        #: replay stream pools, one per slot device (capture fast path)
        self._replay_pools: dict[int, list[SimStream]] = {}
        self.requests_served = 0
        self.kernels_launched = 0
        #: health state machine; the default empty lifecycle never
        #: leaves HEALTHY, so fault-free serving is untouched
        self.lifecycle = SlotLifecycle(index)

    @property
    def health(self) -> SlotHealth:
        return self.lifecycle.state

    @property
    def admitting(self) -> bool:
        """Whether the slot accepts new dispatches (HEALTHY/DEGRADED)."""
        return self.lifecycle.admitting

    def cold_restart(self) -> None:
        """Forget warm state after a crash: built kernels and warm
        topologies die with the slot's (simulated) host process.  The
        service-level capture cache survives — plans are derived from
        topology alone — but MIN_TRANSFER warmth and the per-slot kernel
        cache must be re-earned after the restart."""
        self._kernels.clear()
        self.warm_topologies.clear()

    @property
    def clock(self) -> float:
        """Virtual time at which this slot would start new work."""
        return self.engine.clock

    @property
    def shape_key(self) -> tuple:
        """Hashable slot shape: device count + models.  Capture plans
        are keyed per (graph topology, slot shape) — a 2-GPU slot's
        replay schedule assigns devices, so a 1-GPU slot cannot share
        it."""
        return (self.gpus, tuple(s.name for s in self.specs))

    def kernel_for(self, decl) -> Kernel:
        """Build-or-reuse the timing-only kernel for ``decl`` on this
        slot: priced and scheduled like ``decl``, with no body."""
        kernel = self._kernels.get(decl.identity)
        if kernel is None:
            kernel = build_kernel(
                timing_only, decl.name, decl.signature,
                cost_model=decl.cost,
            )
            self._kernels[decl.identity] = kernel
        return kernel

    def replay_streams(
        self, stream_count: int, member: int = 0
    ) -> list[SimStream]:
        """The replay streams for one batch member: plan stream ``i``
        maps to slot device ``i % gpus`` (the deterministic round-robin
        the replay path shares with plan derivation), drawn from
        per-device pools that grow on demand.  Members get disjoint
        stream slices so they space-share instead of serializing behind
        shared FIFOs; pool streams are only used between engine syncs,
        so cross-batch reuse is safe."""
        per_member = -(-stream_count // self.gpus)  # ceil
        out: list[SimStream] = []
        next_on_device: dict[int, int] = {}
        for i in range(stream_count):
            device_index = i % self.gpus
            ordinal = next_on_device.get(device_index, 0)
            next_on_device[device_index] = ordinal + 1
            slot_index = member * per_member + ordinal
            pool = self._replay_pools.setdefault(device_index, [])
            while len(pool) <= slot_index:
                pool.append(
                    self.engine.create_stream(
                        label=(
                            f"replay{self.index}-g{device_index}"
                            f"-{len(pool)}"
                        ),
                        device_index=device_index,
                    )
                )
            out.append(pool[slot_index])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FleetSlot {self.index} {self.gpus}x"
            f" {self.specs[0].name} served={self.requests_served}>"
        )


class GpuFleet:
    """A fleet of serving slots with a service-level placement policy."""

    def __init__(
        self,
        slots: "Sequence[SlotSpec]",
        policy: DevicePlacementPolicy = DevicePlacementPolicy.LEAST_LOADED,
        config: SchedulerConfig | None = None,
        gpu: str | GPUSpec = "GTX 1660 Super",
        tracer: Tracer | None = None,
    ) -> None:
        if not slots:
            raise ValueError("a fleet needs at least one slot")
        self.tracer = current_tracer() if tracer is None else tracer
        # Slots get the *raw* optional: with no explicit tracer each
        # engine resolves the ambient default itself.
        self.slots = [
            FleetSlot(
                i,
                normalize_slot_spec(entry, gpu),
                config=config,
                tracer=tracer,
            )
            for i, entry in enumerate(slots)
        ]
        self.policy = policy
        self._rr_next = 0

    def attach_faults(self, plan: FaultPlan) -> None:
        """Arm each slot's lifecycle with its share of ``plan``.

        Specs targeting slot indexes outside the fleet — or whole
        cluster nodes, which only a :class:`~repro.cluster.Cluster` can
        honour — are rejected: a silently ignored fault would make a
        chaos run vacuously green.
        """
        top = plan.max_slot()
        if top >= len(self.slots):
            raise ValueError(
                f"fault plan targets slot {top} but the fleet has only"
                f" {len(self.slots)} slot(s)"
            )
        if plan.node_scoped():
            raise ValueError(
                "fault plan contains node-scoped specs; attach it to a"
                " Cluster, not a single fleet"
            )
        for slot in self.slots:
            slot.lifecycle = SlotLifecycle(
                slot.index, plan.for_slot(slot.index)
            )

    def admitting_gpus(self) -> int:
        return sum(s.gpus for s in self.slots if s.admitting)

    @property
    def topology(self) -> list[int]:
        """GPUs per slot, e.g. ``[2, 2, 1, 1]``."""
        return [slot.gpus for slot in self.slots]

    @property
    def total_gpus(self) -> int:
        return sum(slot.gpus for slot in self.slots)

    def gpu_models(self) -> list[str]:
        """Distinct GPU model names across the whole fleet, sorted."""
        return sorted(
            {
                spec.name
                for slot in self.slots
                for spec in slot.specs
            }
        )

    def describe(self) -> str:
        """Human-readable topology: ``[2,2,1,1]x GTX 1660 Super`` for a
        homogeneous fleet, all models listed for a mixed one."""
        shape = f"[{','.join(str(g) for g in self.topology)}]"
        models = self.gpu_models()
        if len(models) == 1:
            return f"{shape}x {models[0]}"
        return f"{shape}x mixed({' + '.join(models)})"

    def __len__(self) -> int:
        return len(self.slots)

    # -- placement ---------------------------------------------------------

    def choose(
        self,
        request: GraphRequest,
        eligible: "Sequence[FleetSlot] | None" = None,
    ) -> FleetSlot:
        """Pick the slot that serves ``request`` per the policy.

        ``eligible`` restricts the choice (the fault-aware serving loop
        passes the admitting slots); None considers the whole fleet.
        Every policy's key ends in the slot id, so equal-cost slots
        resolve in stable slot-id order and serving runs replay
        deterministically.
        """
        slot = self._choose(request, self.slots if eligible is None else eligible)
        if self.tracer.enabled:
            self.tracer.instant(
                "place",
                track="service",
                vt=slot.clock,
                policy=self.policy.value,
                tenant=request.tenant,
                request=request.request_id,
                slot=slot.index,
                warm=request.topology_key in slot.warm_topologies,
            )
        return slot

    def _choose(
        self, request: GraphRequest, slots: "Sequence[FleetSlot]"
    ) -> FleetSlot:
        if not slots:
            raise ValueError("no eligible slots to place on")
        if self.policy is DevicePlacementPolicy.ROUND_ROBIN:
            # Walk the ring from the cursor until an eligible slot comes
            # up, so a fleet with non-admitting slots keeps cycling the
            # survivors in the same deterministic order.
            allowed = {s.index for s in slots}
            for _ in range(len(self.slots)):
                slot = self.slots[self._rr_next]
                self._rr_next = (self._rr_next + 1) % len(self.slots)
                if slot.index in allowed:
                    return slot
            raise ValueError("no eligible slots to place on")
        if self.policy is DevicePlacementPolicy.LEAST_LOADED:
            # Price the *backlog ahead of this request* per GPU: a
            # 2-GPU slot drains its queue ~2x faster, so raw engine
            # clocks over-penalize wide slots.  The raw clock stays as
            # the tie-break so idle slots (zero backlog each) still
            # resolve by availability, then slot id.
            floor = request.dispatch_floor
            return min(
                slots,
                key=lambda s: (
                    max(0.0, s.clock - floor) / s.gpus,
                    s.clock,
                    s.index,
                ),
            )
        # MIN_TRANSFER: migration cost first, availability tie-break.
        key = request.topology_key
        return min(
            slots,
            key=lambda s: (
                0 if key in s.warm_topologies
                else request.graph.total_bytes,
                s.clock,
                s.index,
            ),
        )

    # -- fleet-level accounting ---------------------------------------------

    @property
    def makespan(self) -> float:
        """Virtual time by which every slot has drained."""
        return max(s.clock for s in self.slots)

    def kernel_counts(self) -> list[int]:
        return [s.kernels_launched for s in self.slots]


__all__ = [
    "FleetSlot",
    "GpuFleet",
    "DevicePlacementPolicy",
    "normalize_slot_spec",
    "parse_fleet_spec",
]
