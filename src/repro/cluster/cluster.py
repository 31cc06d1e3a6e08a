"""Multi-node serving: a cluster of fleets behind one admission point.

The top layer of the stack.  A :class:`Cluster` owns N
:class:`ClusterNode` s — each a full, private
:class:`~repro.serve.service.SchedulerService` over a real
:class:`~repro.serve.fleet.GpuFleet` with its own topology — joined by
a :class:`~repro.cluster.network.ClusterNetwork` whose host-to-host
links price cross-node input staging and result readback on the same
virtual timeline the intra-node simulators advance.

Tenant requests are admitted **once, globally** (the cluster's own
admission queue), placed on nodes by the
:class:`~repro.cluster.scheduler.ClusterScheduler`, then flow through
the untouched single-node machinery: service-level slot placement,
batching, capture replay, in-slot device placement.  Placement runs in
synchronous rounds — place every queued request, drain every node in id
order, re-place what a downed node could not serve — so the whole run
is a pure function of (submissions, seed, fault plan) and replays
bit-identically.  The cluster is a
:class:`~repro.serve.dispatch.Dispatcher` over its nodes, like a
service over its slots: queue, lifecycle advance, blackout handling,
deadlines, backoff and drop records are the same code at both levels.

Fault scope is lifted from slots to nodes (``node=`` specs in a
:class:`~repro.faults.FaultPlan`): a node-scoped CRASH / RESTART /
DEGRADE is translated into per-slot specs for that node's local plan
(the node's service already knows how to retry, back off and shed), a
DRAIN stops cluster placements while local work finishes, and a
TRANSFER_FAULT is consumed at *cluster* placement — the failed staging
attempt burns link time before the re-stage.  Work a downed node shed
or failed re-enters the global queue with exponential backoff and lands
on survivors, so every submission still reaches a terminal status.

Correctness invariant (same as single-node serving, enforced by the
cluster tests): every COMPLETED request's outputs are bit-identical to
executing its graph alone on a private serial runtime.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults import FaultKind, FaultPlan, FaultSpec, SlotLifecycle
from repro.gpusim.specs import GPUSpec
from repro.metrics.service import ServiceMetrics, compute_service_metrics
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer, current_tracer
from repro.cluster.network import ClusterNetwork, LinkSpec
from repro.cluster.scheduler import (
    ClusterPlacementPolicy,
    ClusterScheduler,
)
from repro.serve.dispatch import Dispatcher
from repro.serve.fleet import parse_fleet_spec
from repro.serve.request import (
    GraphRequest,
    GraphResult,
    RequestStatus,
    TaskGraph,
)
from repro.serve.service import (
    SchedulerService,
    ServeConfig,
    ServiceReport,
    fingerprint_results,
)


def parse_cluster_spec(text: str) -> list[list[int]]:
    """Parse a CLI cluster spec like ``"2,2,1,1|4|2,2"``: ``|``-separated
    per-node fleet topologies, each a :func:`parse_fleet_spec` spec."""
    segments = [s for s in text.split("|") if s.strip()]
    if not segments:
        raise ConfigError(
            f"cluster spec {text!r} needs at least one node topology,"
            " e.g. '2,2,1,1|4|2,2'"
        )
    return [parse_fleet_spec(segment) for segment in segments]


def _node_slot_plan(
    plan: FaultPlan, node: int, slots: int
) -> FaultPlan | None:
    """Translate a node's node-scoped specs into the slot-scoped plan
    its local service executes.

    CRASH / RESTART / DEGRADE strike every slot of the node — the
    machine died, came back, or throttled as a whole.  DRAIN and
    TRANSFER_FAULT stay cluster-level: a drain only stops *placements*
    (local in-flight work finishes untouched), and a transfer fault is
    a staging failure on the host-to-host link, not inside the node.
    """
    specs: list[FaultSpec] = []
    for spec in plan.for_node(node):
        if spec.kind in (
            FaultKind.CRASH, FaultKind.RESTART, FaultKind.DEGRADE
        ):
            specs.extend(
                FaultSpec(
                    spec.kind,
                    j,
                    spec.at,
                    factor=spec.factor,
                    warmup=spec.warmup,
                )
                for j in range(slots)
            )
    return FaultPlan(specs=tuple(specs)) if specs else None


@dataclass
class ClusterConfig:
    """Configuration of one :class:`Cluster`."""

    #: node-placement policy (see :class:`ClusterPlacementPolicy`)
    policy: "ClusterPlacementPolicy | str" = (
        ClusterPlacementPolicy.SPREAD
    )
    #: host-to-host link model or preset name (see
    #: :data:`~repro.cluster.network.INTERCONNECTS`)
    interconnect: "LinkSpec | str" = "ethernet-100g"
    #: node-scoped fault plan (or its DSL form, e.g.
    #: ``"crash:node=1,at=2e-3"``); None runs fault-free
    faults: "FaultPlan | str | None" = None
    #: template for every node's local service configuration
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        self.policy = ClusterPlacementPolicy.coerce(self.policy)
        if isinstance(self.faults, str):
            self.faults = FaultPlan.parse(self.faults)
        if self.faults is not None and self.faults.slot_scoped():
            raise ConfigError(
                "a cluster fault plan must be node-scoped (node=...);"
                " put slot-scoped specs on a single fleet's ServeConfig"
            )
        if self.serve.faults is not None:
            raise ConfigError(
                "the cluster's ServeConfig template cannot carry its own"
                " fault plan; use ClusterConfig.faults with node= scope"
            )


class ClusterNode:
    """One node: a private scheduler service + fleet, plus the node's
    own health lifecycle (the slot state machine, lifted one level)."""

    def __init__(
        self,
        index: int,
        topology: list[int],
        gpu: "str | GPUSpec",
        config: ClusterConfig,
        tracer: Tracer,
    ) -> None:
        self.index = index
        self.topology = list(topology)
        slot_plan = (
            _node_slot_plan(config.faults, index, len(topology))
            if config.faults is not None
            else None
        )
        self.service = SchedulerService(
            fleet_topology=self.topology,
            gpu=gpu,
            config=dataclasses.replace(config.serve, faults=slot_plan),
            tracer=tracer,
        )
        # Per-device export tracks carry the node, not just the slot.
        for j, slot in enumerate(self.service.fleet.slots):
            slot.engine._obs_name = f"node{index}/slot{j}"
        node_specs = (
            config.faults.for_node(index)
            if config.faults is not None
            else ()
        )
        #: the node's admission lifecycle (DRAIN/CRASH stop placements)
        self.lifecycle = SlotLifecycle(index, node_specs)
        #: how many results the cluster has already collected
        self.result_cursor = 0

    @property
    def fleet(self):
        return self.service.fleet

    @property
    def total_gpus(self) -> int:
        return self.fleet.total_gpus

    @property
    def clock(self) -> float:
        """Virtual time by which the node's fleet has drained."""
        return self.fleet.makespan

    @property
    def admitting(self) -> bool:
        return self.lifecycle.admitting

    def warm_for(self, graph: TaskGraph) -> bool:
        """Whether this node's capture cache already holds a plan for
        ``graph`` on any of its slot shapes (AFFINITY warmth)."""
        cache = self.service.cache
        return any(
            cache.peek(graph, slot.shape_key)
            for slot in self.fleet.slots
        )

    def describe(self) -> str:
        return f"node{self.index}:{self.fleet.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusterNode {self.index} {self.fleet.describe()}"
            f" {self.lifecycle.state.value}>"
        )


@dataclass
class ClusterReport:
    """Everything a cluster run produced, rolled up across nodes."""

    results: list[GraphResult]
    metrics: ServiceMetrics
    #: node index -> that node's own ServiceReport (absent for nodes
    #: that never served a request)
    per_node: dict[int, ServiceReport]
    #: node descriptions, id order (topology survives even if a node
    #: served nothing)
    nodes: list[str]
    config: ClusterConfig
    #: flat roll-up: ``cluster.*`` (placement + network) plus every
    #: node's ``serve.* / faults.* / engine.* / coherence.*``
    counters: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Canonical replay-determinism digest (results incl. node
        placements + the full counter roll-up)."""
        return fingerprint_results(self.results, self.counters)

    def render(self) -> str:
        """ASCII summary (the ``serve-bench --cluster`` CLI output)."""
        m = self.metrics
        link = self.config.interconnect
        link_name = link if isinstance(link, str) else link.name
        staged = self.counters.get("cluster.net_stage_bytes", 0)
        readback = self.counters.get("cluster.net_readback_bytes", 0)
        lines = [
            "Cluster serving report",
            "======================",
            f"policy={self.config.policy.value}"
            f"  interconnect={link_name}",
            "nodes: " + "  ".join(self.nodes),
            f"requests={m.completed}  tenants={m.tenants}"
            f"  makespan={m.makespan * 1e3:.3f} ms"
            f"  throughput={m.throughput_rps:.1f} req/s",
        ]
        if m.shed or m.timed_out or m.failed:
            lines.append(
                f"degraded: shed={m.shed}  timed-out={m.timed_out}"
                f"  failed={m.failed}"
                f"  (replacements="
                f"{self.counters.get('cluster.replacements', 0)})"
            )
        lines += [
            f"latency ms: p50={m.latency.p50 * 1e3:.3f}"
            f"  p95={m.latency.p95 * 1e3:.3f}"
            f"  p99={m.latency.p99 * 1e3:.3f}"
            f"  worst={m.latency.worst * 1e3:.3f}",
            f"network: ops={self.counters.get('cluster.net_ops', 0):.0f}"
            f"  bytes={self.counters.get('cluster.net_bytes', 0):.0f}"
            f"  staged={staged:.0f}  readback={readback:.0f}",
            "per-node requests: " + "  ".join(
                f"node{i}={len(r.results)}"
                for i, r in sorted(self.per_node.items())
            ),
        ]
        return "\n".join(lines)


class Cluster(Dispatcher):
    """N serving nodes behind one global admission queue."""

    TRACK = "cluster"
    CHILD = "node"
    FAULT_EVENT = "node-fault"
    RETRY_EVENT = "replace"
    QUEUE_PEAK = "cluster.queue_depth_peak"
    INJECTED = "cluster.node_faults_injected"
    SHED = "cluster.shed"
    RETRIED = "cluster.replacements"

    def __init__(
        self,
        topologies: "str | list[list[int]]",
        *,
        gpu: "str | GPUSpec" = "GTX 1660 Super",
        config: ClusterConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        if isinstance(topologies, str):
            topologies = parse_cluster_spec(topologies)
        if not topologies:
            raise ConfigError("a cluster needs at least one node")
        if self.config.faults is not None:
            top = self.config.faults.max_node()
            if top >= len(topologies):
                raise ConfigError(
                    f"fault plan targets node {top} but the cluster has"
                    f" only {len(topologies)} node(s)"
                )
        tracer = current_tracer() if tracer is None else tracer
        self.nodes = [
            ClusterNode(i, topo, gpu, self.config, tracer)
            for i, topo in enumerate(topologies)
        ]
        super().__init__(
            self.config.serve, self.config.faults, self.nodes, tracer
        )
        self.network = ClusterNetwork(
            self.config.interconnect, counters=self.counters
        )
        self.scheduler = ClusterScheduler(self.config.policy)
        #: every request the cluster admitted, by id (re-placement and
        #: readback need the graph back from a result)
        self._requests: dict[int, GraphRequest] = {}
        #: how many results :meth:`_readback` has already priced
        self._priced = 0
        self._c_placements = self.counters.counter("cluster.placements")
        self._c_net_retries = self.counters.counter(
            "cluster.net_retries"
        )
        # Reported even when zero, so every cluster snapshot has them.
        self.counters.counter(self.RETRIED)
        self.counters.counter(self.SHED)

    def enqueue(self, request: GraphRequest) -> int:
        """Admit one built request into the global queue."""
        self._requests[request.request_id] = request
        return super().enqueue(request)

    def _retry_attrs(self, request: GraphRequest, node: ClusterNode) -> dict:
        return {"node": node.index, "attempt": request.attempts}

    # -- the cluster loop ---------------------------------------------------

    def drain(self) -> None:
        """Serve every admitted request to a terminal status and price
        the result readbacks: rounds of place-all-then-drain until the
        global queue stays empty."""
        while len(self.queue):
            self._placement_round()
            self._drain_round()
            self.scheduler.reset_round()
        self._readback()
        # Final advance so every injected node fault is counted even if
        # it struck after the queue drained.
        self._advance_lifecycles(self._now)

    def _placement_round(self) -> None:
        """Pop every queued request in admission order, stage its inputs
        over the network and enqueue it on the chosen node."""
        while len(self.queue):
            head = self.queue.peek()
            now, eligible = self._eligible(
                max(self._now, head.dispatch_floor)
            )
            if not eligible:
                return  # a permanent cluster-wide outage shed the queue
            self._now = now
            popped = self.queue.pop()
            assert popped is head
            if self._expired(head, now):
                continue
            node = self.scheduler.place(head, eligible)
            self._c_placements.value += 1
            staged = self._stage(node, head, now)
            head.not_before = max(head.not_before, staged)
            if self.tracer.enabled:
                self.tracer.instant(
                    "place",
                    track=self.TRACK,
                    vt=now,
                    policy=self.scheduler.policy.value,
                    tenant=head.tenant,
                    request=head.request_id,
                    node=node.index,
                    staged=staged,
                )
            node.service.enqueue(head)

    def _stage(
        self, node: ClusterNode, request: GraphRequest, now: float
    ) -> float:
        """Move the request's host inputs onto the node; returns the
        virtual arrival time (the request's new dispatch floor)."""
        nbytes = request.graph.input_bytes
        if node.lifecycle.take_transfer_fault(now):
            # The first staging attempt fails on the wire: its link
            # time is burned, then the transfer is retried whole.
            wasted = self.network.transfer(node.index, nbytes, now)
            self._c_net_retries.value += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "stage-retry",
                    track=self.TRACK,
                    vt=now,
                    node=node.index,
                    request=request.request_id,
                )
            return self.network.transfer(node.index, nbytes, wasted)
        return self.network.transfer(node.index, nbytes, now)

    def _drain_round(self) -> None:
        """Drain every node in id order, collect the new results and
        the completions the data plane will compute, and re-queue work
        a non-admitting node shed or failed (once its retries are
        exhausted, the node's terminal record stands)."""
        for node in self.nodes:
            node.service.drain()
            self.numerics.update(node.service.numerics)
            node.service.numerics.clear()
            fresh = node.service.results[node.result_cursor:]
            node.result_cursor = len(node.service.results)
            self._advance(node, self._now)
            for result in fresh:
                result.node_index = node.index
                if (
                    result.status
                    in (RequestStatus.SHED, RequestStatus.FAILED)
                    and not node.admitting
                ):
                    request = self._requests[result.request_id]
                    request.last_slot = None
                    if self._retry(request, node, result.finish_time):
                        continue
                self.results.append(result)

    def _readback(self) -> None:
        """Price the result readback of every request completed since
        the last call over the network, in deterministic (finish, id)
        order; a readback that lands past the deadline turns the
        request TIMEOUT, with nothing left for the data plane."""
        fresh = self.results[self._priced:]
        self._priced = len(self.results)
        completed = sorted(
            (r for r in fresh if r.status is RequestStatus.COMPLETED),
            key=lambda r: (r.finish_time, r.request_id),
        )
        for result in completed:
            request = self._requests[result.request_id]
            done = self.network.transfer(
                result.node_index,
                request.graph.output_bytes,
                result.finish_time,
                direction="out",
            )
            result.finish_time = done
            if request.deadline is not None and done > request.deadline:
                result.status = RequestStatus.TIMEOUT
                del self.numerics[result.request_id]

    # -- reporting ----------------------------------------------------------

    @property
    def makespan(self) -> float:
        return max(n.clock for n in self.nodes)

    def counters_snapshot(self) -> dict:
        """Cluster-wide roll-up: ``cluster.*`` plus every node's own
        service snapshot (peaks keep their high watermark, everything
        else accumulates)."""
        merged = CounterRegistry()
        merged.merge(self.counters)
        for node in self.nodes:
            for name, value in node.service.counters_snapshot().items():
                if name.endswith("_peak"):
                    merged.set_max(name, value)
                else:
                    merged.counter(name).value += value
        return merged.snapshot()

    def report(self) -> ClusterReport:
        if not self.results:
            raise ValueError("no served requests to report on")
        self.results.sort(key=lambda r: r.request_id)
        per_node: dict[int, ServiceReport] = {
            node.index: node.service.report()
            for node in self.nodes
            if node.service.results
        }
        metrics = compute_service_metrics(
            self.results,
            [
                slot.engine.timeline
                for node in self.nodes
                for slot in node.fleet.slots
            ],
            batches=sum(n.service._batches for n in self.nodes),
            capture_hits=sum(
                n.service.cache.hits for n in self.nodes
            ),
            capture_misses=sum(
                n.service.cache.misses for n in self.nodes
            ),
        )
        return ClusterReport(
            results=list(self.results),
            metrics=metrics,
            per_node=per_node,
            nodes=[n.describe() for n in self.nodes],
            config=self.config,
            counters=self.counters_snapshot(),
        )


__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterNode",
    "ClusterReport",
    "parse_cluster_spec",
]
