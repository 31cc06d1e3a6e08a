"""Cluster-level placement: which *node* serves an admitted graph.

This is the top of the three-level placement stack — the k8s-style
scheduler of the ROADMAP item.  The cluster admits tenant requests once
globally, this module picks the node, the node's
:class:`~repro.serve.fleet.GpuFleet` policy picks the slot, and the
slot's in-slot :class:`~repro.core.policies.DevicePlacementPolicy`
picks the GPU per kernel.

Policies (:class:`ClusterPlacementPolicy`):

* ``BIN_PACK`` — fill nodes in id order, moving on only when a node's
  per-round budget (:data:`PACK_PER_GPU` × its GPUs) is consumed.  The
  consolidating scheduler: fewest nodes touched, best capture/warmth
  locality per node, most headroom left for later arrivals.
* ``SPREAD`` — level load: cheapest (per-GPU staged bytes, node clock,
  id) wins.  The latency scheduler: every node's queue stays shallow.
* ``AFFINITY`` — tenant-sticky and warm-capture-aware: a tenant keeps
  landing on its node while that node admits; a new (or displaced)
  tenant prefers a node whose capture cache already holds a plan for
  the graph's (topology, slot-shape) key, falling back to SPREAD.

Every key ends in the node id, so equal-cost nodes resolve in id order
and placements replay deterministically — the same property the slot
and in-slot levels already guarantee.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError
from repro.serve.request import GraphRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import ClusterNode

#: BIN_PACK per-round budget: requests per node GPU before spilling
PACK_PER_GPU = 8


class ClusterPlacementPolicy(enum.Enum):
    """How the cluster scheduler maps admitted graphs to nodes."""

    BIN_PACK = "bin-pack"
    SPREAD = "spread"
    AFFINITY = "affinity"

    @classmethod
    def coerce(
        cls, value: "ClusterPlacementPolicy | str"
    ) -> "ClusterPlacementPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ConfigError(
                f"unknown cluster policy {value!r}; choose from"
                f" {[p.value for p in cls]}"
            ) from None


class ClusterScheduler:
    """Stateful node chooser: per-round load tallies + tenant affinity.

    Load is tracked per placement *round* (the cluster places a wave of
    requests, drains every node, then starts the next wave), so the
    tallies describe exactly the work the nodes have not yet executed;
    between rounds the node clocks carry the history.
    """

    def __init__(
        self,
        policy: "ClusterPlacementPolicy | str" = (
            ClusterPlacementPolicy.SPREAD
        ),
    ) -> None:
        self.policy = ClusterPlacementPolicy.coerce(policy)
        #: requests assigned this round, by node index
        self._assigned: dict[int, int] = {}
        #: staged bytes assigned this round, by node index
        self._assigned_bytes: dict[int, int] = {}
        #: tenant -> node index (AFFINITY stickiness; survives rounds)
        self.affinity: dict[str, int] = {}

    def reset_round(self) -> None:
        """Forget this round's tallies (the nodes executed the work —
        their clocks now carry it)."""
        self._assigned.clear()
        self._assigned_bytes.clear()

    def assigned(self, node_index: int) -> int:
        return self._assigned.get(node_index, 0)

    def place(
        self, request: GraphRequest, nodes: "Sequence[ClusterNode]"
    ) -> "ClusterNode":
        """Pick the node that serves ``request`` and record the load."""
        if not nodes:
            raise ValueError("no eligible nodes to place on")
        node = self._choose(request, nodes)
        self._assigned[node.index] = self._assigned.get(
            node.index, 0
        ) + 1
        self._assigned_bytes[node.index] = (
            self._assigned_bytes.get(node.index, 0)
            + request.graph.total_bytes
        )
        if self.policy is ClusterPlacementPolicy.AFFINITY:
            self.affinity[request.tenant] = node.index
        return node

    # -- policy kernels -----------------------------------------------------

    def _choose(
        self, request: GraphRequest, nodes: "Sequence[ClusterNode]"
    ) -> "ClusterNode":
        if self.policy is ClusterPlacementPolicy.BIN_PACK:
            for node in nodes:  # nodes arrive in id order
                budget = PACK_PER_GPU * node.total_gpus
                if self._assigned.get(node.index, 0) < budget:
                    return node
            # Every budget consumed: densest-first overflow, still
            # deterministic (per-GPU count, then id).
            return min(
                nodes,
                key=lambda n: (
                    self._assigned.get(n.index, 0) / n.total_gpus,
                    n.index,
                ),
            )
        if self.policy is ClusterPlacementPolicy.AFFINITY:
            sticky = self.affinity.get(request.tenant)
            if sticky is not None:
                for node in nodes:
                    if node.index == sticky:
                        return node
            warm = [n for n in nodes if n.warm_for(request.graph)]
            if warm:
                return self._spread(warm)
            return self._spread(nodes)
        return self._spread(nodes)

    def _spread(
        self, nodes: "Sequence[ClusterNode]"
    ) -> "ClusterNode":
        return min(
            nodes,
            key=lambda n: (
                self._assigned_bytes.get(n.index, 0) / n.total_gpus,
                n.clock,
                n.index,
            ),
        )


__all__ = ["ClusterPlacementPolicy", "ClusterScheduler"]
