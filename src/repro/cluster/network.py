"""The simulated host-to-host cluster interconnect.

Intra-node data movement is priced by the coherence engine over the
slot's PCIe/NVLink model; *cross-node* placement pays a different
price — host-to-host links are slower, shared and have real latency.
:class:`ClusterNetwork` reuses the coherence engine's transfer-pricing
idiom (``latency + bytes / bandwidth``, serialized per link direction)
one layer up: staging a graph's input arrays onto its node and reading
its outputs back both land on the virtual timeline, so a scheduler that
ignores locality visibly loses.

The model is a star: every node hangs off the submitting host by one
full-duplex link of the chosen :class:`LinkSpec`.  Each ``(node,
direction)`` pair keeps a busy cursor — two transfers to the same node
serialize, transfers to different nodes (or opposite directions)
overlap — which is exactly the per-channel DMA-engine treatment the
intra-node simulator applies to HtoD/DtoH copies.

Everything is a pure function of submission order and virtual time:
replaying a run replays every transfer bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.counters import CounterRegistry


@dataclass(frozen=True)
class LinkSpec:
    """One host-to-host link model."""

    name: str
    #: peak bandwidth in GB/s (``float("inf")`` = free transfers)
    bandwidth_gbs: float
    #: one-way latency in seconds, paid once per transfer
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0:
            raise ConfigError(
                f"link bandwidth must be positive, got"
                f" {self.bandwidth_gbs}"
            )
        if self.latency_s < 0:
            raise ConfigError(
                f"link latency must be >= 0, got {self.latency_s}"
            )

    def serialize_time(self, nbytes: int) -> float:
        """Pure wire time for ``nbytes`` (no latency, no queueing)."""
        if self.bandwidth_gbs == float("inf"):
            return 0.0
        return nbytes / (self.bandwidth_gbs * 1e9)


#: Named interconnect presets for the ``--interconnect`` axis.  The
#: ``loopback`` link is free — it makes a cluster run's *timeline*
#: comparable to single-fleet serving while keeping placement behaviour.
INTERCONNECTS: dict[str, LinkSpec] = {
    "ethernet-10g": LinkSpec("ethernet-10g", 1.25, 50e-6),
    "ethernet-100g": LinkSpec("ethernet-100g", 12.5, 10e-6),
    "infiniband-hdr": LinkSpec("infiniband-hdr", 25.0, 1.5e-6),
    "loopback": LinkSpec("loopback", float("inf"), 0.0),
}


def resolve_interconnect(link: "LinkSpec | str") -> LinkSpec:
    """A preset name or an explicit spec -> the spec."""
    if isinstance(link, LinkSpec):
        return link
    spec = INTERCONNECTS.get(link)
    if spec is None:
        raise ConfigError(
            f"unknown interconnect {link!r}; choose from"
            f" {sorted(INTERCONNECTS)}"
        )
    return spec


class ClusterNetwork:
    """Star-topology host-to-host network with per-link-direction
    serialization and priced, counted transfers."""

    def __init__(
        self,
        link: "LinkSpec | str" = "ethernet-100g",
        counters: CounterRegistry | None = None,
    ) -> None:
        self.link = resolve_interconnect(link)
        self.counters = counters if counters is not None else (
            CounterRegistry()
        )
        #: (node, direction) -> virtual time the link half frees up
        self._free: dict[tuple[int, str], float] = {}
        self._c_bytes = self.counters.counter("cluster.net_bytes")
        self._c_ops = self.counters.counter("cluster.net_ops")
        self._c_stage = self.counters.counter("cluster.net_stage_bytes")
        self._c_readback = self.counters.counter(
            "cluster.net_readback_bytes"
        )

    def transfer(
        self, node: int, nbytes: int, now: float, direction: str = "in"
    ) -> float:
        """Price one transfer; returns the virtual arrival time.

        ``direction="in"`` stages request inputs host->node,
        ``"out"`` reads results back node->host.  The transfer starts
        at ``max(now, link free)``, pays latency once plus wire time,
        and occupies its link half for the wire time (latency is on the
        wire, not the NIC — back-to-back transfers pipeline behind it).
        Zero-byte transfers still pay latency: placement control
        traffic is not free, and a graph with no host inputs still
        round-trips its admission.
        """
        if nbytes < 0:
            raise ValueError(f"transfer size must be >= 0, got {nbytes}")
        key = (node, direction)
        start = max(now, self._free.get(key, 0.0))
        serialize = self.link.serialize_time(nbytes)
        self._free[key] = start + serialize
        done = start + self.link.latency_s + serialize
        self._c_bytes.value += nbytes
        self._c_ops.value += 1
        if direction == "in":
            self._c_stage.value += nbytes
        else:
            self._c_readback.value += nbytes
        return done


__all__ = [
    "ClusterNetwork",
    "INTERCONNECTS",
    "LinkSpec",
    "resolve_interconnect",
]
