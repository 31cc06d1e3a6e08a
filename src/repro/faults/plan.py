"""Fault plans: what goes wrong, where, and at which virtual time.

A :class:`FaultPlan` is an immutable, time-sorted sequence of
:class:`FaultSpec` s.  Plans come from three places:

* **inline DSL** (the ``serve-bench --faults`` axis)::

      crash:slot=1,at=2e-3;restart:slot=1,at=4e-3,warmup=5e-4

  — semicolon-separated events, each ``kind:key=value,...``;
* **seeded generation** (:meth:`FaultPlan.random`, the ``--fault-seed``
  axis) — a :class:`random.Random`-driven chaos scenario that is a pure
  function of ``(seed, horizon, slots or nodes)``, so replaying a seed
  replays the exact fault sequence;
* **hand construction** in tests.

Nothing here touches wall clocks or global state: determinism is the
entire point.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    """What kind of infrastructure event a :class:`FaultSpec` injects."""

    #: the slot dies at ``at``: in-flight work is lost, state -> DOWN
    CRASH = "crash"
    #: the slot stops admitting at ``at`` but in-flight work finishes
    #: (the node-drain protocol): state -> DRAINING -> DOWN
    DRAIN = "drain"
    #: a DOWN/DRAINING slot begins restarting at ``at`` and admits again
    #: after ``warmup`` virtual seconds: state -> RESTARTING -> HEALTHY
    RESTART = "restart"
    #: the slot slows down by ``factor`` from ``at`` (thermal throttle /
    #: noisy neighbour): state -> DEGRADED until a restart
    DEGRADE = "degrade"
    #: one transient transfer error at/after ``at``: the next batch
    #: dispatched to the slot fails once and is retried (slot stays up)
    TRANSFER_FAULT = "transfer-fault"


@dataclass(frozen=True)
class FaultSpec:
    """One injected event: ``kind`` strikes ``slot`` at virtual ``at``.

    Since the cluster layer, a spec may instead be **node-scoped**:
    ``node=N`` (with ``slot=-1``, the unscoped sentinel) targets a whole
    :class:`~repro.cluster.ClusterNode` — every slot of that node's
    fleet plus the node's own admission lifecycle.  A spec is exactly
    one of the two scopes; :meth:`for_node` builds node specs without
    spelling the sentinel.
    """

    kind: FaultKind
    slot: int
    #: virtual service time of the event (seconds)
    at: float
    #: DEGRADE only: execution-time multiplier (> 1 slows the slot)
    factor: float = 1.0
    #: RESTART only: warm-up delay before the slot admits again
    warmup: float = 0.0
    #: cluster-node index this spec targets (None = slot-scoped)
    node: int | None = None

    def __post_init__(self) -> None:
        if self.node is None:
            if self.slot < 0:
                raise ValueError(
                    f"fault slot must be >= 0, got {self.slot}"
                )
        else:
            if self.node < 0:
                raise ValueError(
                    f"fault node must be >= 0, got {self.node}"
                )
            if self.slot != -1:
                raise ValueError(
                    "a fault spec targets either a slot or a node, not"
                    f" both (slot={self.slot}, node={self.node})"
                )
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.kind is FaultKind.DEGRADE and self.factor < 1.0:
            raise ValueError(
                f"degrade factor must be >= 1, got {self.factor}"
            )
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")

    @classmethod
    def for_node(
        cls,
        kind: FaultKind,
        node: int,
        at: float,
        factor: float = 1.0,
        warmup: float = 0.0,
    ) -> "FaultSpec":
        """A node-scoped spec: ``kind`` strikes cluster node ``node``."""
        return cls(
            kind, -1, at, factor=factor, warmup=warmup, node=node
        )

    @property
    def node_scoped(self) -> bool:
        return self.node is not None

    def describe(self) -> str:
        extra = ""
        if self.kind is FaultKind.DEGRADE:
            extra = f",factor={self.factor:g}"
        elif self.kind is FaultKind.RESTART and self.warmup:
            extra = f",warmup={self.warmup:g}"
        target = (
            f"node={self.node}" if self.node is not None
            else f"slot={self.slot}"
        )
        return f"{self.kind.value}:{target},at={self.at:g}{extra}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted fault schedule for one serving run."""

    specs: tuple[FaultSpec, ...] = ()
    #: provenance: the seed :meth:`random` generated this plan from
    #: (None for hand-written/parsed plans)
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.specs,
                key=lambda s: (s.at, s.slot, s.kind.value),
            )
        )
        object.__setattr__(self, "specs", ordered)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def for_slot(self, slot: int) -> tuple[FaultSpec, ...]:
        """The slot's own event sequence, time-sorted."""
        return tuple(
            s for s in self.specs if s.node is None and s.slot == slot
        )

    def for_node(self, node: int) -> tuple[FaultSpec, ...]:
        """The cluster node's own event sequence, time-sorted."""
        return tuple(s for s in self.specs if s.node == node)

    def slot_scoped(self) -> tuple[FaultSpec, ...]:
        """Every slot-scoped spec of the plan, time-sorted."""
        return tuple(s for s in self.specs if s.node is None)

    def node_scoped(self) -> tuple[FaultSpec, ...]:
        """Every node-scoped spec of the plan, time-sorted."""
        return tuple(s for s in self.specs if s.node is not None)

    def max_slot(self) -> int:
        """Largest slot index any spec targets (-1 for an empty plan)."""
        return max(
            (s.slot for s in self.specs if s.node is None), default=-1
        )

    def max_node(self) -> int:
        """Largest node index any spec targets (-1 when none do)."""
        return max(
            (s.node for s in self.specs if s.node is not None),
            default=-1,
        )

    def describe(self) -> str:
        """Round-trippable DSL form (see :meth:`parse`)."""
        return ";".join(s.describe() for s in self.specs)

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the inline DSL: ``kind:key=value,...`` events separated
        by ``;``.  Keys: exactly one of ``slot`` / ``node`` (int,
        required — ``node=`` makes the spec node-scoped for the cluster
        layer), ``at`` (float, required), ``factor`` (DEGRADE),
        ``warmup`` (RESTART)."""
        specs: list[FaultSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind_text, _, kv_text = chunk.partition(":")
            try:
                kind = FaultKind(kind_text.strip())
            except ValueError:
                raise ValueError(
                    f"unknown fault kind {kind_text.strip()!r}; choose"
                    f" from {[k.value for k in FaultKind]}"
                ) from None
            fields: dict[str, float] = {}
            for pair in kv_text.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, eq, value = pair.partition("=")
                if not eq:
                    raise ValueError(
                        f"fault spec field {pair!r} must be key=value"
                    )
                try:
                    fields[key.strip()] = float(value)
                except ValueError:
                    raise ValueError(
                        f"fault spec field {pair!r} has a non-numeric"
                        " value"
                    ) from None
            unknown = set(fields) - {
                "slot", "node", "at", "factor", "warmup",
            }
            if unknown:
                raise ValueError(
                    f"unknown fault spec fields {sorted(unknown)}"
                )
            if ("slot" in fields) == ("node" in fields):
                raise ValueError(
                    f"fault spec {chunk!r} needs exactly one of slot="
                    " / node="
                )
            if "at" not in fields:
                raise ValueError(f"fault spec {chunk!r} needs at=")
            node = (
                int(fields["node"]) if "node" in fields else None
            )
            specs.append(
                FaultSpec(
                    kind=kind,
                    slot=int(fields["slot"]) if node is None else -1,
                    at=fields["at"],
                    factor=fields.get("factor", 1.0),
                    warmup=fields.get("warmup", 0.0),
                    node=node,
                )
            )
        return cls(specs=tuple(specs))

    @classmethod
    def random(
        cls,
        seed: int,
        horizon: float,
        *,
        slots: int | None = None,
        nodes: int | None = None,
    ) -> "FaultPlan":
        """A seeded chaos scenario: a pure function of its arguments.

        Targets exactly one of ``slots`` fleet slots (slot-scoped specs)
        or ``nodes`` cluster nodes (node-scoped specs).  Draws 1..2×
        targets events over the first 80% of ``horizon`` (faults near
        the very end strike after the queue drained and test nothing).
        Crashes and drains are followed by a restart with probability
        1/2, so degraded *and* recovered topologies both occur across
        seeds.
        """
        if (slots is None) == (nodes is None):
            raise ValueError(
                "a fault plan targets exactly one of slots= / nodes="
            )
        targets = slots if nodes is None else nodes
        if targets <= 0:
            scope = "slot" if nodes is None else "node"
            raise ValueError(f"a fault plan needs >= 1 {scope}")
        if horizon <= 0:
            raise ValueError("fault horizon must be positive")

        def spec(kind, target, at, **extra) -> FaultSpec:
            if nodes is None:
                return FaultSpec(kind, target, at, **extra)
            return FaultSpec.for_node(kind, target, at, **extra)

        rng = random.Random(seed)
        count = rng.randint(1, 2 * targets)
        window = horizon * 0.8
        specs: list[FaultSpec] = []
        for _ in range(count):
            kind = rng.choice(
                [
                    FaultKind.CRASH,
                    FaultKind.DRAIN,
                    FaultKind.DEGRADE,
                    FaultKind.TRANSFER_FAULT,
                ]
            )
            target = rng.randrange(targets)
            at = rng.uniform(0.0, window)
            if kind is FaultKind.DEGRADE:
                specs.append(
                    spec(kind, target, at, factor=rng.uniform(1.5, 4.0))
                )
                continue
            specs.append(spec(kind, target, at))
            if kind in (FaultKind.CRASH, FaultKind.DRAIN) and (
                rng.random() < 0.5
            ):
                delay = rng.uniform(0.05, 0.3) * horizon
                specs.append(
                    spec(
                        FaultKind.RESTART,
                        target,
                        at + delay,
                        warmup=rng.uniform(0.0, 0.05) * horizon,
                    )
                )
        return cls(specs=tuple(specs), seed=seed)
