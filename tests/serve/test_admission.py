"""Admission-control policies: unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.admission import AdmissionPolicy, AdmissionQueue
from repro.serve import (
    ArrayDecl,
    GraphRequest,
    KernelDecl,
    LaunchDecl,
    TaskGraph,
)
from repro.kernels.profile import LinearCostModel


def _noop(x, n):
    pass


def tiny_graph(tag: str = "g") -> TaskGraph:
    return TaskGraph(
        name=tag,
        arrays={"x": ArrayDecl("x", (8,), np.float32)},
        kernels=(
            KernelDecl("k", "ptr, sint32", _noop, LinearCostModel()),
        ),
        launches=(LaunchDecl("k", 1, 8, ("x", 8)),),
    )


def request(tenant: str, priority: int = 0, arrival: float = 0.0):
    return GraphRequest(
        tenant=tenant,
        graph=tiny_graph(),
        priority=priority,
        arrival_time=arrival,
    )


FIFO = AdmissionPolicy.FIFO
PRIORITY = AdmissionPolicy.PRIORITY
FAIR_SHARE = AdmissionPolicy.FAIR_SHARE


class TestConstruction:
    @pytest.mark.parametrize("policy", list(AdmissionPolicy))
    def test_one_queue_covers_every_policy(self, policy):
        q = AdmissionQueue(policy)
        assert q.policy is policy
        r = request("a")
        q.push(r)
        assert q.peek() is r
        assert q.pop() is r
        assert q.pop() is None


class TestFifo:
    def test_strict_arrival_order(self):
        q = AdmissionQueue(FIFO)
        reqs = [request("a"), request("b"), request("a")]
        for r in reqs:
            q.push(r)
        assert [q.pop() for _ in range(3)] == reqs
        assert q.pop() is None

    def test_take_matching_preserves_rest(self):
        q = AdmissionQueue(FIFO)
        reqs = [request("a"), request("b"), request("a")]
        for r in reqs:
            q.push(r)
        taken = q.take_matching(lambda r: r.tenant == "a", limit=5)
        assert taken == [reqs[0], reqs[2]]
        assert len(q) == 1
        assert q.pop() is reqs[1]

    def test_admitted_counts_charged(self):
        q = AdmissionQueue(FIFO)
        for r in [request("a"), request("a"), request("b")]:
            q.push(r)
        q.pop()
        q.take_matching(lambda r: True, limit=2)
        assert q.admitted_counts == {"a": 2, "b": 1}


class TestPriority:
    def test_highest_priority_first(self):
        q = AdmissionQueue(PRIORITY)
        low = request("a", priority=0)
        hi = request("b", priority=5)
        mid = request("c", priority=2)
        for r in (low, hi, mid):
            q.push(r)
        assert [q.pop() for _ in range(3)] == [hi, mid, low]

    def test_fifo_within_level(self):
        q = AdmissionQueue(PRIORITY)
        first = request("a", priority=1)
        second = request("b", priority=1)
        q.push(first)
        q.push(second)
        assert q.pop() is first
        assert q.pop() is second

    def test_low_priority_can_starve_by_design(self):
        q = AdmissionQueue(PRIORITY)
        starved = request("low", priority=0)
        q.push(starved)
        for _ in range(5):
            q.push(request("vip", priority=9))
        for _ in range(5):
            assert q.pop().tenant == "vip"
        assert q.pop() is starved


class TestFairShare:
    def test_round_robins_equal_backlogs(self):
        q = AdmissionQueue(FAIR_SHARE)
        for _ in range(3):
            q.push(request("a"))
            q.push(request("b"))
            q.push(request("c"))
        served = [q.pop().tenant for _ in range(9)]
        # Every window of three pops serves all three tenants.
        for i in range(0, 9, 3):
            assert set(served[i:i + 3]) == {"a", "b", "c"}

    def test_newcomer_catches_up_but_does_not_monopolize(self):
        q = AdmissionQueue(FAIR_SHARE)
        for _ in range(4):
            q.push(request("old"))
        assert q.pop().tenant == "old"
        assert q.pop().tenant == "old"
        for _ in range(4):
            q.push(request("new"))
        # "new" has been admitted 0 times vs 2 for "old": it is served
        # first until the counts level, then service alternates.
        assert q.pop().tenant == "new"
        assert q.pop().tenant == "new"
        following = [q.pop().tenant for _ in range(4)]
        assert following.count("old") == 2
        assert following.count("new") == 2

    def test_pending_by_tenant(self):
        q = AdmissionQueue(FAIR_SHARE)
        q.push(request("a"))
        q.push(request("a"))
        q.push(request("b"))
        assert q.pending_by_tenant() == {"a": 2, "b": 1}

    def test_take_matching_respects_global_arrival_order(self):
        # A bounded take must prefer globally-older requests whichever
        # tenant they belong to.
        q = AdmissionQueue(FAIR_SHARE)
        a0 = request("a")
        b1 = request("b")
        a2 = request("a")
        b3 = request("b")
        for r in (a0, b1, a2, b3):
            q.push(r)
        taken = q.take_matching(lambda r: True, limit=2)
        assert taken == [a0, b1]
        assert len(q) == 2


# -- the starvation-freedom property -------------------------------------

tenant_names = st.sampled_from(["a", "b", "c", "d", "e"])
ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), tenant_names),
        st.tuples(st.just("pop"), st.none()),
    ),
    min_size=1,
    max_size=80,
)


class TestFairShareNeverStarves:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_pop_always_serves_a_least_served_backlogged_tenant(self, ops):
        """The invariant that implies starvation-freedom: every admitted
        request belongs to a tenant whose admitted count is minimal
        among tenants that have work queued.  A backlogged tenant can
        therefore be overtaken at most once by each other tenant before
        it is served again."""
        q = AdmissionQueue(FAIR_SHARE)
        for op, tenant in ops:
            if op == "push":
                q.push(request(tenant))
            else:
                backlogged = q.pending_by_tenant()
                counts_before = {
                    t: q.admitted_counts[t] for t in backlogged
                }
                popped = q.pop()
                if not backlogged:
                    assert popped is None
                    continue
                assert counts_before[popped.tenant] == min(
                    counts_before.values()
                )

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=3, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_sustained_backlog_shares_service_evenly(
        self, tenants, per_tenant
    ):
        """With every tenant continuously backlogged, admitted counts
        never diverge by more than one — no tenant starves."""
        q = AdmissionQueue(FAIR_SHARE)
        names = [f"t{i}" for i in range(tenants)]
        for _ in range(per_tenant):
            for name in names:
                q.push(request(name))
        for popped_so_far in range(tenants * per_tenant):
            q.pop()
            counts = [q.admitted_counts[n] for n in names]
            assert max(counts) - min(counts) <= 1


class TestEnumValues:
    @pytest.mark.parametrize(
        "policy,value",
        [
            (AdmissionPolicy.FIFO, "fifo"),
            (AdmissionPolicy.PRIORITY, "priority"),
            (AdmissionPolicy.FAIR_SHARE, "fair-share"),
        ],
    )
    def test_cli_facing_values(self, policy, value):
        assert policy.value == value


class TestEvictLowest:
    """The graceful-degradation shed hook (service watermark shedding)."""

    def _loaded(self, policy):
        q = AdmissionQueue(policy)
        # Two priorities, staggered arrivals; ids increase with pushes.
        q.push(request("a", priority=1, arrival=1.0))
        q.push(request("b", priority=0, arrival=2.0))
        q.push(request("a", priority=0, arrival=3.0))
        q.push(request("b", priority=1, arrival=4.0))
        return q

    @pytest.mark.parametrize("policy", [FIFO, PRIORITY, FAIR_SHARE])
    def test_sheds_lowest_priority_newest_first(self, policy):
        q = self._loaded(policy)
        victims = q.evict_lowest(2)
        # Both priority-0 requests go, the newer one first.
        assert [(v.priority, v.arrival_time) for v in victims] == [
            (0, 3.0), (0, 2.0)
        ]
        assert len(q) == 2

    @pytest.mark.parametrize("policy", [FIFO, PRIORITY, FAIR_SHARE])
    def test_survivors_keep_relative_order(self, policy):
        q = self._loaded(policy)
        before = []
        probe = self._loaded(policy)
        while (r := probe.pop()) is not None:
            before.append((r.priority, r.arrival_time))
        q.evict_lowest(2)
        after = []
        while (r := q.pop()) is not None:
            after.append((r.priority, r.arrival_time))
        survivors = [x for x in before if x[0] != 0]
        assert after == survivors

    def test_eviction_not_charged_to_admission(self):
        q = AdmissionQueue(FAIR_SHARE)
        q.push(request("a", arrival=1.0))
        q.push(request("a", arrival=2.0))
        q.pop()  # one genuine admission
        assert q.admitted_counts["a"] == 1
        victims = q.evict_lowest(5)
        assert len(victims) == 1
        assert q.admitted_counts["a"] == 1

    def test_zero_or_negative_count_is_noop(self):
        q = self._loaded(FIFO)
        assert q.evict_lowest(0) == []
        assert q.evict_lowest(-3) == []
        assert len(q) == 4

    def test_count_beyond_queue_drains_it(self):
        q = self._loaded(PRIORITY)
        victims = q.evict_lowest(99)
        assert len(victims) == 4
        assert len(q) == 0
        assert q.pop() is None

    def test_request_id_breaks_arrival_ties(self):
        q = AdmissionQueue(FIFO)
        first = request("a", priority=0, arrival=1.0)
        second = request("a", priority=0, arrival=1.0)
        q.push(first)
        q.push(second)
        victims = q.evict_lowest(1)
        # Same priority and arrival: the later submission sheds first.
        assert victims[0].request_id == second.request_id
