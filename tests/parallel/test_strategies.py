"""The execution-strategy matrix contract: every strategy produces
bit-identical reports, counters and canonical traces; strategies and
services close idempotently; request-id allocation is service-owned.
"""

import numpy as np
import pytest

from repro.obs.export import canonical_trace
from repro.obs.trace import Tracer
from repro.parallel import STRATEGIES, make_strategy, resolve_workers
from repro.serve import SchedulerService, ServeConfig
from repro.serve.workloads import traffic_mix_graphs

FAULT_PLAN = "crash:slot=1,at=2e-3;degrade:slot=0,at=1e-3,factor=2.0"


def run_strategy(
    parallel,
    *,
    fleet=(2, 1, 1),
    requests=24,
    tenants=3,
    faults=None,
    workers=None,
    trace=True,
):
    """One serving run under one strategy; returns (report, tracer)."""
    tracer = Tracer() if trace else None
    service = SchedulerService(
        fleet_topology=list(fleet),
        config=ServeConfig(
            parallel=parallel, workers=workers, faults=faults
        ),
        tracer=tracer,
    )
    for t in range(tenants):
        service.register_tenant(f"tenant{t}", priority=tenants - 1 - t)
    rng = np.random.default_rng(11)
    arrival = 0.0
    for i, graph in enumerate(traffic_mix_graphs(requests, seed=11)):
        arrival += float(rng.exponential(120e-6))
        service.submit(f"tenant{i % tenants}", graph, arrival_time=arrival)
    report = service.run()
    return report, tracer


class TestStrategyMatrix:
    @pytest.mark.parametrize("faults", [None, FAULT_PLAN])
    def test_matrix_is_bit_identical(self, faults):
        """Acceptance: fingerprints, counters and canonical traces are
        equal across sequential/process — with and without a
        slot-scoped fault plan."""
        states = {}
        for strategy in STRATEGIES:
            report, tracer = run_strategy(strategy, faults=faults)
            states[strategy] = (
                report.fingerprint(),
                report.counters,
                canonical_trace(tracer, results=report.results),
            )
        reference = states["sequential"]
        for strategy in STRATEGIES:
            assert states[strategy][0] == reference[0], strategy
            assert states[strategy][1] == reference[1], strategy
            assert states[strategy][2] == reference[2], strategy

    def test_process_with_single_worker_matches(self):
        """Worker sharding is a pure partition: one worker owning every
        slot equals the multi-worker run."""
        one, _ = run_strategy("process", workers=1, trace=False)
        many, _ = run_strategy("process", workers=3, trace=False)
        assert one.fingerprint() == many.fingerprint()

    def test_faulted_process_counters_match_sequential(self):
        seq, _ = run_strategy("sequential", faults=FAULT_PLAN, trace=False)
        proc, _ = run_strategy("process", faults=FAULT_PLAN, trace=False)
        assert proc.counters == seq.counters
        assert proc.counters.get("faults.injected", 0) > 0


class TestLifecycle:
    def test_service_close_is_idempotent(self):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(parallel="process")
        )
        service.register_tenant("t")
        service.submit("t", traffic_mix_graphs(1, seed=1)[0])
        service.run()
        service.close()
        service.close()

    def test_process_strategy_close_twice(self):
        service = SchedulerService(fleet_size=2)
        strategy = make_strategy(
            "process", service.fleet.slots, service.config
        )
        strategy.close()
        strategy.close()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="greenlets"):
            ServeConfig(parallel="greenlets")
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            make_strategy("greenlets", [], None)


class TestResolveWorkers:
    def test_explicit_cap_clamped_to_slots(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 3) == 2
        assert resolve_workers(1, 3) == 1

    def test_default_is_at_least_one(self):
        assert resolve_workers(None, 1) == 1
        assert resolve_workers(None, 64) >= 1


class TestServiceOwnedRequestIds:
    def test_two_services_side_by_side(self):
        """Regression for the global-counter era: two services running
        side by side each number their submissions from 1, so their
        reports are independently reproducible."""
        reports = []
        for _ in range(2):
            service = SchedulerService(fleet_size=2)
            service.register_tenant("t")
            ids = [
                service.submit(
                    "t",
                    graph,
                    arrival_time=i * 1e-4,
                )
                for i, graph in enumerate(traffic_mix_graphs(5, seed=2))
            ]
            assert ids == [1, 2, 3, 4, 5]
            reports.append(service.run())
        assert reports[0].fingerprint() == reports[1].fingerprint()

    def test_interleaved_submissions_do_not_share_ids(self):
        a = SchedulerService(fleet_size=1)
        b = SchedulerService(fleet_size=1)
        a.register_tenant("t")
        b.register_tenant("t")
        graphs = traffic_mix_graphs(4, seed=3)
        ids_a, ids_b = [], []
        for i, graph in enumerate(graphs):
            ids_a.append(a.submit("t", graph, arrival_time=i * 1e-4))
            ids_b.append(b.submit("t", graph, arrival_time=i * 1e-4))
        assert ids_a == [1, 2, 3, 4]
        assert ids_b == [1, 2, 3, 4]
        assert a.run().fingerprint() == b.run().fingerprint()
