"""The data plane's determinism contract over pool width: one, two and
three threads produce bit-identical reports, counters and canonical
traces; the pool is loud when a kernel fails or exits and leaves no
thread behind, on one thread and on the default pool; ``sequential`` is
the one data plane; request-id allocation is service-owned.
"""

import signal
import sys
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.harness import parallel as parallel_harness
from repro.kernels.profile import LinearCostModel
from repro.obs.export import canonical_trace
from repro.obs.trace import Tracer
from repro.serve import (
    ArrayDecl,
    KernelDecl,
    LaunchDecl,
    SchedulerService,
    ServeConfig,
    TaskGraph,
)
from repro.serve.workloads import traffic_mix_graphs

FAULT_PLAN = "crash:slot=1,at=2e-3;degrade:slot=0,at=1e-3,factor=2.0"


def run_pool(
    *,
    fleet=(2, 1, 1),
    requests=24,
    tenants=3,
    faults=None,
    workers=None,
    trace=True,
):
    """One serving run on a pool of ``workers`` threads; returns
    (report, tracer)."""
    tracer = Tracer() if trace else None
    service = SchedulerService(
        fleet_topology=list(fleet),
        config=ServeConfig(workers=workers, faults=faults),
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
        equal on one, two and three threads — with and without a
        slot-scoped fault plan.  Results are collected in request-id
        order, so the width cannot show."""
        states = {}
        for workers in (1, 2, 3):
            report, tracer = run_pool(workers=workers, faults=faults)
            # more than one completion, so the width is exercised
            assert report.metrics.completed > 1
            states[workers] = (
                report.fingerprint(),
                report.counters,
                canonical_trace(tracer, results=report.results),
            )
        reference = states[1]
        for workers, state in states.items():
            assert state[0] == reference[0], workers
            assert state[1] == reference[1], workers
            assert state[2] == reference[2], workers
        if faults is not None:
            assert reference[1].get("faults.injected", 0) > 0


class TestLifecycle:
    @pytest.mark.parametrize("workers", [1, None])
    def test_run_leaves_no_worker_alive(self, workers):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(workers=workers)
        )
        service.register_tenant("t")
        for graph in traffic_mix_graphs(3, seed=1):
            service.submit("t", graph)
        threads = threading.active_count()
        assert service.run().metrics.completed == 3
        assert threading.active_count() == threads

    def test_unknown_strategy_rejected(self):
        """``sequential`` is the one data plane; the forked ``process``
        pool is gone."""
        for name in ("process", "greenlets"):
            with pytest.raises(ConfigError, match=repr(name)):
                ServeConfig(parallel=name)
        with pytest.raises(ValueError):
            ServeConfig(workers=0)

    @pytest.mark.parametrize("workers", [1.5, True, "2", 0, -1])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigError, match=repr(workers)):
            ServeConfig(workers=workers)


def _fail(x, y, n):
    raise ZeroDivisionError("kernel failed")


def _exit(x, y, n):
    sys.exit(3)


def _one_kernel_graph(fn) -> TaskGraph:
    n = 64
    return TaskGraph(
        name="one-kernel",
        arrays={
            "x": ArrayDecl("x", (n,), np.float32, init=np.ones(n, np.float32)),
            "y": ArrayDecl("y", (n,), np.float32),
        },
        kernels=(
            KernelDecl(
                "k", "const ptr, ptr, sint32", fn,
                LinearCostModel(flops_per_item=1.0, dram_bytes_per_item=8.0),
            ),
        ),
        launches=(LaunchDecl("k", 1, 64, ("x", "y", n)),),
    )


def _hung(signum, frame):
    pytest.fail("run() hung on an exiting worker thread")


class TestPool:
    @pytest.mark.parametrize("workers", [1, None])
    def test_kernel_error_reraises_in_the_parent(self, workers):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(workers=workers)
        )
        service.submit("t", _one_kernel_graph(_fail))
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="kernel failed"):
            service.run()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, None])
    def test_a_worker_exit_reraises_instead_of_hanging(self, workers):
        """A kernel raising SystemExit, which no ``except Exception``
        sees, ends its work, not its thread's wait: run() re-raises it
        beside requests that compute, and joins every thread."""
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(workers=workers)
        )
        service.submit("t", _one_kernel_graph(_exit))
        for graph in traffic_mix_graphs(2, seed=1):
            service.submit("t", graph)
        threads = threading.active_count()
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(60)
        try:
            with pytest.raises(SystemExit) as exited:
                service.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert exited.value.code == 3
        assert threading.active_count() == threads


class TestParallelBench:
    def test_the_baseline_is_one_thread_in_process(self, monkeypatch):
        """Every speedup divides the wall time of the one-thread data
        plane, timed first; the pool gets its own equality and timing
        entries."""
        served = []
        drive = parallel_harness.drive

        def recording(graphs, arrivals, config, **kwargs):
            served.append(config.workers)
            return drive(graphs, arrivals, config, **kwargs)

        monkeypatch.setattr(parallel_harness, "drive", recording)
        sweep = parallel_harness.parallel_bench(requests=6, workers=2)
        # each scenario: an equality pass, then a timing pass
        assert served == 2 * len(sweep["scenarios"]) * [1, 2]
        assert sweep["planes"] == {
            "sequential": {"workers": 1},
            "sequential-pooled": {"workers": 2},
        }
        for scenario in sweep["scenarios"].values():
            timing = scenario["timing"]
            assert list(timing) == ["sequential", "sequential-pooled"]
            assert list(scenario["equality"]) == list(timing)
            assert timing["sequential"]["speedup_vs_sequential"] == 1.0


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
