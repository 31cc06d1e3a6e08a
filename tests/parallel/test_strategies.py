"""The execution-strategy matrix contract: every strategy produces
bit-identical reports, counters and canonical traces; the data-plane
pools are loud when a kernel fails or a worker dies and leave no worker
behind, and the process pool sends small tasks; request-id allocation
is service-owned.
"""

import multiprocessing
import os
import pickle
import signal
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.harness import parallel as parallel_harness
from repro.kernels.profile import LinearCostModel
from repro.obs.export import canonical_trace
from repro.obs.trace import Tracer
from repro.parallel import STRATEGIES, strategy
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

    @pytest.mark.parametrize("parallel", STRATEGIES)
    def test_worker_count_keeps_the_fingerprint(self, parallel):
        """Results are collected in request-id order: one, two and
        three workers report the same fingerprint."""
        fingerprints = {
            run_strategy(parallel, workers=w, trace=False)[0].fingerprint()
            for w in (1, 2, 3)
        }
        assert len(fingerprints) == 1

    def test_faulted_process_counters_match_sequential(self):
        seq, _ = run_strategy("sequential", faults=FAULT_PLAN, trace=False)
        proc, _ = run_strategy("process", faults=FAULT_PLAN, trace=False)
        assert proc.counters == seq.counters
        assert proc.counters.get("faults.injected", 0) > 0


class TestLifecycle:
    @pytest.mark.parametrize("parallel", STRATEGIES)
    def test_run_leaves_no_worker_alive(self, parallel):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(parallel=parallel)
        )
        service.register_tenant("t")
        for graph in traffic_mix_graphs(3, seed=1):
            service.submit("t", graph)
        threads = threading.active_count()
        assert service.run().metrics.completed == 3
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="greenlets"):
            ServeConfig(parallel="greenlets")
        with pytest.raises(ValueError):
            ServeConfig(workers=0)

    @pytest.mark.parametrize("workers", [1.5, True, "2", 0, -1])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigError, match=repr(workers)):
            ServeConfig(workers=workers)


#: the test process; pool workers are its forks
TEST_PID = os.getpid()


def _exit_outside_test_process(x, y, n):
    if os.getpid() != TEST_PID:
        os._exit(1)
    y[:n] = x[:n]


def _fail(x, y, n):
    raise ZeroDivisionError("kernel failed")


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
    pytest.fail("run() hung on a dead worker")


class TestPool:
    def test_dead_worker_raises_instead_of_hanging(self):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(parallel="process")
        )
        service.submit("t", _one_kernel_graph(_exit_outside_test_process))
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError):
                service.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("parallel", STRATEGIES)
    def test_kernel_error_reraises_in_the_parent(self, parallel):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(parallel=parallel)
        )
        service.submit("t", _one_kernel_graph(_fail))
        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="kernel failed"):
            service.run()
        assert threading.active_count() == threads

    def test_each_task_pickles_under_a_kilobyte(self, monkeypatch):
        sizes = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                sizes.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(strategy, "ProcessPoolExecutor", Recording)
        report, _ = run_strategy("process", workers=2, trace=False)
        assert len(sizes) == report.metrics.completed > 0
        assert max(sizes) < 1024


class TestParallelBench:
    def test_the_baseline_is_one_thread_in_process(self, monkeypatch):
        """Every speedup divides the wall time of the one-thread
        in-process data plane, timed first; the thread pool and the
        process pool each get their own equality and timing entries."""
        served = []
        drive = parallel_harness.drive

        def recording(graphs, arrivals, config, **kwargs):
            served.append((config.parallel, config.workers))
            return drive(graphs, arrivals, config, **kwargs)

        monkeypatch.setattr(parallel_harness, "drive", recording)
        sweep = parallel_harness.parallel_bench(requests=6, workers=2)
        planes = [("sequential", 1), ("sequential", 2), ("process", 2)]
        # each scenario: an equality pass, then a timing pass
        assert served == 2 * len(sweep["scenarios"]) * planes
        for scenario in sweep["scenarios"].values():
            timing = scenario["timing"]
            assert list(timing) == ["sequential", "sequential-pooled", "process"]
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
