"""Frozen dispatch behaviour of the fleet service and the cluster.

Each case serves a fixed submission set under a fault plan and pins what
the dispatch loop produced: the report fingerprint, the sha256 of the
canonical Chrome trace, and the terminal-status counts.  Together the
cases reach every terminal status, the blackout shed-all and revival
paths, watermark shedding, deadlines, retry backoff and exhaustion at
both levels.  A case that moves on purpose goes into the golden's
``amended`` section with its reason; the golden is never regenerated
silently.

Regenerate (only on a commit whose dispatch behaviour is the reference)::

    PYTHONPATH=src python tests/serve/test_dispatch_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.faults import FaultPlan
from repro.harness.serving import CHAOS_SCENARIOS
from repro.obs.export import canonical_trace
from repro.obs.trace import Tracer
from repro.serve import AdmissionPolicy, SchedulerService, ServeConfig
from repro.serve.workloads import mixed_workload_graphs

GOLDEN = os.path.join(os.path.dirname(__file__), "dispatch_golden.json")

#: tenant name -> priority
TENANTS = {"t0": 2, "t1": 1, "t2": 0}
SERVICE_REQUESTS = 24
SERVICE_GAP = 2e-4
CLUSTER_REQUESTS = 16
CLUSTER_GAP = 3e-4
CLUSTER_TOPOLOGY = "2,1|2"

#: name -> (fleet, ServeConfig kwargs, deadline after arrival in s)
SERVICE_CASES: dict[str, tuple[str, dict, float | None]] = {
    **{
        f"service/chaos-{name}": ("1,1,1,1,1,1", {"faults": plan}, None)
        for name, plan in CHAOS_SCENARIOS.items()
    },
    "service/fault-free": ("2,2,1,1", {}, None),
    "service/deadlines": (
        "1,1",
        {"faults": "crash:slot=1,at=1e-3"},
        1.5e-3,
    ),
    "service/retry-exhaustion": (
        "1",
        {
            "faults": (
                "transfer-fault:slot=0,at=1e-3;crash:slot=0,at=3e-3;"
                "restart:slot=0,at=3.5e-3,warmup=1e-4"
            ),
            "max_retries": 0,
        },
        None,
    ),
    "service/watermark-shed": (
        "1,1,1",
        {
            "faults": "crash:slot=0,at=0;crash:slot=1,at=0",
            "shed_queue_per_gpu": 2,
        },
        None,
    ),
    "service/backoff": (
        "1,1",
        {
            "faults": (
                "transfer-fault:slot=0,at=1e-3;"
                "transfer-fault:slot=1,at=2e-3"
            ),
            "retry_backoff_us": 100.0,
        },
        None,
    ),
}

NODE_FAULTS = {
    "crash": "crash:node=1,at=1.5e-3",
    "drain": "drain:node=0,at=1e-3",
    "degrade": "degrade:node=0,at=1e-3,factor=2.5",
    "transfer-fault": "transfer-fault:node=1,at=1e-3",
    "blackout": "crash:node=0,at=2e-3;crash:node=1,at=2e-3",
    "crash-restart": (
        "crash:node=1,at=1.5e-3;restart:node=1,at=3e-3,warmup=2e-4"
    ),
}

#: name -> (policy, fault plan, deadline after arrival in s, ServeConfig
#: kwargs of every node)
CLUSTER_CASES: dict[str, tuple[str, object, float | None, dict]] = {
    **{
        f"cluster/{fault}-{policy}": (policy, plan, None, {})
        for fault, plan in NODE_FAULTS.items()
        for policy in ("spread", "bin-pack", "affinity")
    },
    "cluster/deadlines": ("spread", NODE_FAULTS["crash"], 1.5e-3, {}),
    # a total outage with a restart pending: placement fast-forwards
    "cluster/blackout-revival": (
        "spread",
        NODE_FAULTS["blackout"] + ";restart:node=0,at=3e-3,warmup=2e-4",
        None,
        {},
    ),
    # a request the crashed node failed is not re-placed: its node's
    # terminal record stands
    "cluster/retry-exhaustion": (
        "spread", NODE_FAULTS["crash"], None, {"max_retries": 0}
    ),
    **{
        f"cluster/random-nodes-{seed}": (
            "spread",
            FaultPlan.random(
                seed, nodes=2, horizon=CLUSTER_REQUESTS * CLUSTER_GAP
            ),
            None,
            {},
        )
        for seed in (1, 2, 3)
    },
}

CASES = sorted(SERVICE_CASES) + sorted(CLUSTER_CASES)


def _submit(front, graphs, gap, deadline):
    for name, priority in TENANTS.items():
        front.register_tenant(name, priority=priority)
    ids = []
    for i, graph in enumerate(graphs):
        arrival = i * gap
        ids.append(
            front.submit(
                f"t{i % len(TENANTS)}",
                graph,
                arrival_time=arrival,
                deadline=None if deadline is None else arrival + deadline,
            )
        )
    return ids


def run_case(name: str) -> dict:
    """Serve one case; returns its golden record."""
    tracer = Tracer()
    if name in SERVICE_CASES:
        fleet, knobs, deadline = SERVICE_CASES[name]
        front = SchedulerService(
            fleet_topology=fleet,
            config=ServeConfig(admission=AdmissionPolicy.PRIORITY, **knobs),
            tracer=tracer,
        )
        graphs = mixed_workload_graphs(SERVICE_REQUESTS, seed=5)
        ids = _submit(front, graphs, SERVICE_GAP, deadline)
    else:
        policy, plan, deadline, knobs = CLUSTER_CASES[name]
        front = Cluster(
            CLUSTER_TOPOLOGY,
            config=ClusterConfig(
                policy=policy, faults=plan, serve=ServeConfig(**knobs)
            ),
            tracer=tracer,
        )
        graphs = mixed_workload_graphs(CLUSTER_REQUESTS, seed=11)
        ids = _submit(front, graphs, CLUSTER_GAP, deadline)
    report = front.run()
    results = sorted(r.request_id for r in report.results)
    assert results == sorted(ids), f"{name}: not one result per submission"
    trace = json.dumps(
        canonical_trace(tracer, results=report.results), sort_keys=True
    )
    m = report.metrics
    return {
        "fingerprint": report.fingerprint(),
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
        "completed": m.completed,
        "shed": m.shed,
        "timed_out": m.timed_out,
        "failed": m.failed,
    }


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    golden = _golden()
    assert sorted(golden["cases"]) == sorted(CASES)
    assert set(golden.get("amended", {})) <= set(CASES)


def test_cases_reach_every_terminal_status():
    cases = _golden()["cases"].values()
    for status in ("completed", "shed", "timed_out", "failed"):
        assert any(c[status] for c in cases), status


@pytest.mark.parametrize("name", CASES)
def test_dispatch_matches_golden(name):
    golden = _golden()
    expected = golden.get("amended", {}).get(name) or golden["cases"][name]
    expected = {k: v for k, v in expected.items() if k != "reason"}
    assert run_case(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    cases = {name: run_case(name) for name in CASES}
    with open(GOLDEN, "w") as fh:
        json.dump({"cases": cases, "amended": {}}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
