#!/usr/bin/env python3
"""Serving — two tenants with different priorities share a 2-GPU fleet.

The paper's scheduler extracts parallelism from one host program; the
``repro.serve`` layer multiplexes *many clients* over a fleet of
simulated GPUs (one long-lived engine per fleet slot, with one
execution context per request).  Here a premium tenant and a batch
tenant submit the same mixed workloads; the priority admission policy
— a serving knob of ``ServeConfig`` — serves the premium tenant first,
which shows up directly in the per-tenant latency percentiles, while
every result stays bit-identical to running each graph alone on a
private session.

Run:  python examples/serving.py
"""

import numpy as np

from repro import AdmissionPolicy
from repro.serve import SchedulerService, ServeConfig, execute_serial
from repro.serve.workloads import mixed_workload_graphs

REQUESTS_PER_TENANT = 8


def main() -> None:
    # Admission is a serving knob; the serving layer builds one slot
    # per fleet GPU, configured by ServeConfig.scheduler (the default
    # here).
    service = SchedulerService(
        fleet_size=2,                       # two simulated GTX 1660s
        config=ServeConfig(admission=AdmissionPolicy.PRIORITY),
    )
    service.register_tenant("premium", priority=10)
    service.register_tenant("batch", priority=0)

    # Both tenants submit the same mix of suite workloads (vec / B&S /
    # ML ensemble iterations), all present at t=0 so admission order is
    # decided purely by policy.
    graphs = mixed_workload_graphs(2 * REQUESTS_PER_TENANT, seed=21)
    submitted = []
    for i, graph in enumerate(graphs):
        tenant = "premium" if i % 2 == 0 else "batch"
        submitted.append((service.submit(tenant, graph), graph))

    report = service.run()
    print(report.render())

    # The premium tenant's requests were admitted first.
    m = report.metrics
    assert m.per_tenant["premium"].p50 < m.per_tenant["batch"].p50

    # Multi-tenant sharing never changes anyone's numbers: every request
    # matches a private serial-runtime execution of the same graph.
    by_id = {r.request_id: r for r in report.results}
    for request_id, graph in submitted:
        reference = execute_serial(graph)
        for name, expected in reference.items():
            assert np.array_equal(by_id[request_id].outputs[name], expected)
    print(
        f"\npremium p50 {m.per_tenant['premium'].p50 * 1e3:.2f} ms vs"
        f" batch p50 {m.per_tenant['batch'].p50 * 1e3:.2f} ms;"
        f" all {len(submitted)} results identical to serial execution"
    )


if __name__ == "__main__":
    main()
