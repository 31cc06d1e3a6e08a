"""Property-based pool-width equivalence: random fleet topologies,
traffic mixes and slot-scoped fault plans must produce bit-identical
reports, counters and canonical traces on one data-plane thread and on
three.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.obs.export import canonical_trace
from repro.obs.trace import Tracer
from repro.serve import SchedulerService, ServeConfig
from repro.serve.workloads import TRAFFIC_MIXES, traffic_mix_graphs

topologies = st.lists(
    st.integers(min_value=1, max_value=2), min_size=2, max_size=3
)
mixes = st.sampled_from(sorted(TRAFFIC_MIXES))
# None = fault-free; otherwise (kind, slot_offset, at) tuples rendered
# against the drawn topology so the slot scope always exists.
fault_draws = st.one_of(
    st.none(),
    st.lists(
        st.tuples(
            st.sampled_from(["crash", "degrade", "transfer-fault"]),
            st.integers(min_value=0, max_value=7),
            st.sampled_from([5e-4, 1e-3, 2e-3]),
        ),
        min_size=1,
        max_size=2,
    ),
)


def render_faults(draws, slot_count):
    if draws is None:
        return None
    parts = []
    for kind, offset, at in draws:
        slot = offset % slot_count
        spec = f"{kind}:slot={slot},at={at}"
        if kind == "degrade":
            spec += ",factor=2.0"
        parts.append(spec)
    return ";".join(parts)


def run_once(workers, topology, mix, faults):
    tracer = Tracer()
    service = SchedulerService(
        fleet_topology=list(topology),
        config=ServeConfig(workers=workers, faults=faults),
        tracer=tracer,
    )
    for t in range(2):
        service.register_tenant(f"tenant{t}", priority=1 - t)
    rng = np.random.default_rng(13)
    arrival = 0.0
    for i, graph in enumerate(traffic_mix_graphs(6, mix=mix, seed=13)):
        arrival += float(rng.exponential(120e-6))
        service.submit(f"tenant{i % 2}", graph, arrival_time=arrival)
    report = service.run()
    return (
        report.fingerprint(),
        report.counters,
        canonical_trace(tracer, results=report.results),
    )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(topology=topologies, mix=mixes, draws=fault_draws)
def test_strategies_agree_on_random_scenarios(topology, mix, draws):
    faults = render_faults(draws, len(topology))
    reference = run_once(1, topology, mix, faults)
    fingerprint, counters, trace = run_once(3, topology, mix, faults)
    assert fingerprint == reference[0], faults
    assert counters == reference[1], faults
    assert trace == reference[2], faults
