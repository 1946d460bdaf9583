"""Property-based tests on the simulator's conservation invariants.

Whatever the configuration, a drained network must account for every
flit: nothing lost, nothing duplicated, credits fully restored.  These
are the invariants that catch scheduler/credit bugs.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PolarFly
from repro.flitsim import (
    NetworkSimulator,
    SimConfig,
    TornadoTraffic,
    UniformTraffic,
)
from repro.routing import (
    CompactValiantRouting,
    MinimalRouting,
    RoutingTables,
    UGALPFRouting,
)

PF = PolarFly(5, concentration=2)
TABLES = RoutingTables(PF)
POLICIES = {
    "min": MinimalRouting(TABLES),
    "cvaliant": CompactValiantRouting(TABLES),
    "ugalpf": UGALPFRouting(TABLES),
}


@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    load=st.floats(min_value=0.05, max_value=0.6),
    vc_depth=st.integers(min_value=2, max_value=16),
    packet_size=st.integers(min_value=1, max_value=6),
    pattern=st.sampled_from(["uniform", "tornado"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_flit_conservation(policy_name, load, vc_depth, packet_size, pattern, seed):
    policy = POLICIES[policy_name]
    cfg = SimConfig(
        packet_size=packet_size,
        num_vcs=max(4, policy.max_hops - 1),
        vc_depth=vc_depth,
    )
    traffic = (
        UniformTraffic(PF) if pattern == "uniform" else TornadoTraffic(PF)
    )
    sim = NetworkSimulator(PF, policy, traffic, load, config=cfg, seed=seed)
    sim.run(warmup=0, measure=150, drain=3000)

    # 1. Everything drained.
    in_flight = sum(len(q) for r in range(PF.num_routers) for q in sim.voq[r].values())
    src_left = sum(len(q) for r in range(PF.num_routers) for q in sim.src_q[r])
    assert in_flight == 0
    assert src_left == 0

    # 2. All credits restored to capacity.
    for r in range(PF.num_routers):
        for port_credits in sim.credits[r]:
            assert all(c == cfg.vc_depth for c in port_credits)
        assert all(c == cfg.vc_depth for c in sim.inj_credit[r])

    # 3. Latency samples are positive and hops within policy bounds.
    res = sim.result
    for lat in res.latencies:
        assert lat >= packet_size - 1
    for hops in res.hop_counts:
        assert 1 <= hops <= policy.max_hops


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_latency_samples_deterministic_per_seed(seed):
    def one_run():
        sim = NetworkSimulator(
            PF, POLICIES["min"], UniformTraffic(PF), 0.3, seed=seed
        )
        return sim.run(warmup=50, measure=150, drain=400)

    a, b = one_run(), one_run()
    assert np.array_equal(a.latencies, b.latencies)
    assert a.ejected_flits == b.ejected_flits
