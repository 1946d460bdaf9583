"""The flat engine's congestion view reads what the reference engine's does.

Whole runs are compared path by path in ``tests/test_differential.py``;
this file keeps the per-step read UGAL decides on.
"""

import numpy as np

from repro.experiments.registry import POLICIES, TOPOLOGIES, TRAFFICS
from repro.experiments.runner import auto_sim_config
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.routing.tables import RoutingTables


def test_congestion_views_agree_under_load():
    # The O(1) occupancy counters must report the same backlog in both
    # engines at every step of a congested run.
    topo = TOPOLOGIES.create("polarfly:conc=2,q=5")
    policy = POLICIES.create("min", RoutingTables(topo))
    traffic = TRAFFICS.create("tornado", topo)
    cfg = auto_sim_config(policy)
    ref = NetworkSimulator(topo, policy, traffic, 0.9, config=cfg, seed=2)
    flat = FlatSimulator(topo, policy, traffic, 0.9, config=cfg, seed=2)
    pairs = [
        (r, int(v))
        for r in range(topo.num_routers)
        for v in topo.graph.neighbors(r)
    ]
    routers = np.array([p[0] for p in pairs])
    hops = np.array([p[1] for p in pairs])
    for step in range(120):
        ref.step()
        flat.step()
        if step % 30 == 29:
            assert np.array_equal(
                ref.output_occupancies(routers, hops),
                flat.output_occupancies(routers, hops),
            )
