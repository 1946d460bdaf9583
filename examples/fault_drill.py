#!/usr/bin/env python3
"""Operational fault drill: telemetry, failures, and rerouting.

Run:  python examples/fault_drill.py

A day-2-operations walkthrough on a PolarFly fabric:

1. run tornado traffic with per-link telemetry and find the hot links
   minimal routing creates (the Figure 9 mechanism, observed directly);
2. fail a batch of random links, verify the Section IX-B predictions
   (diameter 3-4, never disconnected at these rates);
3. rebuild routing tables around the failures and show the degraded
   fabric still carries traffic at bounded path length;
4. fail a whole router and confirm the diameter-3 claim for node loss;
5. re-run the failures *dynamically*: links die and recover mid-run
   while the simulator drops in-flight flits, repairs routes
   incrementally, and (for a collective) retransmits lost packets.
"""

from repro import (
    FAULTS,
    MinimalRouting,
    NetworkSimulator,
    PolarFly,
    RoutingTables,
    SweepRunner,
    TornadoTraffic,
    UGALPFRouting,
    UniformTraffic,
    WORKLOADS,
    prepare_fault_policy,
)
from repro.analysis import node_failure_diameter
from repro.experiments.runner import auto_sim_config, simulate_point
from repro.flitsim.telemetry import LinkCounts
from repro.routing import degraded_topology, reroute_after_failures
from repro.utils.rng import make_rng


def main() -> None:
    pf = PolarFly(7, concentration=2)
    tables = RoutingTables(pf)
    print(f"=== Fault drill on {pf.name}: {pf.num_routers} routers ===\n")

    # 1. Observe min-routing hot links under tornado.
    print("Step 1 — telemetry under tornado traffic (min routing):")
    sim = NetworkSimulator(pf, MinimalRouting(tables), TornadoTraffic(pf), 0.5, seed=0)
    tel = LinkCounts()
    sim.run(warmup=200, measure=500, drain=0, observers=[tel])
    link, util = tel.max_utilization()
    print(f"  hottest link {link}: {util:.0%} utilized; load Gini {tel.gini():.2f}")
    sim2 = NetworkSimulator(pf, UGALPFRouting(tables), TornadoTraffic(pf), 0.5, seed=0)
    tel2 = LinkCounts()
    sim2.run(warmup=200, measure=500, drain=0, observers=[tel2])
    print(f"  with UGAL_PF: hottest {tel2.max_utilization()[1]:.0%}, "
          f"Gini {tel2.gini():.2f}  (adaptive routing spreads the load)\n")

    # 2. Fail 10% of links at random.
    rng = make_rng(1)
    edges = pf.graph.edges()
    kill = rng.choice(len(edges), size=len(edges) // 10, replace=False)
    failed = [tuple(map(int, edges[i])) for i in kill]
    deg = degraded_topology(pf, failed)
    print(f"Step 2 — {len(failed)} random link failures (10%):")
    print(f"  connected: {deg.is_connected()}, diameter {deg.diameter()} "
          f"(paper: 3-4 expected), ASPL {deg.average_shortest_path_length():.2f}\n")

    # 3. Reroute and re-simulate on the broken fabric.  A degraded
    #    topology is a live object with no registry spec, so it runs
    #    through the engine's object path (auto-sized VC config).
    print("Step 3 — reroute and carry traffic on the degraded fabric:")
    deg_tables = reroute_after_failures(pf, failed)
    policy = MinimalRouting(deg_tables)
    sweep3 = SweepRunner().run_objects(
        deg, policy, UniformTraffic(deg), loads=(0.3,),
        warmup=200, measure=500, drain=200, seed=2,
    )
    res3 = sweep3.points[0]
    print(f"  accepted {res3.accepted_load:.3f} at offered 0.30; "
          f"avg hops {res3.avg_hops:.2f} (max {policy.max_hops})\n")

    # 4. Router failure.
    victim = int(pf.quadrics[0])
    print("Step 4 — whole-router failure:")
    print(f"  removing quadric router {victim}: diameter becomes "
          f"{node_failure_diameter(pf, victim)} (paper: exactly 3)\n")

    # 5. The same story *dynamically*: an MTBF failure/repair process
    #    runs inside the simulation — flits on dying links are dropped,
    #    tables repair incrementally, traffic keeps flowing.
    print("Step 5 — dynamic fault injection (in-simulation failures):")
    # start=250 puts the first failure after the 200-cycle warmup, so
    # the pre-fault latency window actually accumulates samples.
    timeline = FAULTS.create("mtbf:count=3,mtbf=250,mttr=200,seed=2,start=250", pf)
    policy5 = UGALPFRouting(tables)
    prepare_fault_policy(policy5, timeline, pf)
    res5 = simulate_point(
        pf, policy5, UniformTraffic(pf), 0.5, warmup=200, measure=500,
        drain=200, seed=4, faults=timeline,
    )
    fr = res5.fault
    print(f"  {fr.num_events} fault epochs, {fr.dropped_flits} flits dropped, "
          f"{fr.dropped_packets} packets lost")
    print(f"  accepted {res5.accepted_load:.3f} at offered 0.50; post-fault "
          f"latency {fr.post_fault_avg_latency:.1f} cyc "
          f"(pre {fr.pre_fault_avg_latency:.1f})")

    # A collective under the same failures: lost packets retransmit at
    # the source, so the all-reduce still completes.
    timeline2 = FAULTS.create("mtbf:count=4,mtbf=150,mttr=200,seed=2,start=60", pf)
    policy6 = UGALPFRouting(tables)
    prepare_fault_policy(policy6, timeline2, pf)
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    res6 = simulate_point(
        pf, policy6, workload=wl, config=auto_sim_config(policy6), seed=3,
        faults=timeline2,
    )
    fr6 = res6.fault
    print(f"  ring all-reduce under failures: finished={res6.finished} in "
          f"{res6.completion_time} cycles; {fr6.dropped_packets} lost, "
          f"{fr6.retransmitted_packets} retransmitted")


if __name__ == "__main__":
    main()
