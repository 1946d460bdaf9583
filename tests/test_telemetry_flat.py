"""Flat-engine link telemetry: attached counters never change a run.

Link counts and occupancy samples are compared across all three cycle
paths in ``tests/test_differential.py``.
"""

from repro.flitsim.telemetry import LinkCounts

from oracles import assert_same_result, build

#: topology, policy, traffic, load
CELL = ("polarfly:conc=2,q=7", "min", "uniform", 0.5)


def test_attach_does_not_perturb_results():
    plain = build(*CELL, seed=7)
    plain_res = plain.run(warmup=120, measure=240, drain=80)

    instrumented = build(*CELL, seed=7)
    instrumented.attach_link_telemetry()
    inst_res = instrumented.run(warmup=120, measure=240, drain=80)
    assert_same_result(plain_res, inst_res)
    # The attached counters do tick — what they must never do is change
    # the simulation.
    assert instrumented.link_flits().sum() > 0


def test_link_counts_know_the_window_and_every_link():
    sim = build(*CELL, seed=7)
    links = LinkCounts()
    res = sim.run(warmup=120, measure=240, drain=0, observers=[links])
    assert sim.result is res
    assert res.cycles == 240 == links.cycles
    counts, _ = links.utilization_histogram()
    assert counts.sum() == 2 * sim.topo.num_links  # idle links included
