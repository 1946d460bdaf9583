"""Blackhole accounting of the combined workload + faults configuration.

Combined cells run on all three cycle paths in
``tests/test_differential.py``; here the ``faults.blackholed_packets``
counter is held to the fault result on both engines.
"""

import pytest

from repro import obs
from repro.flitsim import FlatSimulator, NetworkSimulator

from oracles import build


#: (workload, routerdown timeline): routers die with messages still to
#: inject or to retransmit, so packets are blackholed on both paths —
#: whole ready messages, and retransmit-queue entries
BLACKHOLE_CELLS = [
    ("incast:reply=true,size=32",
     "routerdown:cycle=20,count=2,duration=250,seed=3"),
    ("alltoall:size=8", "routerdown:cycle=10,count=3,duration=400,seed=1"),
    ("allreduce:algo=ring,size=64",
     "routerdown:cycle=50,count=2,duration=300,seed=2"),
]


@pytest.mark.parametrize("cls", [NetworkSimulator, FlatSimulator])
@pytest.mark.parametrize("wspec,fault_spec", BLACKHOLE_CELLS)
def test_blackhole_counter_matches_the_result(wspec, fault_spec, cls):
    """``faults.blackholed_packets`` counts retransmit-path blackholes too."""
    counter = obs.counter("faults.blackholed_packets")
    before = counter.value
    sim = build(
        "polarfly:conc=2,q=7", "min", None, 0.0, engine=cls, workload=wspec,
        faults=fault_spec,
    )
    sim.run_workload(max_cycles=60_000)
    assert sim.fault_result.blackholed_packets > 0
    assert counter.value - before == sim.fault_result.blackholed_packets
