"""Golden equivalence for the combined workload + faults configuration.

PR 5 made closed-loop workloads and dynamic fault timelines composable,
but the composition itself was untested.  The contract mirrors the
single-axis suites: for the same seed on PolarFly q=7, the reference
engine and the flat engine on **both** cycle paths (pure numpy and the
C kernel, when a compiler is present) must produce bit-identical
:class:`~repro.workloads.WorkloadResult`\\ s *and*
:class:`~repro.faults.FaultResult`\\ s — message completion order, drop
and retransmit accounting, damaged deliveries, the lot.
"""

import numpy as np
import pytest

from repro import obs
from repro.experiments import FAULTS, POLICIES, WORKLOADS
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim._kernel import load_kernel

#: (workload, fault timeline, policy) — every registered fault
#: generator appears, paired with distinct collectives and policies.
COMBOS = [
    (
        "allreduce:algo=ring,size=64",
        "linkflap:count=3,cycle=120,duration=250,seed=5",
        "ugal-pf",
    ),
    (
        "alltoall:size=8",
        "mtbf:count=4,mtbf=150,mttr=200,seed=2,start=60",
        "min",
    ),
    (
        "halo:iters=2,size=16",
        "progressive:frac=0.08,steps=3,period=120,start=100,seed=4",
        "ugal-pf",
    ),
    (
        "incast:reply=true,size=32",
        "routerdown:cycle=200,count=1,duration=250,seed=3",
        "min",
    ),
]


def build(pf, tables, wspec, fault_spec, policy_spec, cls, seed):
    """A combined-mode simulator with fresh single-run state throughout."""
    timeline = FAULTS.create(fault_spec, pf)
    policy = POLICIES.create(policy_spec, tables)
    prepare_fault_policy(policy, timeline, pf)
    wl = WORKLOADS.create(wspec, pf)
    return cls(
        pf, policy, None, 0.0, config=auto_sim_config(policy), seed=seed,
        workload=wl, faults=timeline,
    )


def assert_workload_identical(a, b):
    assert a.cycles == b.cycles
    assert a.finished == b.finished
    assert a.completed_messages == b.completed_messages
    assert a.injected_flits == b.injected_flits
    assert a.ejected_flits == b.ejected_flits
    assert a.flit_hops == b.flit_hops
    assert np.array_equal(a.msg_latencies, b.msg_latencies)
    assert np.array_equal(a.msg_complete_cycles, b.msg_complete_cycles)
    assert np.array_equal(a.packet_latencies, b.packet_latencies)
    assert np.array_equal(a.hop_counts, b.hop_counts)
    assert a.summary() == b.summary()


def assert_fault_identical(fa, fb):
    sa, sb = fa.summary(), fb.summary()
    assert sa.keys() == sb.keys()
    for key in sa:
        va, vb = sa[key], sb[key]
        if isinstance(va, float) and va != va:  # NaN == NaN for identity
            assert vb != vb, key
        else:
            assert va == vb, (key, va, vb)
    assert np.array_equal(fa.pre_fault_latencies, fb.pre_fault_latencies)
    assert np.array_equal(fa.post_fault_latencies, fb.post_fault_latencies)


def test_combos_cover_every_registered_fault_generator():
    tested = {f.split(":")[0] for _, f, _ in COMBOS}
    assert tested == set(FAULTS.names()), (
        "combined grid must cover every registered fault generator"
    )


@pytest.mark.parametrize(
    "wspec,fault_spec,policy_spec",
    COMBOS,
    ids=[f"{w.split(':')[0]}-{f.split(':')[0]}-{p}" for w, f, p in COMBOS],
)
def test_all_engines_agree(
    pf, tables, flat_variants, wspec, fault_spec, policy_spec
):
    sim = build(pf, tables, wspec, fault_spec, policy_spec,
                NetworkSimulator, seed=3)
    ref = sim.run_workload(max_cycles=60_000)
    fref = sim.fault_result
    assert fref.applied_events > 0, "timeline must actually fire in-window"
    for label, ctx, expect_kernel in flat_variants:
        with ctx():
            fsim = build(pf, tables, wspec, fault_spec, policy_spec,
                         FlatSimulator, seed=3)
        assert (fsim._kernel is not None) == expect_kernel, (
            f"{label} must {'use' if expect_kernel else 'skip'} the C kernel"
        )
        res = fsim.run_workload(max_cycles=60_000)
        assert_workload_identical(ref, res)
        assert_fault_identical(fref, fsim.fault_result)


@pytest.mark.skipif(load_kernel() is None, reason="C kernel unavailable")
def test_kernel_engages_in_combined_mode(pf, tables):
    """The combined configuration must not fall back to numpy cycles."""
    sim = build(pf, tables, *COMBOS[0], FlatSimulator, seed=1)
    assert sim._kernel is not None
    res = sim.run_workload(max_cycles=60_000)
    assert res.completed_messages > 0


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
def test_blackhole_counter_matches_the_result(pf, tables, wspec, fault_spec, cls):
    """``faults.blackholed_packets`` counts retransmit-path blackholes too."""
    counter = obs.counter("faults.blackholed_packets")
    before = counter.value
    sim = build(pf, tables, wspec, fault_spec, "min", cls, seed=3)
    sim.run_workload(max_cycles=60_000)
    assert sim.fault_result.blackholed_packets > 0
    assert counter.value - before == sim.fault_result.blackholed_packets
