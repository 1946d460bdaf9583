"""Golden equivalence for the dynamic fault subsystem.

The acceptance contract: for the same seed, the flat engine — on
**both** cycle paths, pure numpy and the C kernel (when a compiler is
present) — and the reference engine produce **bit-identical** results
on PolarFly q=7 for *every* registered fault timeline — flit drops,
blackholes, retransmit order, and post-repair routes included — in both
open-loop and closed-loop modes; and faulted sweep cells are
cache-stable and identical at any worker count.
"""

import numpy as np
import pytest

from repro.core import PolarFly
from repro.experiments import (
    Combo,
    ExperimentSpec,
    FAULTS,
    POLICIES,
    ResultCache,
    SweepRunner,
    WORKLOADS,
)
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim.traffic import UniformTraffic
from repro.routing.tables import RoutingTables

PF_SPEC = "polarfly:conc=2,q=7"


#: one spec per registered generator, sized so events land inside the
#: simulated window and exercise repair (ups as well as downs)
FAULT_SPECS = [
    "linkflap:count=2,cycle=250,duration=250,seed=1",
    "mtbf:count=3,mtbf=250,mttr=200,seed=2,start=150",
    "routerdown:cycle=300,count=1,duration=350,seed=3",
    "progressive:frac=0.08,steps=3,period=180,start=200,seed=4",
]


def build(pf, tables, policy_spec, fault_spec, cls, **sim_kwargs):
    """A simulator + fresh fault/policy objects (fault state is 1-run)."""
    timeline = FAULTS.create(fault_spec, pf)
    policy = POLICIES.create(policy_spec, tables)
    prepare_fault_policy(policy, timeline, pf)
    return cls(
        pf, policy, sim_kwargs.pop("traffic", None),
        sim_kwargs.pop("load", 0.0), config=auto_sim_config(policy),
        faults=timeline, **sim_kwargs,
    )


def assert_sim_identical(a, b):
    assert a.injected_flits == b.injected_flits
    assert a.ejected_flits == b.ejected_flits
    assert np.array_equal(np.asarray(a.latencies), np.asarray(b.latencies))
    assert np.array_equal(np.asarray(a.hop_counts), np.asarray(b.hop_counts))


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


def test_specs_cover_every_registered_generator():
    tested = {s.split(":")[0] for s in FAULT_SPECS}
    assert tested == set(FAULTS.names()), (
        "equivalence grid must cover every registered fault generator"
    )


def check_open_loop(pf, tables, flat_variants, policy_spec, fault_spec, load, windows):
    """Reference vs both flat cycle paths on one faulted open-loop cell."""
    sim = build(
        pf, tables, policy_spec, fault_spec, NetworkSimulator,
        traffic=UniformTraffic(pf), load=load, seed=7,
    )
    ra = sim.run(**windows)
    fa = sim.fault_result
    assert fa.applied_events > 0, "timeline must actually fire in-window"
    for label, ctx, expect_kernel in flat_variants:
        with ctx():
            fsim = build(
                pf, tables, policy_spec, fault_spec, FlatSimulator,
                traffic=UniformTraffic(pf), load=load, seed=7,
            )
        assert (fsim._kernel is not None) == expect_kernel, (
            f"{label} must {'use' if expect_kernel else 'skip'} the C kernel"
        )
        rb = fsim.run(**windows)
        assert_sim_identical(ra, rb)
        assert_fault_identical(fa, fsim.fault_result)


@pytest.mark.parametrize("fault_spec", FAULT_SPECS)
@pytest.mark.parametrize("policy_spec", ["min", "ugal-pf"])
def test_flat_matches_reference_open_loop(
    pf, tables, flat_variants, fault_spec, policy_spec
):
    check_open_loop(
        pf, tables, flat_variants, policy_spec, fault_spec, 0.4,
        dict(warmup=200, measure=400, drain=150),
    )


def test_flat_matches_reference_linkflap_ugal(pf, tables, flat_variants):
    # The compiled route selector follows policy.tables by identity:
    # bound to the intact tables, re-bound to the row-patched distance
    # view the flapped links leave, and back when they return — all
    # three epochs must stay on the reference engine's RNG stream.
    check_open_loop(
        pf, tables, flat_variants, "ugal", FAULT_SPECS[0], 0.6,
        dict(warmup=200, measure=400, drain=150),
    )


def test_flat_matches_reference_sparse_regime(flat_variants):
    # PolarFly q=13 at load 0.05: nearly every (router, out) row is
    # empty, the rows the C kernel's decide loop skips; the flapping
    # links go down and come back inside the 150 simulated cycles.
    pf13 = PolarFly(13, concentration=2)
    check_open_loop(
        pf13, RoutingTables(pf13), flat_variants, "ugal-pf",
        "linkflap:count=12,cycle=40,duration=60,seed=1", 0.05,
        dict(warmup=30, measure=90, drain=30),
    )


@pytest.mark.parametrize(
    "fault_spec",
    [
        "linkflap:count=3,cycle=120,duration=250,seed=5",
        "mtbf:count=4,mtbf=150,mttr=200,seed=2,start=60",
        "routerdown:cycle=150,count=1,duration=300,seed=3",
    ],
)
def test_flat_matches_reference_closed_loop(pf, tables, flat_variants, fault_spec):
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    sim = build(pf, tables, "ugal-pf", fault_spec, NetworkSimulator,
                seed=3, workload=wl)
    ra = sim.run_workload(max_cycles=60_000)
    fa = sim.fault_result
    for label, ctx, expect_kernel in flat_variants:
        with ctx():
            fsim = build(
                pf, tables, "ugal-pf", fault_spec, FlatSimulator,
                seed=3, workload=wl,
            )
        assert (fsim._kernel is not None) == expect_kernel, label
        rb = fsim.run_workload(max_cycles=60_000)
        fb = fsim.fault_result
        assert ra.cycles == rb.cycles
        assert ra.finished == rb.finished
        assert ra.completed_messages == rb.completed_messages
        assert np.array_equal(ra.msg_latencies, rb.msg_latencies)
        assert np.array_equal(ra.packet_latencies, rb.packet_latencies)
        assert ra.summary() == rb.summary()
        assert_fault_identical(fa, fb)


def test_retransmission_recovers_lost_collective_packets(pf, tables):
    """An MTBF process that drops tails must retransmit and still finish."""
    spec = "mtbf:count=4,mtbf=150,mttr=200,seed=2,start=60"
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    sim = build(pf, tables, "ugal-pf", spec, FlatSimulator, seed=3, workload=wl)
    res = sim.run_workload(max_cycles=60_000)
    fault = sim.fault_result
    assert fault.dropped_packets > 0, "scenario must actually lose packets"
    assert fault.retransmitted_packets == fault.dropped_packets
    assert res.finished, "retransmission should let the collective complete"
    assert res.completed_messages == res.num_messages


def test_fault_state_is_single_run(pf, tables):
    sim = build(
        pf, tables, "min", FAULT_SPECS[0], FlatSimulator,
        traffic=UniformTraffic(pf), load=0.3, seed=1,
    )
    sim.run(warmup=50, measure=50, drain=0)
    with pytest.raises(RuntimeError, match="single-run"):
        sim.run(warmup=50, measure=50, drain=0)


def test_flit_conservation_with_drops(pf, tables):
    """Pool accounting: every flit is delivered, dropped, or in flight."""
    sim = build(
        pf, tables, "min", "progressive:frac=0.1,steps=4,period=100,start=100,seed=6",
        FlatSimulator, traffic=UniformTraffic(pf), load=0.5, seed=9,
    )
    for _ in range(900):
        sim.step()
    assert sim.fault_result is None  # run() not used; build manually
    fault = sim._fault
    assert fault.dropped_flits > 0
    assert sim.live_flits() >= 0
    # Live flits = injected-to-pool minus ejected minus dropped; the
    # free-list must account for every dropped row exactly once.
    assert sim.free_top + sim.live_flits() == sim.pool_cap


def test_faulted_sweep_workers_and_cache_round_trip(tmp_path):
    spec = ExperimentSpec.fault_grid(
        [PF_SPEC], ["min", "ugal-pf"], ["uniform"],
        ["linkflap:count=2,cycle=120,duration=150,seed=1"],
        loads=(0.3, 0.6), warmup=100, measure=200, drain=80, root_seed=5,
    )
    cache = ResultCache(tmp_path / "cache")
    r1 = SweepRunner(cache=cache, max_workers=1).run(spec)
    assert (r1.cache_hits, r1.cache_misses) == (0, 4)
    with SweepRunner(cache=cache, max_workers=2) as runner:
        r2 = runner.run(spec)
    assert (r2.cache_hits, r2.cache_misses) == (4, 0)
    assert r1.cells == r2.cells
    r3 = SweepRunner(cache=None, max_workers=2).run(spec)
    assert r1.cells == r3.cells
    for stats in r1.cells.values():
        # Two epoch transitions: both links down at 120, both up at 270.
        assert stats["fault_events"] == 2
        assert stats["fault_applied_events"] == 2
        assert stats["dropped_flits"] >= 0


def test_fault_free_cells_unaffected_by_fault_axis():
    """Fault-free cell records carry no fault fields (hash stability)."""
    spec = ExperimentSpec.grid(
        [PF_SPEC], ["min"], ["uniform"], loads=(0.2,)
    )
    cell = spec.cells()[0]
    assert "faults" not in cell
    faulted = ExperimentSpec.fault_grid(
        [PF_SPEC], ["min"], ["uniform"],
        ["linkflap:count=1,cycle=100,seed=1"], loads=(0.2,),
    ).cells()[0]
    assert faulted["faults"].startswith("linkflap")
    assert faulted["seed"] != cell["seed"]
    assert faulted["key"] != cell["key"]


def test_workload_fault_combo_cell(tmp_path):
    """Closed-loop combos compose with the fault axis through the runner."""
    combo = Combo(
        PF_SPEC, "min", workload="alltoall:size=8",
        faults="linkflap:count=2,cycle=60,duration=100,seed=2",
    )
    spec = ExperimentSpec(combos=(combo,), loads=(0.0,), root_seed=3)
    result = SweepRunner(cache=None, max_workers=1).run(spec)
    stats = next(iter(result.cells.values()))
    assert stats["finished"]
    assert "dropped_flits" in stats and "fault_events" in stats
