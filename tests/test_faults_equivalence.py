"""The dynamic fault subsystem outside the cycle-path comparison.

Every registered fault timeline runs on all three cycle paths in
``tests/test_differential.py``.  Here: retransmission lets a collective
finish, fault state serves one run, and faulted sweep cells are
cache-stable and identical at any worker count.
"""

import pytest

from repro.experiments import Combo, ExperimentSpec, ResultCache, SweepRunner

from oracles import build

PF_SPEC = "polarfly:conc=2,q=7"
LINKFLAP = "linkflap:count=2,cycle=250,duration=250,seed=1"


def test_retransmission_recovers_lost_collective_packets():
    """An MTBF process that drops tails must retransmit and still finish."""
    sim = build(
        PF_SPEC, "ugal-pf", None, 0.0, seed=3,
        workload="allreduce:algo=ring,size=64",
        faults="mtbf:count=4,mtbf=150,mttr=200,seed=2,start=60",
    )
    res = sim.run_workload(max_cycles=60_000)
    fault = sim.fault_result
    assert fault.dropped_packets > 0, "scenario must actually lose packets"
    assert fault.retransmitted_packets == fault.dropped_packets
    assert res.finished, "retransmission should let the collective complete"
    assert res.completed_messages == res.num_messages


def test_fault_state_is_single_run():
    sim = build(PF_SPEC, "min", "uniform", 0.3, seed=1, faults=LINKFLAP)
    sim.run(warmup=50, measure=50, drain=0)
    with pytest.raises(RuntimeError, match="single-run"):
        sim.run(warmup=50, measure=50, drain=0)


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
