"""The closed-loop path outside the cycle-path comparison.

Every registered workload runs on all three cycle paths in
``tests/test_differential.py``.  Here: a run's lifecycle, seed
determinism, partial progress at ``max_cycles``, and workload sweeps
deterministic across worker counts and cache round trips.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    ExperimentSpec,
    POLICIES,
    ResultCache,
    SweepRunner,
    WORKLOADS,
)
from repro.experiments.runner import auto_sim_config, simulate_point
from repro.flitsim import FlatSimulator, NetworkSimulator

from oracles import assert_same_result

PF_SPEC = "polarfly:conc=2,q=7"


@pytest.mark.parametrize("engine", [NetworkSimulator, FlatSimulator])
def test_second_run_workload_says_the_result_is_out(pf, tables, engine):
    policy = POLICIES.create("min", tables)
    wl = WORKLOADS.create("alltoall:size=8", pf)
    sim = engine(
        pf, policy, None, 0.0, config=auto_sim_config(policy), seed=7, workload=wl
    )
    first = sim.run_workload()
    with pytest.raises(RuntimeError, match="already produced its result"):
        sim.run_workload()
    assert sim.workload_result is first and sim.now == first.cycles


def test_same_seed_is_deterministic(pf, tables):
    policy = POLICIES.create("ugal-pf", tables)
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    a = simulate_point(pf, policy, workload=wl, seed=3)
    b = simulate_point(pf, policy, workload=wl, seed=3)
    assert_same_result(a, b)
    c = simulate_point(pf, policy, workload=wl, seed=4)
    assert c.cycles != a.cycles or not np.array_equal(
        c.packet_latencies, a.packet_latencies
    )


def test_packet_latency_stats_read_the_packet_samples(pf, tables):
    """The per-packet latency the bench reports for a closed-loop cell."""
    policy = POLICIES.create("min", tables)
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    res = simulate_point(pf, policy, workload=wl, seed=3)
    lat = res.packet_latencies
    assert len(lat) > 0
    assert res.avg_packet_latency == np.mean(lat)
    assert res.packet_latency_percentile(50) == np.median(lat)
    assert res.packet_latency_percentile(100) == lat.max()
    none = dataclasses.replace(res, packet_latencies=lat[:0])
    assert np.isnan(none.avg_packet_latency)
    assert np.isnan(none.packet_latency_percentile(99))


def test_unfinished_run_reports_partial_progress(pf, tables):
    policy = POLICIES.create("min", tables)
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    res = simulate_point(pf, policy, workload=wl, max_cycles=60)
    assert not res.finished
    assert res.completion_time == -1
    assert res.cycles == 60
    assert 0 < res.completed_messages < res.num_messages


def test_run_and_run_workload_are_mutually_exclusive(pf, tables):
    policy = POLICIES.create("min", tables)
    wl = WORKLOADS.create("alltoall:size=8", pf)
    sim = FlatSimulator(pf, policy, None, 0.0, workload=wl,
                        config=auto_sim_config(policy))
    with pytest.raises(RuntimeError, match="run_workload"):
        sim.run()
    from repro.experiments import TRAFFICS
    from repro.flitsim.engine import make_simulator

    open_sim = make_simulator(
        pf, policy, TRAFFICS.create("uniform", pf), 0.3,
        config=auto_sim_config(policy),
    )
    with pytest.raises(RuntimeError, match="workload"):
        open_sim.run_workload()


def test_sweep_workers_and_cache_round_trip(tmp_path):
    spec = ExperimentSpec.workload_grid(
        [PF_SPEC], ["min", "ugal-pf"],
        ["allreduce:algo=ring,size=64", "halo:iters=2,size=16"],
        root_seed=9, max_cycles=100_000,
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
        assert stats["finished"]
        assert stats["completion_cycles"] > 0
        assert stats["completed_messages"] == stats["num_messages"]


def test_open_loop_cells_unaffected_by_workload_axis():
    """Open-loop cell records carry no workload fields (hash stability)."""
    spec = ExperimentSpec.grid(
        ["polarfly:conc=2,q=5"], ["min"], ["uniform"], loads=(0.2,)
    )
    cell = spec.cells()[0]
    assert "workload" not in cell
    assert "max_cycles" not in cell
