"""Golden equivalence for the closed-loop path.

The workload engine's acceptance contract: for the same seed, the flat
engine — on **both** cycle paths, pure numpy and the C kernel (when a
compiler is present) — and the reference (dict-of-deques) engine return
**bit-identical** :class:`~repro.workloads.WorkloadResult`\\ s on
PolarFly q=7 across *every* registered workload generator (trace replay
included), and workload sweeps are deterministic across worker counts
and cache round trips.
"""

import numpy as np
import pytest

from repro.experiments import (
    Combo,
    ExperimentSpec,
    POLICIES,
    ResultCache,
    SweepRunner,
    WORKLOADS,
)
from repro.experiments.runner import auto_sim_config, simulate_workload
from repro.flitsim import FlatSimulator, NetworkSimulator

PF_SPEC = "polarfly:conc=2,q=7"


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory, pf):
    """A small diamond-DAG trace on terminal routers."""
    t = np.flatnonzero(pf.concentration > 0)
    path = tmp_path_factory.mktemp("traces") / "diamond.jsonl"
    lines = [
        f'{{"id": 0, "src": {t[0]}, "dst": {t[5]}, "size": 12}}',
        f'{{"id": 1, "src": {t[5]}, "dst": {t[9]}, "size": 6, "deps": [0]}}',
        f'{{"id": 2, "src": {t[5]}, "dst": {t[11]}, "size": 6, "deps": [0]}}',
        f'{{"id": 3, "src": {t[9]}, "dst": {t[0]}, "size": 4, "deps": [1, 2]}}',
    ]
    path.write_text("\n".join(lines))
    return str(path)


def workload_specs(trace_path):
    """Every registered workload as a (spec, extra-kwargs) pair."""
    return [
        ("allreduce:algo=ring,size=64", {}),
        ("allreduce:algo=rd,size=16", {}),
        ("alltoall:size=8", {}),
        ("halo:iters=2,size=16", {}),
        ("incast:reply=true,size=32", {}),
        ("trace", {"path": trace_path}),
    ]


def assert_identical(a, b):
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


def test_specs_cover_every_registered_workload(trace_path):
    tested = {s.split(":")[0] for s, _ in workload_specs(trace_path)}
    assert tested == set(WORKLOADS.names()), (
        "equivalence grid must cover every registered workload"
    )


@pytest.mark.parametrize("policy_spec", ["min", "ugal-pf"])
def test_flat_matches_reference_all_workloads(
    pf, tables, flat_variants, trace_path, policy_spec
):
    policy = POLICIES.create(policy_spec, tables)
    cfg = auto_sim_config(policy)
    for wspec, kwargs in workload_specs(trace_path):
        wl = WORKLOADS.create(wspec, pf, **kwargs)
        ref = NetworkSimulator(
            pf, policy, None, 0.0, config=cfg, seed=7, workload=wl
        ).run_workload(max_cycles=100_000)
        assert ref.finished, wspec
        for label, ctx, expect_kernel in flat_variants:
            with ctx():
                sim = FlatSimulator(
                    pf, policy, None, 0.0, config=cfg, seed=7, workload=wl
                )
            assert (sim._kernel is not None) == expect_kernel, (
                f"{label} must {'use' if expect_kernel else 'skip'} the C kernel"
            )
            assert_identical(ref, sim.run_workload(max_cycles=100_000))


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
    a = simulate_workload(pf, policy, wl, seed=3)
    b = simulate_workload(pf, policy, wl, seed=3)
    assert_identical(a, b)
    c = simulate_workload(pf, policy, wl, seed=4)
    assert c.cycles != a.cycles or not np.array_equal(
        c.packet_latencies, a.packet_latencies
    )


def test_unfinished_run_reports_partial_progress(pf, tables):
    policy = POLICIES.create("min", tables)
    wl = WORKLOADS.create("allreduce:algo=ring,size=64", pf)
    res = simulate_workload(pf, policy, wl, max_cycles=60)
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
