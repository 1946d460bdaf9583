"""Golden equivalence: the flat engine reproduces the reference engine.

The struct-of-arrays engine (numpy path *and* optional C kernel) must
produce bit-identical :class:`~repro.flitsim.engine.SimResult`\\ s to the
readable reference engine for the same seed — same injected/ejected flit
counts and identical latency/hop sample arrays in identical order —
across a grid of cells covering every registered routing policy, the
drain phase, and credit flow.  This is the contract that lets every
benchmark and sweep run on the fast engine while the reference remains
the auditable oracle.
"""

import numpy as np
import pytest

from repro.experiments.registry import POLICIES, TOPOLOGIES, TRAFFICS
from repro.experiments.runner import auto_sim_config
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim._kernel import load_kernel, numpy_fallback
from repro.routing.tables import RoutingTables

# One small topology per family; PolarFly covers the paper's policies,
# the fat tree covers NCA routing.
PF_SPEC = "polarfly:conc=2,q=5"
FT_SPEC = "fattree:k=4,n=2"
# Mid-size PolarFly at low load: most (router, out) rows hold no flits,
# the rows the C kernel's decide loop skips.
SPARSE_SPEC = "polarfly:conc=2,q=13"

#: (topology, policy, traffic, load) — ≥ 8 cells, all 6 registered
#: policies, loads from light to saturating.
CELLS = [
    (PF_SPEC, "min", "uniform", 0.3),
    (PF_SPEC, "min", "tornado", 1.0),
    (PF_SPEC, "valiant", "uniform", 0.4),
    (PF_SPEC, "compact-valiant", "tornado", 0.5),
    (PF_SPEC, "ugal", "uniform", 0.6),
    (PF_SPEC, "ugal-pf", "tornado", 0.7),
    (PF_SPEC, "ugal-pf", "perm1hop:seed=1", 0.8),
    (PF_SPEC, "ugal-pf", "hotspot:fraction=0.3", 0.4),
    (FT_SPEC, "ftnca", "uniform", 0.5),
]

_topo_cache: dict = {}


def _objects(topo_spec, policy_spec, traffic_spec):
    memo = _topo_cache.get(topo_spec)
    if memo is None:
        topo = TOPOLOGIES.create(topo_spec)
        memo = _topo_cache[topo_spec] = (topo, RoutingTables(topo))
    topo, tables = memo
    return topo, POLICIES.create(policy_spec, tables), TRAFFICS.create(
        traffic_spec, topo
    )


def _run(cls, topo, policy, traffic, load, seed, drain=80, warmup=60, measure=150):
    cfg = auto_sim_config(policy)
    sim = cls(topo, policy, traffic, load, config=cfg, seed=seed)
    res = sim.run(warmup=warmup, measure=measure, drain=drain)
    return res, sim


def assert_identical(a, b):
    assert a.injected_flits == b.injected_flits
    assert a.ejected_flits == b.ejected_flits
    assert a.cycles == b.cycles
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.hop_counts, b.hop_counts)


@pytest.mark.parametrize(
    "topo_spec,policy_spec,traffic_spec,load",
    CELLS,
    ids=[f"{p}-{t.split(':')[0]}-{ld}" for _, p, t, ld in CELLS],
)
def test_flat_matches_reference(topo_spec, policy_spec, traffic_spec, load):
    topo, policy, traffic = _objects(topo_spec, policy_spec, traffic_spec)
    ref, _ = _run(NetworkSimulator, topo, policy, traffic, load, seed=7)
    flat, _ = _run(FlatSimulator, topo, policy, traffic, load, seed=7)
    assert_identical(ref, flat)


def test_covers_every_registered_policy():
    tested = {p for _, p, _, _ in CELLS}
    assert tested == set(POLICIES.names()), (
        "equivalence grid must cover every registered policy"
    )


def test_flat_matches_reference_without_drain():
    # drain=0: in-flight measured packets never complete — the partial
    # sample arrays must still agree element for element.
    topo, policy, traffic = _objects(PF_SPEC, "ugal-pf", "uniform")
    ref, _ = _run(NetworkSimulator, topo, policy, traffic, 0.6, seed=3, drain=0)
    flat, _ = _run(FlatSimulator, topo, policy, traffic, 0.6, seed=3, drain=0)
    assert_identical(ref, flat)


def test_numpy_path_matches_reference(monkeypatch):
    # Force the pure-numpy flat path even where the C kernel compiled.
    monkeypatch.setenv("REPRO_FLAT_KERNEL", "0")
    import repro.flitsim._kernel as kmod

    monkeypatch.setattr(kmod, "_cached", False)
    monkeypatch.setattr(kmod, "_module", None)
    topo, policy, traffic = _objects(PF_SPEC, "ugal-pf", "tornado")
    ref, _ = _run(NetworkSimulator, topo, policy, traffic, 0.7, seed=11)
    flat, fsim = _run(FlatSimulator, topo, policy, traffic, 0.7, seed=11)
    assert fsim._kernel is None
    assert_identical(ref, flat)


@pytest.mark.skipif(load_kernel() is None, reason="C kernel unavailable")
def test_kernel_path_matches_numpy_path(monkeypatch):
    # The two flat implementations must agree with each other too.
    topo, policy, traffic = _objects(PF_SPEC, "ugal", "uniform")
    kern, ksim = _run(FlatSimulator, topo, policy, traffic, 0.6, seed=5)
    assert ksim._kernel is not None

    monkeypatch.setenv("REPRO_FLAT_KERNEL", "0")
    import repro.flitsim._kernel as kmod

    monkeypatch.setattr(kmod, "_cached", False)
    monkeypatch.setattr(kmod, "_module", None)
    plain, psim = _run(FlatSimulator, topo, policy, traffic, 0.6, seed=5)
    assert psim._kernel is None
    assert_identical(kern, plain)


@pytest.mark.parametrize("policy_spec", ["min", "ugal-pf"])
def test_sparse_regime_three_paths_agree(policy_spec):
    topo, policy, traffic = _objects(SPARSE_SPEC, policy_spec, "uniform")
    windows = dict(warmup=30, measure=120, drain=0)
    ref, _ = _run(NetworkSimulator, topo, policy, traffic, 0.05, seed=13, **windows)
    with numpy_fallback():
        plain, psim = _run(
            FlatSimulator, topo, policy, traffic, 0.05, seed=13, **windows
        )
    assert psim._kernel is None
    assert_identical(ref, plain)
    # drain=0 leaves the run's last cycle in place: the cell must sit in
    # the regime it is named for.
    assert 0 < np.count_nonzero(psim.backlog) < 0.1 * psim.backlog.size
    if load_kernel() is None:
        pytest.skip("C kernel unavailable (reference vs numpy checked)")
    kern, ksim = _run(FlatSimulator, topo, policy, traffic, 0.05, seed=13, **windows)
    assert ksim._kernel is not None
    assert_identical(ref, kern)
    assert np.array_equal(ksim.backlog, psim.backlog)


@pytest.mark.parametrize(
    "topo_spec,policy_spec,load",
    [
        # No ECMP ties but heavy UGAL diversion / 378 tied pairs under
        # Valiant's two walks: the compiled selector (kselect) against
        # the numpy bodies the other two paths run.
        ("slimfly:conc=2,q=5", "ugal", 0.8),
        ("dragonfly:a=4,h=2,p=2", "valiant", 0.4),
    ],
)
def test_compiled_selection_three_paths_agree(topo_spec, policy_spec, load):
    topo, policy, traffic = _objects(topo_spec, policy_spec, "uniform")
    ref, _ = _run(NetworkSimulator, topo, policy, traffic, load, seed=17)
    with numpy_fallback():
        plain, psim = _run(FlatSimulator, topo, policy, traffic, load, seed=17)
    assert psim._kernel is None and psim._kselect is None
    assert_identical(ref, plain)
    if load_kernel() is None:
        pytest.skip("C kernel unavailable (reference vs numpy checked)")
    kern, ksim = _run(FlatSimulator, topo, policy, traffic, load, seed=17)
    assert ksim._kselect is not None
    assert_identical(ref, kern)
    assert ksim.rng.bit_generator.state == psim.rng.bit_generator.state


def test_congestion_views_agree_under_load():
    # The O(1) occupancy counters must report the same backlog in both
    # engines at every step of a congested run.
    topo, policy, traffic = _objects(PF_SPEC, "min", "tornado")
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
