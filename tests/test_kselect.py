"""``kselect``: route selection in C on the simulator's own bit stream.

The numpy ``select_routes`` bodies define each policy's RNG-consumption
protocol; the compiled selector must reproduce them draw for draw.  The
contract checked here, per call: equal lengths, equal routes, and an
equal ``rng.bit_generator.state`` afterwards (which also catches a draw
that happened to leave the values alone) — on topologies *with* ECMP
ties, which PolarFly (the usual equivalence fixture) does not have, and
on loaded simulators, so the UGAL variants really divert.  On an intact
PolarFly or PolarStar the selector routes from coordinates instead of the
tables (:func:`~repro.routing.algebraic.coordinates_apply`): the twins
then compare that mode against the numpy table bodies, prime and
non-prime fields alike — on PolarStar every ordered pair, whose ties the
selector enumerates from the two factors — and for PolarFly a second
oracle, :meth:`PolarFly.minimal_path` (the paper's §IV-D definition), is
checked on every pair.
"""

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.registry import POLICIES, TOPOLOGIES, TRAFFICS
from repro.experiments.runner import SweepRunner, auto_sim_config
from repro.experiments.spec import Combo, ExperimentSpec
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim import _kernel as kmod
from repro.flitsim._kernel import load_kernel, numpy_fallback
from repro.routing.degraded import fault_epoch_tables
from repro.routing.policies import (
    ZERO_CONGESTION,
    MinimalRouting,
    UGALRouting,
    ValiantRouting,
    iter_routes,
)
from repro.routing.tables import RoutingTables, RowPatchedDist, _CandidateTable
from repro.topologies.base import Topology
from repro.utils.env import env_disabled
from repro.utils.graph import Graph
from test_polarstar import INSTANCES as PS_INSTANCES

needs_kernel = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)

PF_SPEC = "polarfly:conc=2,q=7"
#: topology -> tied (src, dst) pairs in its candidate table
TOPOLOGY_TIES = {
    PF_SPEC: 0,
    "polarfly:conc=2,q=9": 0,
    "polarfly:conc=2,q=8": 0,
    "slimfly:conc=2,q=5": 0,
    "dragonfly:a=4,h=2,p=2": 378,
    "dragonfly:a=3,h=6,p=2": 1444,
    "jellyfish:n=57,p=2,r=8,seed=7": 1560,
    "polarstar:conc=2,q=3,sq=5": 1484,
    "polarstar:conc=2,q=4,sq=9": 14932,
}
FIVE = ["min", "valiant", "compact-valiant", "ugal", "ugal-pf"]

_memo: dict = {}


def tables_for(spec):
    if spec not in _memo:
        topo = TOPOLOGIES.create(spec)
        _memo[spec] = (topo, RoutingTables(topo))
    return _memo[spec]


def twins(topo, policy_of, load=0.9, cycles=150, seed=3):
    """(kernel simulator, numpy-fallback simulator), same seed, advanced."""
    sims = []
    for fallback in (False, True):
        policy = policy_of()
        args = (topo, policy, TRAFFICS.create("uniform", topo), load)
        kwargs = dict(config=auto_sim_config(policy), seed=seed)
        if fallback:
            with numpy_fallback():
                sim = FlatSimulator(*args, **kwargs)
        else:
            sim = FlatSimulator(*args, **kwargs)
        for _ in range(cycles):
            sim.step()
        sims.append(sim)
    return sims


def served_by_kernel(sim, routes) -> bool:
    return (
        sim._kselect is not None
        and isinstance(routes, tuple)
        and np.shares_memory(routes[0], sim._kselect._work)
    )


def assert_same_selection(ksim, nsim, srcs, dsts, seed, expect_kernel=True):
    """One batch through both twins; returns the (copied) kernel result."""
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ksim.policy.select_routes(srcs, dsts, r1, congestion=ksim)
    want = nsim.policy.select_routes(srcs, dsts, r2, congestion=nsim)
    assert served_by_kernel(ksim, got) == expect_kernel
    assert not served_by_kernel(nsim, want)
    (gp, gl), (wp, wl) = got, want
    assert np.array_equal(gl, wl)
    width = int(gl.max(initial=0))
    live = np.arange(width) < gl[:, None]
    differ = (gp[:, :width] != wp[:, :width]) & live
    assert not differ.any(), np.flatnonzero(differ.any(axis=1))[:5]
    assert r1.bit_generator.state == r2.bit_generator.state
    return gp.copy(), gl.copy()


def random_batches(n, trials=25, seed=1):
    g = np.random.default_rng(seed)
    for trial in range(trials):
        k = 1 if trial % 5 == 0 else int(g.integers(2, 90))
        srcs, dsts = g.integers(n, size=k), g.integers(n, size=k)
        if k > 1:
            dsts[0] = srcs[0]
        yield trial, srcs, dsts


# ----------------------------------------------------------------------
# (a) the five policies, tie-rich topologies, loaded simulators
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("policy_spec", FIVE)
@pytest.mark.parametrize("topo_spec", list(TOPOLOGY_TIES))
def test_kselect_matches_numpy_body(topo_spec, policy_spec):
    topo, tables = tables_for(topo_spec)
    tied = int((tables._candidate_table().count >= 2).sum())
    assert tied == TOPOLOGY_TIES[topo_spec]
    ksim, nsim = twins(topo, lambda: POLICIES.create(policy_spec, tables))
    assert ksim._kernel is not None and nsim._kernel is None
    # An intact PolarFly or PolarStar selects from coordinates (PolarStar
    # with its supernode layer), everything else from the tables.
    sel = ksim._kselect._sel
    coordinates = sel.pf_vec != ksim._kernel.ffi.NULL
    assert coordinates == topo_spec.startswith(("polarfly", "polarstar"))
    assert sel.sq == (topo.sq if topo_spec.startswith("polarstar") else 0)
    # 150 loaded cycles through select_routes already agree ...
    assert ksim.rng.bit_generator.state == nsim.rng.bit_generator.state
    assert np.array_equal(ksim.backlog, nsim.backlog)
    assert ksim.backlog.any(), "twins must be loaded for UGAL to divert"
    # ... and so does every ad-hoc batch on the loaded state.
    detours = 0
    for trial, srcs, dsts in random_batches(topo.num_routers):
        _, lens = assert_same_selection(ksim, nsim, srcs, dsts, seed=trial)
        detours += int((lens != tables.dist[srcs, dsts] + 1).sum())
    if policy_spec != "min":
        assert detours > 0, "the batches must exercise the detour branch"


@needs_kernel
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_coordinate_mode_routes_every_pair_as_the_paper_does(q):
    """Every ordered pair of ER_q through coordinate-mode ``min``: the
    route :meth:`PolarFly.minimal_path` computes (one dot and one cross
    product, not the tables), the table walk's route, and no draw —
    over prime, prime-power and characteristic-2 fields."""
    topo = TOPOLOGIES.create(f"polarfly:conc=2,q={q}")
    tables = RoutingTables(topo)
    policy = MinimalRouting(tables)
    sim = FlatSimulator(
        topo, policy, TRAFFICS.create("uniform", topo), 0.0,
        config=auto_sim_config(policy), seed=0,
    )
    n = topo.num_routers
    srcs, dsts = np.divmod(np.arange(n * n), n)
    rng = np.random.default_rng(q)
    before = rng.bit_generator.state
    routes = policy.select_routes(srcs, dsts, rng, congestion=sim)
    assert served_by_kernel(sim, routes)
    assert sim._kselect._sel.pf_vec != sim._kernel.ffi.NULL
    assert tables._dist is None and tables._cands is None
    assert rng.bit_generator.state == before
    paths, lens = routes
    want, want_lens = tables.shortest_paths_batch(srcs, dsts, rng)
    assert np.array_equal(lens, want_lens)
    assert np.array_equal(lens - 1, tables.dist[srcs, dsts])
    for i in range(n * n):
        path = paths[i, : lens[i]].tolist()
        assert path == topo.minimal_path(int(srcs[i]), int(dsts[i])), i
        assert path == want[i, : lens[i]].tolist(), i


@needs_kernel
@pytest.mark.parametrize("policy_spec", FIVE)
@pytest.mark.parametrize("q,sq", PS_INSTANCES)
def test_polarstar_factor_mode_routes_every_pair_as_the_tables_do(q, sq, policy_spec):
    """Every ordered pair of PS(q, sq), in one batch on loaded twins:
    the factor-mode selector's paths, lengths and draws equal the numpy
    body's over the built tables, whose ties it reproduces — same
    candidates, same order — without reading them."""
    topo = TOPOLOGIES.create(f"polarstar:conc=2,q={q},sq={sq}")
    tables = RoutingTables(topo)
    ksim, nsim = twins(
        topo, lambda: POLICIES.create(policy_spec, tables), cycles=40
    )
    sel = ksim._kselect._sel
    assert sel.sq == sq and sel.dist == ksim._kernel.ffi.NULL
    assert ksim.backlog.any()
    n = topo.num_routers
    srcs, dsts = np.divmod(np.arange(n * n), n)
    _, lens = assert_same_selection(ksim, nsim, srcs, dsts, seed=q * sq)
    if policy_spec == "min":
        assert np.array_equal(lens - 1, tables.dist[srcs, dsts])


@needs_kernel
def test_ftnca_matches_numpy_body():
    """Mode 5 against the packet-by-packet numpy ``select_routes`` body."""
    topo, tables = tables_for("fattree:k=4,n=3")
    ksim, nsim = twins(topo, lambda: POLICIES.create("ftnca", tables))
    assert ksim.rng.bit_generator.state == nsim.rng.bit_generator.state
    assert np.array_equal(ksim.backlog, nsim.backlog) and ksim.backlog.any()
    edge = topo.switches_per_level
    g = np.random.default_rng(2)
    lens_seen = set()
    for trial in range(25):
        k = 1 if trial % 5 == 0 else int(g.integers(2, 90))
        srcs, dsts = g.integers(edge, size=k), g.integers(edge, size=k)
        dsts[0] = srcs[0]
        paths, lens = assert_same_selection(ksim, nsim, srcs, dsts, seed=trial)
        lens_seen.update(lens.tolist())
        for i in range(k):
            # Up to the NCA level and down again, never past the top.
            level = np.asarray(paths[i, : lens[i]]) // edge
            assert level.tolist() == [*range(lens[i] // 2 + 1), *range(lens[i] // 2)[::-1]]
    assert lens_seen == {1, 3, 5}
    # A switch above level 0 is the Python body's business: declined
    # before any draw, and the two bodies still agree (or fail alike).
    srcs, dsts = np.array([0, edge]), np.array([3, 2])
    r1, r2 = np.random.default_rng(0), np.random.default_rng(0)
    outcomes = []
    for sim, rng in ((ksim, r1), (nsim, r2)):
        try:
            routes = sim.policy.select_routes(srcs, dsts, rng, congestion=sim)
            assert not served_by_kernel(sim, routes)
            outcomes.append([list(map(int, r)) for r in iter_routes(routes)])
        except (ValueError, IndexError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    assert r1.bit_generator.state == r2.bit_generator.state


@needs_kernel
def test_scratch_grows_with_the_batch():
    topo, tables = tables_for("dragonfly:a=4,h=2,p=2")
    ksim, nsim = twins(topo, lambda: POLICIES.create("ugal", tables), cycles=40)
    g = np.random.default_rng(0)
    n = topo.num_routers
    for k in (3, 700, 5):
        srcs, dsts = g.integers(n, size=k), g.integers(n, size=k)
        assert_same_selection(ksim, nsim, srcs, dsts, seed=k)
    sel = ksim._kselect
    assert sel._work.size == sel._cap * (2 * sel._width + 13)
    assert 700 <= sel._cap < 2 * 700


# ----------------------------------------------------------------------
# (b) decline cases take the numpy body
# ----------------------------------------------------------------------
class TweakedUGAL(UGALRouting):
    """A subclass may override any step; it must never reach kselect."""


@needs_kernel
def test_other_views_policies_and_subclasses_decline():
    topo, tables = tables_for("dragonfly:a=4,h=2,p=2")
    srcs = np.array([0, 5, 9, 9])
    dsts = np.array([7, 5, 30, 2])
    policy = UGALRouting(tables)
    traffic = TRAFFICS.create("uniform", topo)
    cfg = auto_sim_config(policy)
    flat = FlatSimulator(topo, policy, traffic, 0.5, config=cfg, seed=1)
    ref = NetworkSimulator(topo, policy, traffic, 0.5, config=cfg, seed=1)
    assert served_by_kernel(
        flat, policy.select_routes(srcs, dsts, np.random.default_rng(0), flat)
    )
    for view in (ref, ZERO_CONGESTION):
        routes = policy.select_routes(srcs, dsts, np.random.default_rng(0), view)
        assert not served_by_kernel(flat, routes)
    # Another policy object than the simulator's own: the sub-policy.
    routes = policy.valiant.select_routes(
        srcs, dsts, np.random.default_rng(0), flat
    )
    assert not served_by_kernel(flat, routes)
    # An empty batch keeps the numpy body's shapes.
    empty = np.empty(0, dtype=np.int64)
    paths, lens = policy.select_routes(empty, empty, np.random.default_rng(0), flat)
    assert paths.shape == (0, 1) and lens.size == 0

    other = TweakedUGAL(tables)
    sim = FlatSimulator(
        topo, other, traffic, 0.5, config=auto_sim_config(other), seed=1
    )
    # The kernel cycles, but selection (sub-policy calls included)
    # stays with the numpy bodies.
    assert sim._kernel is not None and sim._kselect is None
    sim.run(warmup=10, measure=20, drain=10)


@needs_kernel
@pytest.mark.parametrize("policy_spec", ["valiant", "ugal", "ugal-pf"])
def test_retable_rebinds_row_patched_epochs_too(policy_spec):
    topo, base = tables_for(PF_SPEC)
    u = 3
    v = int(topo.graph.neighbors(u)[0])
    dead = 11
    # The tables the fault subsystem builds for a linkflap and for a
    # routerdown epoch: repaired from the base, so the former is a
    # row-patched view of the base matrix; a dead router changes every
    # row (plain matrix), and brings an alive mask.
    flap = fault_epoch_tables(topo, failed_links=[(u, v)], base=base)
    down = fault_epoch_tables(topo, failed_routers=[dead], base=base)
    assert type(flap.dist) is RowPatchedDist and flap.alive_routers is None
    assert 0 < flap.dist.rows.size < topo.num_routers
    assert type(down.dist) is np.ndarray and not down.alive_routers[dead]

    def policy_of():
        # Pre-walk the epochs (as prepare_fault_policy does) so the slot
        # stride covers the degraded worst case.
        policy = POLICIES.create(policy_spec, base)
        for tables in (flap, down, base):
            policy.retable(tables)
        return policy

    ksim, nsim = twins(topo, policy_of, cycles=120)
    alive = np.flatnonzero(down.alive_routers)
    g = np.random.default_rng(5)
    for tables in (flap, base, down, flap, base):
        ksim.policy.retable(tables)
        nsim.policy.retable(tables)
        repaired = 0
        for trial in range(6):
            srcs, dsts = g.choice(alive, size=40), g.choice(alive, size=40)
            paths, lens = assert_same_selection(ksim, nsim, srcs, dsts, seed=trial)
            if tables.alive_routers is not None:
                for i in range(40):
                    assert dead not in paths[i, : lens[i]]
            repaired += int((tables.dist[srcs, dsts] != base.dist[srcs, dsts]).sum())
        # The batches crossed pairs whose distance the failure changed:
        # for flap, entries only the patch block holds.
        assert (repaired > 0) == (tables is not base)


@needs_kernel
def test_tie_scan_follows_fault_epochs():
    """A pick > 0 scans the epoch's graph row against the epoch's
    distances: a row-patched link flap and a dead router on PolarStar,
    whose tied pairs PolarFly does not have."""
    spec = "polarstar:conc=2,q=3,sq=5"
    topo, base = tables_for(spec)
    edges = topo.graph.edges()
    flap = fault_epoch_tables(topo, failed_links=[tuple(edges[3])], base=base)
    down = fault_epoch_tables(topo, failed_routers=[5], base=base)
    assert type(flap.dist) is RowPatchedDist
    assert not down.alive_routers[5]

    def policy_of():
        policy = POLICIES.create("min", base)
        for tables in (flap, down, base):
            policy.retable(tables)
        return policy

    ksim, nsim = twins(topo, policy_of, cycles=60)
    alive = np.flatnonzero(down.alive_routers)
    g = np.random.default_rng(7)
    for tables in (flap, down):
        ksim.policy.retable(tables)
        nsim.policy.retable(tables)
        assert (tables._candidate_table().count >= 2).any()
        for trial in range(6):
            srcs, dsts = g.choice(alive, size=60), g.choice(alive, size=60)
            assert_same_selection(ksim, nsim, srcs, dsts, seed=trial)


# ----------------------------------------------------------------------
# (c) an over-long route is reported, not written
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_cls", [MinimalRouting, UGALRouting])
def test_overlong_route_raises_identically_and_writes_nothing(policy_cls):
    topo, tables = tables_for(PF_SPEC)
    far = np.argwhere(tables.dist == 2)[:5]
    srcs, dsts = far[:, 0].copy(), far[:, 1].copy()

    def policy_of():
        policy = policy_cls(tables)
        policy.max_hops = 1  # understated: the slot stride is 2 routers
        return policy

    messages = []
    for sim in twins(topo, policy_of, load=0.0, cycles=0):
        before = sim.route_buf.copy()
        free = int(sim._pslot_top[0])
        with pytest.raises(ValueError, match="exceeds the policy's declared") as err:
            sim._fill_packet_slots(srcs, dsts)
        messages.append(str(err.value))
        assert np.array_equal(sim.route_buf, before)
        assert int(sim._pslot_top[0]) == free
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Load-time draw self-test
# ----------------------------------------------------------------------
@needs_kernel
def test_draw_self_test_passes_and_is_cheap():
    import time

    module = load_kernel()
    times = []
    for _ in range(3):
        t = time.perf_counter()
        assert kmod._draws_match(module)
        times.append(time.perf_counter() - t)
    assert min(times) < 0.01  # measured: ~0.15 ms; budget is 1 ms of setup


@pytest.mark.parametrize(
    "part,changed",
    [
        ("_COMPILE_ARGS", ("-O3",)),
        ("_COMPILE_ARGS", ("-O2", "-g")),
        # The parts are delimited: text moved across a boundary counts.
        ("_COMPILE_ARGS", ("-O", "2")),
        ("_CDEF", kmod._CDEF + "int64_t kextra(void);"),
        ("_C_SOURCE", kmod._C_SOURCE + "/* */"),
        # No leading underscore: the environment's build variables,
        # which setuptools applies on top.
        ("CC", "clang"),
        ("CFLAGS", "-fsanitize=address,undefined"),
        ("CPPFLAGS", "-DNDEBUG"),
        ("LDFLAGS", "-fsanitize=address"),
    ],
)
def test_kernel_cache_key_covers_source_prototypes_and_flags(
    monkeypatch, part, changed
):
    """The cached build is named by everything it is compiled from, so
    a changed prototype or compiler flag never loads a stale ``.so`` —
    nor a sanitizer build a plain one, or the other way round."""
    name = kmod._module_name()
    module = load_kernel()
    if module is not None:
        assert module.__name__ == name
    if part.startswith("_"):
        monkeypatch.setattr(kmod, part, changed)
    else:
        monkeypatch.setenv(part, changed)
    assert kmod._module_name() != name


@needs_kernel
def test_failed_draw_self_test_declines_every_kselect(monkeypatch, capsys):
    module = load_kernel()
    monkeypatch.setattr(kmod, "_diagnosed", set())
    monkeypatch.setattr(kmod, "_draws_match", lambda module: False)
    assert not kmod._check_draws(module)
    assert "route-selection kernel unavailable" in capsys.readouterr().err
    # load_kernel() records that verdict on the module it returns.
    monkeypatch.setattr(module, "select_ok", False)
    topo, tables = tables_for(PF_SPEC)
    policy = POLICIES.create("ugal", tables)
    sim = FlatSimulator(
        topo, policy, TRAFFICS.create("uniform", topo), 0.5,
        config=auto_sim_config(policy), seed=1,
    )
    assert sim._kernel is not None and sim._kselect is None
    sim.run(warmup=10, measure=20, drain=10)


# ----------------------------------------------------------------------
# Satellites: Valiant's alive-router floor, the shared falsy-env parser
# ----------------------------------------------------------------------
def test_valiant_rejects_fewer_than_three_alive_routers():
    pair = Topology("pair", Graph(2, [(0, 1)]), 1)
    for cls in (ValiantRouting, UGALRouting):
        with pytest.raises(ValueError, match="ValiantRouting needs at least 3"):
            cls(RoutingTables(pair))
    tri = Topology("tri", Graph(3, [(0, 1), (1, 2), (0, 2)]), 1)
    policy = ValiantRouting(RoutingTables(tri))
    with pytest.raises(ValueError, match="at least 3 alive routers.*got 2"):
        policy.retable(fault_epoch_tables(tri, failed_routers=[2]))
    assert policy.tables.alive_routers is None  # the swap never happened


@pytest.mark.parametrize(
    "value,off",
    [
        ("0", True), ("false", True), ("off", True), ("no", True),
        (" FALSE ", True), ("Off", True), ("NO\n", True),
        ("1", False), ("true", False), ("", False), ("yes", False),
    ],
)
def test_falsy_env_words_mean_the_same_for_every_knob(monkeypatch, value, off):
    monkeypatch.setenv("REPRO_FLAT_KERNEL", value)
    assert env_disabled("REPRO_FLAT_KERNEL") == off
    assert kmod.kernel_enabled() == (not off)


def test_unset_env_leaves_both_knobs_on(monkeypatch):
    monkeypatch.delenv("REPRO_FLAT_KERNEL", raising=False)
    assert kmod.kernel_enabled()


@needs_kernel
def test_out_of_range_router_id_raises_before_any_draw():
    topo, tables = tables_for(PF_SPEC)
    ksim, _ = twins(topo, lambda: POLICIES.create("valiant", tables), cycles=0)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    n = topo.num_routers
    for srcs, dsts in (([0, n], [1, 2]), ([0, 1], [2, -1])):
        with pytest.raises(IndexError, match="out of range"):
            ksim.policy.select_routes(np.array(srcs), np.array(dsts), rng, ksim)
    assert rng.bit_generator.state == before


RING = "allreduce:algo=ring,size=64"
FLAP = "linkflap:count=2,cycle=60,duration=100,seed=1"
#: one cell of every stock production shape that selects routes
PRODUCTION_COMBOS = {
    **{p: Combo(PF_SPEC, p, "uniform") for p in FIVE},
    "polarstar-min": Combo("polarstar:conc=2,q=3,sq=5", "min", "uniform"),
    "fattree-ftnca": Combo("fattree:k=4,n=3", "ftnca", "uniform"),
    "allreduce": Combo(PF_SPEC, "min", workload=RING),
    "linkflap": Combo(PF_SPEC, "ugal", "uniform", faults=FLAP),
    "allreduce-linkflap": Combo(PF_SPEC, "min", workload=RING, faults=FLAP),
}


@needs_kernel
@pytest.mark.parametrize("name", sorted(PRODUCTION_COMBOS))
def test_production_cells_never_reach_the_numpy_extractor(monkeypatch, name):
    """Every stock cell selects in C: the numpy bodies are only the oracle.

    A decline to them is bit-identical, only slower, so no equivalence
    test would notice one; counting the table walks they make does —
    the batched extractor, and ``min_next_hops`` for the scalar bodies
    (FT-NCA's numpy path routes packet by packet).
    """
    calls = []
    for method in ("shortest_paths_batch", "min_next_hops"):
        walk = getattr(RoutingTables, method)

        def counted(self, *args, _walk=walk, **kwargs):
            calls.append(_walk.__name__)
            return _walk(self, *args, **kwargs)

        monkeypatch.setattr(RoutingTables, method, counted)
    combo = PRODUCTION_COMBOS[name]
    spec = ExperimentSpec(
        combos=(combo,), loads=(0.0,) if combo.workload else (0.6,),
        warmup=50, measure=100, drain=50, root_seed=3,
    )
    result = SweepRunner(cache=None, max_workers=1).run(spec)
    assert len(result.cells) == 1
    assert calls == []


PS_SPEC = "polarstar:conc=2,q=3,sq=5"
#: intact production cells (on PolarFly the five policies, ring
#: all-reduce and one q=37 cell; on PolarStar the five policies and the
#: PS(9, 17) cell) and the three that run on repaired tables
BUILD_COMBOS = {
    **{name: PRODUCTION_COMBOS[name] for name in (*FIVE, "allreduce")},
    "q37-min": Combo("polarfly:conc=2,q=37", "min", "uniform"),
    **{f"polarstar-{p}": Combo(PS_SPEC, p, "uniform") for p in FIVE},
    "ps9-min": Combo("polarstar:conc=2,q=9,sq=17", "min", "uniform"),
    **{name: PRODUCTION_COMBOS[name] for name in ("linkflap", "allreduce-linkflap")},
    "polarstar-linkflap": Combo(PS_SPEC, "ugal", "uniform", faults=FLAP),
}


@needs_kernel
@pytest.mark.parametrize("name", list(BUILD_COMBOS))
def test_intact_polarfly_cells_build_no_routing_table(monkeypatch, name):
    """An intact ER_q or PolarStar cell routes from coordinates, so it
    never pays the all-sources BFS or the candidate-table build; a fault
    epoch's repaired tables still build both.  Counted per call, on a
    fresh topology memo, so the cell builds whatever it needs itself."""
    builds = []
    apsp = Graph.all_pairs_distances
    derive = _CandidateTable.from_distances.__func__

    def all_pairs_distances(self, sources=None, *args, **kwargs):
        if sources is None:
            builds.append("bfs")
        return apsp(self, sources, *args, **kwargs)

    def from_distances(cls, *args):
        builds.append("candidates")
        return derive(cls, *args)

    monkeypatch.setattr(Graph, "all_pairs_distances", all_pairs_distances)
    monkeypatch.setattr(_CandidateTable, "from_distances", classmethod(from_distances))
    monkeypatch.setattr(runner, "_TOPO_MEMO", {})
    combo = BUILD_COMBOS[name]
    spec = ExperimentSpec(
        combos=(combo,), loads=(0.0,) if combo.workload else (0.6,),
        warmup=50, measure=100, drain=50, root_seed=3,
    )
    result = SweepRunner(cache=None, max_workers=1).run(spec)
    assert len(result.cells) == 1
    if combo.faults:
        assert {"bfs", "candidates"} <= set(builds), builds
    else:
        assert builds == []
