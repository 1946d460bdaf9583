"""The kernel boundary: every C struct field bound, and grows stay local.

``bind_struct`` takes each field's C type from the struct declaration,
so a field added to a struct but missing from its binder's mapping
would stay NULL — and C would follow it.  The table below names, per
struct and mode, the pointer fields that must stay NULL; every other
pointer field of ``ffi.typeof(struct).fields`` must be bound.  The grow
test pins the other half of the contract: a pool grow re-points its own
pool's fields and nothing else, so the link counters bound for a span
survive a ``SPAN_GROW`` return mid-window.
"""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest

from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import FlatSimulator, NetworkSimulator, flatcore
from repro.flitsim import _kernel as kmod
from repro.flitsim._kernel import load_kernel
from repro.routing.tables import RoutingTables, RowPatchedDist

pytestmark = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)

PF = "polarfly:conc=2,q=7"
PS = "polarstar:conc=2,q=3,sq=5"
#: a table-routed family (an intact PolarFly routes from coordinates)
SF = "slimfly:conc=2,q=5"
LINKFLAP = "linkflap:count=2,cycle=5,duration=200,seed=1"
ALLREDUCE = "allreduce:algo=ring,size=64"

_tables: dict = {}


def build(
    traffic_spec="uniform", load=0.5, workload=None, faults=None,
    engine=FlatSimulator, topo_spec=PF, tables=None,
):
    """A ``min``-routed simulator on ``tables``, by default the shared
    tables of ``topo_spec`` (PolarFly q=7); specs as strings."""
    if tables is None:
        if topo_spec not in _tables:
            _tables[topo_spec] = RoutingTables(TOPOLOGIES.create(topo_spec))
        tables = _tables[topo_spec]
    topo = tables.topo
    policy = POLICIES.create("min", tables)
    if workload is not None:
        workload = WORKLOADS.create(workload, topo)
    if faults is not None:
        faults = FAULTS.create(faults, topo)
        prepare_fault_policy(policy, faults, topo)
    traffic = TRAFFICS.create(traffic_spec, topo) if traffic_spec else None
    return engine(
        topo, policy, traffic, load, config=auto_sim_config(policy), seed=4,
        workload=workload, faults=faults,
    )


def advanced(sim, cycles=10):
    """``sim`` after ``cycles`` cycles as spans, outside the measure window."""
    if sim._fault is not None:
        sim._fault.begin_run(sim.policy)
    sim._run_to(cycles)  # fault epochs are deadlines, as in run()
    assert sim.span_cycles == sim.now == cycles
    return sim


def sim_state(**kw):
    return advanced(build(**kw))._st


def selector(topo_spec=PF):
    sim = advanced(build(topo_spec=topo_spec))
    assert sim._kselect.bind(sim, sim.rng, 1)
    return sim._kselect._sel


def int32_next_hop_selector():
    """Tables in the layout a network past 32 767 routers gets off ER_q
    (int32 ``first``): the selector declines, binds no table, and says
    so on one stderr line."""
    tables = RoutingTables(TOPOLOGIES.create(SF))
    cands = tables._candidate_table()
    cands.first = cands.first.astype(np.int32)
    sim = build(tables=tables)
    err = io.StringIO()
    with mock.patch.object(kmod, "_diagnosed", set()), contextlib.redirect_stderr(err):
        assert not sim._kselect.bind(sim, sim.rng, 1)
    assert "C route-selection kernel unavailable" in err.getvalue()
    assert "int16 distances and int32 next hops" in err.getvalue()
    assert err.getvalue().count("\n") == 1
    return sim._kselect._sel


def injector(**kw):
    sim = build(**kw)
    assert sim._kspan.bind(sim, 1)
    return sim._kspan._inj


def telemetry_state():
    """Attached counters stay bound whether or not a window is open."""
    sim = build()
    sim.attach_link_telemetry()
    return advanced(sim)._st


def row_patched_selector():
    sim = advanced(build(faults=LINKFLAP))
    assert type(sim.policy.tables.dist) is RowPatchedDist
    assert sim._kselect.bind(sim, sim.rng, 1)
    return sim._kselect._sel


def router_down_injector():
    """The injector of the last span, run with a router dead."""
    sim = advanced(build(faults="routerdown:count=1,cycle=5,duration=200,seed=3"))
    assert sim._fault.any_dead_router
    return sim._kspan._inj


def workload():
    sim = build(traffic_spec=None, load=0.0, workload=ALLREDUCE)
    assert sim._kspan.bind(sim, 1)
    return sim._kspan._wl


FAULT_FIELDS = {"dead_row", "pkt_live", "pkt_damaged", "drop_tail_pids", "fcnt"}
LINK_FIELDS = {"link_flits"}
#: Selector's table mode and its coordinate mode (an intact PolarFly;
#: an intact PolarStar binds the supernode layer too)
TABLE_FIELDS = {"dist", "patch", "patch_row", "first", "count"}
STAR_FIELDS = {"ps_adj", "ps_up", "ps_down", "er_indptr", "er_indices", "ps_hops"}
COORD_FIELDS = {"pf_vec", "gf_add", "gf_sub", "gf_mul", "gf_inv"} | STAR_FIELDS

#: (struct, mode, the bound pointer, the pointer fields that stay NULL)
BINDINGS = [
    ("SimState", "open loop", sim_state, FAULT_FIELDS | LINK_FIELDS),
    (
        "SimState", "closed loop",
        lambda: sim_state(traffic_spec=None, load=0.0, workload=ALLREDUCE),
        FAULT_FIELDS | LINK_FIELDS,
    ),
    ("SimState", "faulted", lambda: sim_state(faults=LINKFLAP), LINK_FIELDS),
    (
        "SimState", "link telemetry", telemetry_state,
        FAULT_FIELDS,
    ),
    (
        "Selector", "plain tables", lambda: selector(SF),
        {"patch", "patch_row", "alive"} | COORD_FIELDS,
    ),
    ("Selector", "coordinates", selector, TABLE_FIELDS | STAR_FIELDS | {"alive"}),
    ("Selector", "polarstar", lambda: selector(PS), TABLE_FIELDS | {"alive"}),
    ("Selector", "RowPatchedDist", row_patched_selector, {"alive"} | COORD_FIELDS),
    (
        "Selector", "int32 next hops, declined loudly", int32_next_hop_selector,
        TABLE_FIELDS | COORD_FIELDS | {"g_indptr", "g_indices", "alive"},
    ),
    ("Injector", "uniform", injector, {"ep_alive", "router_alive"}),
    (
        "Injector", "permutation", lambda: injector(traffic_spec="tornado"),
        {"ep_alive", "router_alive"},
    ),
    ("Injector", "a router down", router_down_injector, set()),
    ("Workload", "allreduce", workload, set()),
]


@pytest.mark.parametrize(
    "struct,bound,nulls",
    [pytest.param(s, b, n, id=f"{s}-{m}") for s, m, b, n in BINDINGS],
)
def test_every_pointer_field_is_bound_unless_its_mode_leaves_it_null(
    struct, bound, nulls
):
    ffi = load_kernel().ffi
    ptr = bound()
    assert ffi.typeof(ptr).item is ffi.typeof(struct)
    pointers = [
        name for name, field in ffi.typeof(struct).fields
        if field.type.kind == "pointer"
    ]
    assert nulls <= set(pointers)
    for name in pointers:
        assert (getattr(ptr, name) == ffi.NULL) == (name in nulls), name


def test_the_table_has_a_row_for_every_struct_with_pointers():
    """bitgen_t aside: numpy's own struct, cast from the generator."""
    ffi = load_kernel().ffi
    with_pointers = {
        name for name in ffi.list_types()[0]
        if ffi.typeof(name).kind == "struct" and any(
            field.type.kind == "pointer" for _, field in ffi.typeof(name).fields
        )
    }
    assert {struct for struct, *_ in BINDINGS} == with_pointers - {"bitgen_t"}


#: the SimState fields each grow replaces — everything else must keep
#: its address, the link counters and the fault mode's pointers included
OWN_FIELDS = {
    "_grow_pool": {"pool", "free_stack"},
    "_grow_pkt_pool": {
        "pkt_t_created", "pkt_len", "pkt_dst", "pkt_msg", "pkt_measured",
        "route_buf", "route_port", "pkt_live", "pkt_damaged", "pkt_free",
    },
}


def test_a_grow_re_points_only_its_own_pool(monkeypatch):
    """Link telemetry on a faulted cell, pools grown mid-window.

    Tiny first pools make the saturated run come back from ``kcycles``
    for room again and again, with the measure window open; each grow
    may move its own pool's arrays and no other field of ``SimState``.
    """
    monkeypatch.setattr(flatcore, "_POOL_CAP", 64)
    monkeypatch.setattr(flatcore, "_PKT_CAP", 16)
    faults = "linkflap:count=4,cycle=60,duration=100,seed=1"
    args = dict(traffic_spec="uniform", load=1.0, faults=faults)
    sim, ref = build(**args), build(**args, engine=NetworkSimulator)
    for s in (sim, ref):
        s.attach_link_telemetry()
    ffi = sim._kernel.ffi
    pointers = [
        name for name, field in ffi.typeof("SimState").fields
        if field.type.kind == "pointer"
    ]

    def addresses():
        return {
            name: int(ffi.cast("uintptr_t", getattr(sim._st, name)))
            for name in pointers
        }

    grows = []
    for method in OWN_FIELDS:
        def watched(min_extra, grow=getattr(sim, method), method=method):
            before = addresses()
            grow(min_extra)
            after = addresses()
            moved = {name for name in pointers if before[name] != after[name]}
            grows.append((method, sim._measuring, moved, after))

        setattr(sim, method, watched)
    windows = (20, 200, 40)
    got, want = sim.run(*windows), ref.run(*windows)
    assert sim.span_cycles == sim.now == sum(windows)
    assert {method for method, measuring, *_ in grows if measuring} == set(
        OWN_FIELDS
    ), [(method, measuring) for method, measuring, *_ in grows]
    for method, measuring, moved, after in grows:
        assert moved == OWN_FIELDS[method], method
        assert all(after[name] for name in FAULT_FIELDS | LINK_FIELDS), method
    assert got.injected_flits == want.injected_flits
    assert got.ejected_flits == want.ejected_flits
    assert np.array_equal(got.latencies, want.latencies)
    assert np.array_equal(got.hop_counts, want.hop_counts)
    assert sim._fault.dropped_flits == ref._fault.dropped_flits > 0
    np.testing.assert_array_equal(sim.link_flits(), ref.link_flits())
