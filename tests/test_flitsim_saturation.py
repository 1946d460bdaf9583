"""Saturation and backpressure edge cases, engine-equivalent.

The nastiest corners of credit flow: full offered load with single-flit
VC buffers (every queue constantly backpressured), no-drain
measurement windows, and a degraded fabric with a concentration-0
router mixed in.  Both engines must agree bit-for-bit, and a fully
drained network must return every credit it borrowed.
"""

import contextlib

import numpy as np
import pytest

from repro.core import PolarFly
from repro.experiments import FAULTS, POLICIES, TOPOLOGIES, TRAFFICS, WORKLOADS
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    SimConfig,
    UniformTraffic,
    flatcore,
)
from repro.flitsim._kernel import load_kernel, numpy_fallback
from repro.routing import (
    MinimalRouting,
    RoutingTables,
    UGALPFRouting,
    degraded_topology,
)
from repro.topologies.base import Topology

from oracles import walk_voqs


def drain_to_quiescence(sim, max_cycles=6000):
    """Step at zero load until nothing is left in flight."""
    saved, sim.load = sim.load, 0.0
    for _ in range(max_cycles):
        if isinstance(sim, FlatSimulator):
            if sim.live_flits() == 0:
                break
        else:
            if not any(sim.voq[r] for r in range(sim.topo.num_routers)) and not any(
                q for r in range(sim.topo.num_routers) for q in sim.src_q[r]
            ):
                break
        sim.step()
    sim.load = saved


def assert_identical(a, b):
    assert a.injected_flits == b.injected_flits
    assert a.ejected_flits == b.ejected_flits
    assert np.array_equal(a.latencies, b.latencies)
    assert np.array_equal(a.hop_counts, b.hop_counts)


@pytest.fixture(scope="module")
def pf():
    return PolarFly(5, concentration=2)


@pytest.fixture(scope="module")
def tables(pf):
    return RoutingTables(pf)


class TestSaturationBackpressure:
    def test_full_load_single_flit_vcs_engines_agree(self, pf, tables):
        # load=1.0 with vc_depth=1: every buffer is one flit deep, so
        # almost every grant is credit-blocked — the stress case for
        # the synchronous credit protocol.  drain=0 on top.
        cfg = SimConfig(vc_depth=1)
        policy = MinimalRouting(tables)
        runs = []
        for cls in (NetworkSimulator, FlatSimulator):
            sim = cls(pf, policy, UniformTraffic(pf), 1.0, config=cfg, seed=9)
            runs.append(sim.run(warmup=50, measure=200, drain=0))
        assert_identical(*runs)
        # Saturated: offered 1.0 can't be accepted with 1-deep VCs.
        assert runs[0].accepted_load < 1.0

    def test_no_credit_leaks_after_drain(self, pf, tables):
        cfg = SimConfig(vc_depth=1)
        policy = MinimalRouting(tables)
        ref = NetworkSimulator(pf, policy, UniformTraffic(pf), 1.0, config=cfg, seed=9)
        flat = FlatSimulator(pf, policy, UniformTraffic(pf), 1.0, config=cfg, seed=9)
        for sim in (ref, flat):
            for _ in range(250):
                sim.step()
            drain_to_quiescence(sim)

        # Reference: every (port, vc) credit and injection credit back
        # to capacity.
        for r in range(pf.num_routers):
            for port_credits in ref.credits[r]:
                assert all(c == cfg.vc_depth for c in port_credits)
            assert all(c == cfg.vc_depth for c in ref.inj_credit[r])

        # Flat: identical invariant on the dense arrays; the packet
        # slot pool must also be fully recycled (memory stays
        # O(in-flight), not O(packets ever injected)).
        assert flat.live_flits() == 0
        fab = flat.fab
        valid = np.arange(max(fab.D, 1))[None, :] < fab.deg[:, None]
        assert (flat.credits[valid] == cfg.vc_depth).all()
        assert (flat.ep_credit == cfg.vc_depth).all()
        assert (flat.backlog == 0).all()
        assert not flat._voq.any()
        assert int(flat._pslot_top[0]) == flat.pkt_cap
        assert flat.packets_injected > flat.pkt_cap // 2  # slots reused

    def test_degraded_topology_with_dark_router(self, pf):
        # Remove a link, zero one router's concentration: a transit-only
        # router inside a degraded fabric.  Both engines must agree and
        # route around/through it.
        u = 0
        v = int(pf.graph.neighbors(u)[0])
        deg = degraded_topology(pf, [(u, v)])
        conc = deg.concentration.copy()
        dark = int(v)
        conc[dark] = 0
        mixed = Topology("pf5-deg-dark", deg.graph, conc)
        tables = RoutingTables(mixed)
        policy = UGALPFRouting(tables)
        cfg = SimConfig(num_vcs=max(4, policy.max_hops - 1), vc_depth=2)
        runs = []
        for cls in (NetworkSimulator, FlatSimulator):
            sim = cls(
                mixed, policy, UniformTraffic(mixed), 0.8, config=cfg, seed=4
            )
            runs.append(sim.run(warmup=60, measure=200, drain=150))
        assert_identical(*runs)
        # Traffic flowed despite the dark router and the missing link.
        assert runs[0].ejected_flits > 0

    def test_dark_router_receives_no_packets(self, pf):
        # The concentration-0 router is never a destination; it may only
        # ever carry transit flits.
        conc = pf.concentration.copy()
        conc[3] = 0
        mixed = Topology("pf5-dark3", pf.graph, conc)
        tables = RoutingTables(mixed)
        sim = FlatSimulator(
            mixed, MinimalRouting(tables), UniformTraffic(mixed), 0.5, seed=2
        )
        sim.run(warmup=0, measure=300, drain=400)
        # All packets' destinations avoid the dark router: every
        # packet-slot row ever written holds a real destination != 3
        # (unused slots keep the -1 sentinel).
        assert sim.packets_injected > 0
        assert not (sim.pkt_dst == 3).any()


def assert_backlog_is_voq_row_sum(sim):
    """The per-cycle invariants: ``backlog`` is the row sum of the VOQ
    lengths, an empty VOQ has a zero record, a non-empty one's circular
    chain comes back round to its tail, and each queue's head sits at
    the coordinates its record's index names; on the kernel path the
    occupancy masks and route ports hold too."""
    fab = sim.fab
    lengths, last = walk_voqs(sim)
    assert (sim.backlog >= 0).all()
    assert np.array_equal(
        sim.backlog.reshape(fab.n, fab.O),
        lengths.reshape(fab.n, fab.O, fab.I).sum(axis=2),
    )
    empty = lengths == 0
    assert not sim._voq[empty].any()
    assert np.array_equal(sim._voq[~empty] - 1, last[~empty])
    assert_voq_heads_match_their_index(sim)
    if sim._kspan is not None:
        assert_row_mask_is_voq_occupancy(sim, lengths)
        assert_route_ports_follow_routes(sim)


def assert_voq_heads_match_their_index(sim):
    """Record ``(r * O + out) * I + in`` queues flits at router ``r`` that
    came in on input ``in`` and leave on output ``out``.

    Checked on every queue's head, from its packet's route: the head's
    hop names router ``r``; a link input is the port toward the previous
    router, an injection input (hop 0) is past the link ports; the output
    ejects where the route does and is otherwise the port toward the
    next router.
    """
    fab, stride = sim.fab, sim.route_stride
    vq = np.flatnonzero(sim._voq)
    heads = sim.pool_next[sim._voq[vq] - 1]
    row, ins = np.divmod(vq, fab.I)
    r, out = np.divmod(row, fab.O)
    pid = sim.pool_pid[heads].astype(np.int64)
    hop = sim.pool_hop[heads].astype(np.int64)
    base = pid * stride
    assert np.array_equal(sim.route_buf[base + hop], r)
    link = hop > 0
    assert np.array_equal(ins < fab.deg[r], link)
    assert np.array_equal(
        fab.nbr_mat[r[link], ins[link]], sim.route_buf[base[link] + hop[link] - 1]
    )
    length = sim.pkt_len[pid]
    eject = np.where(link, r == sim.pkt_dst[pid], length == 1)
    assert np.array_equal(out == fab.OE, eject)
    ahead = sim.route_buf[base[~eject] + hop[~eject] + 1]
    assert np.array_equal(out[~eject], fab.ports_toward(r[~eject], ahead))


def test_voq_records_are_four_bytes_row_major(pf, tables, flat_path):
    """One int32 record per VOQ; row ``r * O + out`` owns ``[row * I, row * I + I)``."""
    with flat_path():
        sim = FlatSimulator(pf, MinimalRouting(tables), UniformTraffic(pf), 0.5, seed=1)
    fab = sim.fab
    assert sim._voq.dtype == np.int32 and sim._voq.shape == (fab.NV,)
    assert sim._voq.nbytes == 4 * fab.NV == 4 * fab.n * fab.O * fab.I
    for _ in range(30):
        sim.step()
    lengths, _ = walk_voqs(sim)
    assert sim.backlog.any()
    # Row ``row``'s I records, summed, are that row's backlog.
    assert np.array_equal(lengths.reshape(-1, fab.I).sum(axis=1), sim.backlog)
    assert_voq_heads_match_their_index(sim)


def assert_route_ports_follow_routes(sim):
    """Every live packet's ``route_port`` row is its route's output ports.

    Recomputed from the route row with ``fab.ports_toward``: hop 0 ejects
    only on a one-router route, a later hop at the first router that is
    the route's destination, and every other hop leaves toward the next
    router.  Returns how many live hops eject before the route's end (a
    Valiant leg passing through the destination).
    """
    fab, stride = sim.fab, sim.route_stride
    live = np.ones(sim.pkt_cap, dtype=bool)
    live[sim._pslot_stack[: int(sim._pslot_top[0])]] = False
    pids = np.flatnonzero(live)
    routes = sim.route_buf.reshape(sim.pkt_cap, stride)[pids]
    lens = sim.pkt_len[pids]
    hops = np.arange(stride)[None, :]
    on_route = hops < lens[:, None]
    ahead = np.zeros_like(routes)
    ahead[:, :-1] = routes[:, 1:]
    ports = fab.ports_toward(
        np.where(on_route, routes, 0), np.where(on_route, ahead, 0)
    )
    dst = routes[np.arange(pids.size), lens - 1]
    eject = routes == dst[:, None]
    eject[:, 0] = lens == 1
    want = np.where(eject, fab.OE, ports)
    got = sim.route_port.reshape(sim.pkt_cap, stride)[pids]
    assert np.array_equal(got[on_route], want[on_route])
    return int((eject & (hops < lens[:, None] - 1)).sum())


def assert_row_mask_is_voq_occupancy(sim, lengths):
    """Bit ``in`` of ``row_mask[r, out]`` is set iff VOQ (r, in, out) holds a flit.

    ``lengths`` are the VOQ lengths :func:`walk_voqs` found.  And bit
    ``r * O + out`` of ``busy_rows`` iff that row's backlog is positive.
    """
    fab = sim.fab
    words = sim.row_mask.reshape(fab.n, fab.O, -1)
    ins = np.arange(fab.I)
    bits = (words[:, :, ins >> 6] >> (ins & 63).astype(np.uint64)) & np.uint64(1)
    occupied = lengths.reshape(fab.n, fab.O, fab.I) > 0
    assert np.array_equal(bits.astype(bool), occupied)
    # No stray bit at or above I in the last word either.
    assert not (words[:, :, -1] >> np.uint64((fab.I - 1) % 64) >> np.uint64(1)).any()
    # One level up: bit ``row`` of ``busy_rows`` iff the row holds a flit.
    rows = np.arange(fab.n * fab.O)
    busy = (sim.busy_rows[rows >> 6] >> (rows & 63).astype(np.uint64)) & np.uint64(1)
    assert np.array_equal(busy.astype(bool), sim.backlog > 0)
    assert not (sim.busy_rows[-1] >> np.uint64((rows[-1] % 64)) >> np.uint64(1)).any()


class TestBacklogMirrorsVoqCounts:
    """``backlog[r, out] == sum_in len(VOQ (r, in, out))`` after every cycle.

    The C kernel's decide loop skips (router, out) rows whose backlog is
    zero, so the counter must be exact at every mutation site of both
    cycle paths: feed, grant, forward, wire kills, event-time queue
    drops, and epoch table swaps.  Within a row it visits only the
    inputs whose ``row_mask`` bit is set, so on the kernel path the same
    holds bit by bit: ``bit(row_mask[r, out], in) == (len(VOQ (r, in,
    out)) > 0)`` — a stale bit would read the head of an empty queue, and
    the event-time flush in ``_drop_vq`` is where one could come from.
    The lengths come from walking each circular chain through
    ``pool_next`` from the head, the tail's successor; the records
    themselves must be zero when empty (the whole ``_voq`` array is
    compared between paths) and name the chain's last row as tail when
    not, and every head must sit at its record's (router, in, out).
    The kernel path also never searches a port on the cycle path: it
    reads the ``route_port`` row ``kinject`` filled, which must equal
    the live packet's route recomputed port by port.
    """

    def test_open_loop(self, pf, tables, flat_path):
        with flat_path():
            sim = FlatSimulator(
                pf, UGALPFRouting(tables), UniformTraffic(pf), 0.8, seed=5
            )
        for _ in range(200):
            sim.step()
            assert_backlog_is_voq_row_sum(sim)
        assert sim.backlog.any()
        drain_to_quiescence(sim)
        assert sim.live_flits() == 0
        assert (sim.backlog == 0).all()

    def test_closed_loop(self, pf, tables, flat_path):
        policy = UGALPFRouting(tables)
        wl = WORKLOADS.create("alltoall:size=8", pf)
        with flat_path():
            sim = FlatSimulator(
                pf, policy, None, 0.0, config=auto_sim_config(policy),
                seed=3, workload=wl,
            )
        sim._measuring = True
        while not sim._wl.done:
            assert sim.now < 20_000
            sim.step()
            assert_backlog_is_voq_row_sum(sim)
        assert (sim.backlog == 0).all()

    @pytest.mark.parametrize(
        "fault_spec",
        [
            "linkflap:count=8,cycle=120,duration=150,seed=1",
            "mtbf:count=3,mtbf=120,mttr=100,seed=2,start=60",
            "routerdown:cycle=120,count=1,duration=150,seed=3",
            "progressive:frac=0.08,steps=3,period=90,start=100,seed=4",
        ],
    )
    def test_across_fault_epochs(self, pf, tables, flat_path, fault_spec):
        timeline = FAULTS.create(fault_spec, pf)
        policy = MinimalRouting(tables)
        prepare_fault_policy(policy, timeline, pf)
        with flat_path():
            sim = FlatSimulator(
                pf, policy, UniformTraffic(pf), 0.6,
                config=auto_sim_config(policy), seed=7, faults=timeline,
            )
        deltas = [d for d in sim._fault.deltas if d is not None]
        assert any(d.down_links or d.down_routers for d in deltas)
        if not fault_spec.startswith("progressive"):  # it never repairs
            assert any(d.up_links or d.up_routers for d in deltas)
        sim._fault.begin_run(policy)
        for _ in range(deltas[-1].cycle + 50):
            sim.step()
            assert_backlog_is_voq_row_sum(sim)
        assert sim._fault.dropped_flits > 0
        drain_to_quiescence(sim)
        assert sim.live_flits() == 0
        assert (sim.backlog == 0).all()


CAP = flatcore._POOL_CAP


@pytest.mark.parametrize(
    "ceiling,min_extra,grown_to",
    [
        (2 * CAP, 1, 2 * CAP),  # doubling lands exactly on the ceiling
        (2 * CAP - 1, 1, None),  # one row short of it
        (3 * CAP, 2 * CAP, 3 * CAP),  # a burst larger than doubling
        (3 * CAP, 2 * CAP + 1, None),
    ],
)
def test_flit_pool_growth_stops_loudly_at_the_int32_ceiling(
    pf, tables, monkeypatch, ceiling, min_extra, grown_to
):
    """VOQ records hold pool rows as int32: growth past that must not wrap."""
    assert flatcore._POOL_MAX == 2**31 - 1
    monkeypatch.setattr(flatcore, "_POOL_MAX", ceiling)
    sim = FlatSimulator(pf, MinimalRouting(tables), UniformTraffic(pf), 0.5, seed=1)
    if grown_to is not None:
        sim._grow_pool(min_extra)
        assert sim.pool_cap == sim.free_top == grown_to
        return
    with pytest.raises(OverflowError, match=rf"pool_cap={CAP + max(min_extra, CAP)}"):
        sim._grow_pool(min_extra)
    # Refused before anything was replaced: the simulator still runs.
    assert sim.pool_cap == sim.free_top == sim.pool_next.size == CAP
    sim.run(warmup=0, measure=20, drain=40)


#: (ceiling, patched to, error, message, cycle the run stops at) — the
#: fields the flit and packet records narrow, each one side of its
#: ceiling and the other: packet_size=4 (int16 sequence numbers), the
#: route stride max_hops + 1 = 3 on PolarFly q=5 (int16 hop index,
#: route_port rows; int8 route lengths), its 31 router ids (int32 route
#: entries), the 1024 packet slots it starts with (int32 slot ids), the
#: ready stamp now + 3 and creation stamp now (int32) of an 80-cycle
#: run, and vc_depth=8 (int16 credits)
NARROWED = [
    ("_SEQ_MAX", 4, None, None, 80),
    ("_SEQ_MAX", 3, ValueError, r"packet_size=4 exceeds the int16", None),
    ("_HOP_MAX", 3, None, None, 80),
    ("_HOP_MAX", 2, ValueError, r"route stride 3 \(policy max_hops", None),
    ("_READY_MAX", 82, None, None, 80),
    ("_READY_MAX", 81, OverflowError, r"now=79: .* ready at cycle 82", 79),
    ("_READY_MAX", 3, OverflowError, r"now=1: .* ready at cycle 4", 1),
    ("_ROUTE_MAX", 30, None, None, 80),
    ("_ROUTE_MAX", 29, OverflowError, r"router id 30 .* of route_buf", None),
    ("_CREATED_MAX", 79, None, None, 80),
    ("_CREATED_MAX", 78, OverflowError, r"now=79: .* of pkt_t_created", 79),
    ("_LEN_MAX", 3, None, None, 80),
    ("_LEN_MAX", 2, OverflowError, r"route stride 3 .* of pkt_len", None),
    ("_SLOT_MAX", 1024, None, None, 80),
    ("_SLOT_MAX", 1023, OverflowError, r"pkt_cap=1024 .* of pkt_next", None),
    ("_CREDIT_MAX", 8, None, None, 80),
    ("_CREDIT_MAX", 7, OverflowError, r"vc_depth=8 exceeds the int16 .* credits", None),
]

#: each ceiling's value: the widest id or count its field holds
CEILINGS = {
    "_SEQ_MAX": 2**15 - 1, "_HOP_MAX": 2**15 - 1, "_LEN_MAX": 2**7 - 1,
    "_CREDIT_MAX": 2**15 - 1,
}


@pytest.mark.parametrize("ceiling,value,error,match,stops_at", NARROWED)
def test_narrowed_flit_fields_stop_loudly_at_their_ceilings(
    pf, tables, flat_path, monkeypatch, ceiling, value, error, match, stops_at
):
    """Construction refuses what the records cannot hold; time stops short."""
    assert getattr(flatcore, ceiling) == CEILINGS.get(ceiling, 2**31 - 1)
    monkeypatch.setattr(flatcore, ceiling, value)

    def build():
        with flat_path():
            return FlatSimulator(
                pf, MinimalRouting(tables), UniformTraffic(pf), 0.5, seed=1
            )

    if stops_at is None:
        with pytest.raises(error, match=match):
            build()
        return
    sim = build()
    if error is None:
        sim.run(warmup=20, measure=60, drain=0)
    else:
        with pytest.raises(error, match=match):
            sim.run(warmup=20, measure=60, drain=0)
    # Every cycle before the ceiling ran — as spans where the kernel
    # offers them — and none past it.
    assert sim.now == stops_at
    if sim._kspan is not None:
        assert sim.span_cycles == stops_at


def test_packet_table_growth_stops_loudly_at_the_int32_ceiling(
    pf, tables, monkeypatch
):
    """Flit records and FIFO chains hold packet slot ids as int32."""
    monkeypatch.setattr(flatcore, "_SLOT_MAX", 2 * flatcore._PKT_CAP - 1)
    sim = FlatSimulator(pf, MinimalRouting(tables), UniformTraffic(pf), 0.5, seed=1)
    with pytest.raises(OverflowError, match=rf"pkt_cap={2 * flatcore._PKT_CAP}"):
        sim._grow_pkt_pool(1)
    assert sim.pkt_cap == int(sim._pslot_top[0]) == flatcore._PKT_CAP


#: the kernel's record structs, field by field: (name, C type, offset)
RECORDS = {
    "Flit": (
        flatcore._FLIT,
        [("next", "int32_t", 0), ("pid", "int32_t", 4), ("ready", "int32_t", 8),
         ("hop", "int16_t", 12), ("seq", "int16_t", 14)],
    ),
    "Grant": (
        flatcore._GRANT,
        [("f", "int32_t", 0), ("r", "int32_t", 4), ("in", "int32_t", 8),
         ("out", "int32_t", 12)],
    ),
}


@pytest.mark.skipif(load_kernel() is None, reason="C kernel unavailable")
@pytest.mark.parametrize("struct", sorted(RECORDS))
def test_record_dtypes_match_the_kernel_structs(struct):
    """A reordered or retyped C field fails here, not as silent corruption."""
    ffi = load_kernel().ffi
    dtype, fields = RECORDS[struct]
    assert ffi.sizeof(struct) == dtype.itemsize == 16
    assert [name for name, _ in ffi.typeof(struct).fields] == list(dtype.names)
    assert list(dtype.names) == [name for name, _, _ in fields]
    for name, ctype, offset in fields:
        np_type, np_offset = dtype.fields[name]
        assert ffi.offsetof(struct, name) == np_offset == offset, name
        assert ffi.sizeof(ctype) == np_type.itemsize, name
        assert np_type == np.dtype(ctype[:-2]), name


SPAN_KERNEL = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)


@SPAN_KERNEL
@pytest.mark.parametrize(
    "topo_spec,policy_spec,traffic_spec,load",
    [
        # 44 % of the pairs have tied minimal next hops, drawn in kselect
        ("polarstar:conc=2,q=5,sq=9", "min", "uniform", 0.6),
        # 65 input ports: two-word occupancy masks
        ("polarfly:conc=57,q=7", "ugal-pf", "tornado", 0.9),
        # src -> mid legs that pass through dst eject there
        ("polarfly:conc=2,q=5", "valiant", "uniform", 0.5),
    ],
)
def test_route_ports_follow_routes_through_one_cycle_spans(
    topo_spec, policy_spec, traffic_spec, load
):
    """The per-cycle checks above, with each cycle run as a ``kcycles`` span."""
    topo = TOPOLOGIES.create(topo_spec)
    policy = POLICIES.create(policy_spec, RoutingTables(topo))
    sim = FlatSimulator(
        topo, policy, TRAFFICS.create(traffic_spec, topo), load,
        config=auto_sim_config(policy), seed=6,
    )
    early = 0
    for _ in range(80):
        sim.advance(1)
        assert_backlog_is_voq_row_sum(sim)
        early += assert_route_ports_follow_routes(sim)
    assert sim.span_cycles == sim.now == 80
    assert (early > 0) == (policy_spec == "valiant")


@SPAN_KERNEL
@pytest.mark.parametrize(
    "faults", [None, "linkflap:count=6,cycle=40,duration=60,seed=1"]
)
def test_packet_table_grows_mid_span_with_live_packets(
    pf, tables, monkeypatch, faults
):
    """A packet-table grow inside ``kcycles`` keeps the live ports.

    A tiny first table makes every few cycles of a loaded run a
    ``SPAN_GROW`` return with packets in flight; the grown
    ``route_port`` must carry their rows over, or their flits turn at
    the wrong ports and the run leaves the numpy path's.
    """
    monkeypatch.setattr(flatcore, "_PKT_CAP", 16)
    sims = []
    for path in (contextlib.nullcontext, numpy_fallback):
        policy = MinimalRouting(tables)
        timeline = None
        if faults is not None:
            timeline = FAULTS.create(faults, pf)
            prepare_fault_policy(policy, timeline, pf)
        with path():
            sims.append(FlatSimulator(
                pf, policy, UniformTraffic(pf), 0.9,
                config=auto_sim_config(policy), seed=8, faults=timeline,
            ))
    spans, numpy_sim = sims
    grows = []
    grow = spans._grow_pkt_pool

    def counted_grow(min_extra):
        grows.append(spans.pkt_cap - int(spans._pslot_top[0]))
        grow(min_extra)

    spans._grow_pkt_pool = counted_grow
    runs = [sim.run(warmup=40, measure=120, drain=60) for sim in sims]
    assert spans.span_cycles == spans.now == 220
    assert sum(live > 0 for live in grows) >= 2, grows
    assert_identical(*runs)
    assert spans.pkt_cap == numpy_sim.pkt_cap > 16
    # The two paths take pool rows off the free stack in different
    # orders, so the records differ; the queue lengths may not.
    assert np.array_equal(walk_voqs(spans)[0], walk_voqs(numpy_sim)[0])
    for name in ("backlog", "credits", "ep_credit"):
        assert np.array_equal(getattr(spans, name), getattr(numpy_sim, name)), name
    assert_route_ports_follow_routes(spans)
