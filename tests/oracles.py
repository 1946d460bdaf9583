"""Reference implementations the golden tests compare production code against.

Each is the seed's readable per-source / all-pairs form of something
``src/`` now builds batched or sparse.  Nothing under ``src/`` imports
them; they live here so an oracle can stay slow and obvious.
:func:`walk_voqs` recovers what ``src/`` no longer stores at all, each
VOQ's length.

The cycle-path oracles follow: :func:`build` / :func:`cell_sim` make a
simulator the way ``run_cell`` does, :func:`run_by_steps` /
:func:`run_workload_by_steps` spell a run out cycle by cycle, and
:func:`four_ways` runs one sweep cell record on every cycle path —
whole-cycle spans, kernel ``step()``, numpy ``step()`` and the reference
engine — and checks them against each other.
"""

from __future__ import annotations

import contextlib
import functools
import json
from types import SimpleNamespace

import numpy as np

from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.experiments.runner import auto_sim_config
from repro.faults import prepare_fault_policy
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim._kernel import numpy_fallback
from repro.flitsim.engine import SimulatorCore
from repro.flitsim.telemetry import (
    LinkCounts,
    LinkTelemetry,
    OccupancySampler,
    WindowCloser,
)
from repro.routing.tables import RoutingTables
from repro.workloads.result import build_workload_result


def walk_voqs(sim):
    """Each VOQ's length and last pool row, walking its chain through ``pool_next``.

    A VOQ record stores its tail row plus one (0: empty) and the chain is
    circular, so the walk starts at the head, ``pool_next[tail]``, and
    ends at the row whose ``next`` is the head again; the record's tail
    can be checked against that last row.
    """
    tails = sim._voq.astype(np.int64) - 1
    heads = np.where(tails >= 0, sim.pool_next[tails], -1).astype(np.int64)
    return _walk_chains(sim, heads, heads)


def walk_fifos(sim):
    """Each endpoint's source-FIFO length and last pool row."""
    return _walk_chains(sim, sim.src_head, -1)


def _walk_chains(sim, first, stop):
    """Lengths and last rows of the ``pool_next`` chains from ``first``
    (-1: none), each ending where its next row would be ``stop`` (-1, or
    its own first row for a circular chain)."""
    stop = np.broadcast_to(stop, first.shape)
    lengths = np.zeros(first.size, dtype=np.int64)
    last = np.zeros(first.size, dtype=np.int64)
    q = np.flatnonzero(first >= 0)
    f = first[q].astype(np.int64)
    while q.size:
        assert lengths.max() <= sim.pool_cap, "a chain never ends"
        assert (f >= 0).all(), "a circular chain breaks off"
        lengths[q] += 1
        last[q] = f
        f = sim.pool_next[f].astype(np.int64)
        more = f != stop[q]
        q, f = q[more], f[more]
    return lengths, last


def bfs_distances_reference(graph, source: int) -> np.ndarray:
    """The seed per-source frontier BFS.

    Batched :meth:`Graph.all_pairs_distances` and :meth:`Graph.bfs_distances`
    are pinned bit-identical to this implementation.
    """
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = graph.indptr[frontier]
        stops = graph.indptr[frontier + 1]
        total = int((stops - starts).sum())
        if total == 0:
            break
        out = np.empty(total, dtype=np.int64)
        pos = 0
        for s, t in zip(starts, stops):
            out[pos : pos + (t - s)] = graph.indices[s:t]
            pos += t - s
        cand = out[dist[out] < 0]
        if cand.size == 0:
            break
        cand = np.unique(cand)
        dist[cand] = level
        frontier = cand
    return dist


def per_source_candidate_csr(graph, dist) -> tuple:
    """The seed per-source candidate-CSR build.

    The compact table (materialized through :func:`compact_candidate_csr`)
    is pinned to produce identical rows.  ``data`` is int64 as in the
    seed; the golden comparison is value-wise.
    """
    n = graph.n
    dist = np.asarray(dist)
    indptr = np.zeros(n * n + 1, dtype=np.int64)
    chunks = []
    for s in range(n):
        nbrs = graph.neighbors(s)
        on_path = dist[nbrs, :] == dist[s, :][None, :] - 1
        dst_idx, nbr_idx = np.nonzero(on_path.T)
        indptr[s * n + 1 : s * n + n + 1] = np.bincount(dst_idx, minlength=n)
        chunks.append(nbrs[nbr_idx].astype(np.int64))
    np.cumsum(indptr, out=indptr)
    data = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    return indptr, data


def compact_candidate_csr(tables) -> tuple:
    """The seed-shaped dense ``(indptr, data)`` CSR of a compact table.

    Rebuilt from ``count`` and ``first`` plus the serving scan
    (``nth_hop``) for every nonzero pick of every tied pair, so the
    golden comparison against :func:`per_source_candidate_csr` covers
    what serving can return.  Allocates the O(n^2) ``indptr`` the
    compact layout exists to avoid.
    """
    tab = tables._candidate_table()
    count = tab.count.astype(np.int64)
    indptr = np.zeros(tab.n * tab.n + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    have = np.flatnonzero(count)
    pairs = np.repeat(have, count[have])
    pick = np.arange(pairs.size, dtype=np.int64) - indptr[pairs]
    data = tab.first[pairs].astype(np.int32)
    tied = np.flatnonzero(pick > 0)
    if tied.size:
        data[tied] = tab.nth_hop(pairs[tied], pick[tied])
    return indptr, data


def dense_polar_adjacency(pf) -> np.ndarray:
    """Dense boolean ER_q adjacency: dot(v, w) == 0, diagonal cleared.

    One broadcasted field-dot over all N^2 vertex pairs — the paper's
    definition, which ``PolarFly._build_graph``'s sparse polar-line edge
    list is pinned against.
    """
    v = pf.vectors
    adj = pf.field.dot(v[:, None, :], v[None, :, :]) == 0
    np.fill_diagonal(adj, False)
    return adj


def message_list_workload(topo, kind: str, **kw):
    """The seed's per-message :class:`Message`-list build of a generator.

    ``ring_allreduce`` / ``recursive_doubling_allreduce`` / ``all_to_all``
    / ``halo_exchange`` / ``incast`` now emit their arrays directly via
    ``Workload.from_arrays``; each is pinned to build the same arrays as
    this loop form.
    """
    from repro.workloads.generators import _torus_grid, terminal_routers
    from repro.workloads.message import Message, Workload

    t = [int(x) for x in terminal_routers(topo)]
    n = len(t)
    size = int(kw.get("size", 8))
    msgs = []
    if kind == "ring":
        chunk = max(1, size // n)
        for s in range(2 * (n - 1)):
            for i in range(n):
                deps = ((s - 1) * n + (i - 1) % n,) if s else ()
                msgs.append(Message(t[i], t[(i + 1) % n], chunk, deps))
    elif kind == "rd":
        p = 1 << (n.bit_length() - 1)
        for s in range(p.bit_length() - 1):
            for i in range(p):
                deps = ((s - 1) * p + (i ^ (1 << (s - 1))),) if s else ()
                msgs.append(Message(t[i], t[i ^ (1 << s)], size, deps))
    elif kind == "alltoall":
        msgs = [Message(a, b, size) for a in t for b in t if a != b]
    elif kind == "halo":
        rows, cols = _torus_grid(n)
        neighbor = []
        for i in range(n):
            r, c = divmod(i, cols)
            out = []
            for x in (
                ((r - 1) % rows) * cols + c,
                ((r + 1) % rows) * cols + c,
                r * cols + (c - 1) % cols,
                r * cols + (c + 1) % cols,
            ):
                if x != i and x not in out:
                    out.append(x)
            neighbor.append(out)
        offsets = np.concatenate([[0], np.cumsum([len(x) for x in neighbor])])
        per_iter = int(offsets[-1])
        recv_ids = [[] for _ in range(n)]
        for i in range(n):
            for j, v in enumerate(neighbor[i]):
                recv_ids[v].append(int(offsets[i]) + j)
        for k in range(int(kw.get("iters", 2))):
            for i in range(n):
                deps = tuple((k - 1) * per_iter + d for d in recv_ids[i]) if k else ()
                for v in neighbor[i]:
                    msgs.append(Message(t[i], t[v], size, deps))
    elif kind == "incast":
        server = t[int(kw.get("root", 0))]
        workers = [x for x in t if x != server]
        msgs = [Message(w, server, size) for w in workers]
        if kw.get("reply", False):
            barrier = tuple(range(len(workers)))
            msgs.extend(Message(server, w, size, barrier) for w in workers)
    else:
        raise ValueError(kind)
    return Workload(kind, msgs, topo)


# ----------------------------------------------------------------------
# Cycle paths
# ----------------------------------------------------------------------
_memo: dict = {}


def tables_for(spec):
    """``(topology, RoutingTables)`` of a topology spec, built once."""
    if spec not in _memo:
        topo = TOPOLOGIES.create(spec)
        _memo[spec] = (topo, RoutingTables(topo))
    return _memo[spec]


def build(
    topo_spec, policy_spec, traffic_spec, load, packet_size=4, seed=3,
    engine=FlatSimulator, workload=None, faults=None, **sizing,
):
    """One simulator; ``workload`` / ``faults`` are spec strings or objects.

    ``sizing`` (``port_budget`` / ``num_vcs`` / ``vc_depth``) goes to
    ``auto_sim_config`` after the fault timeline has set the policy's
    hop ceiling, as in ``run_cell``.
    """
    topo, tables = tables_for(topo_spec)
    policy = POLICIES.create(policy_spec, tables)
    traffic = TRAFFICS.create(traffic_spec, topo) if traffic_spec else None
    if isinstance(workload, str):
        workload = WORKLOADS.create(workload, topo)
    if isinstance(faults, str):
        faults = FAULTS.create(faults, topo)
    if faults is not None:
        prepare_fault_policy(policy, faults, topo)
    config = auto_sim_config(policy, packet_size=packet_size, **sizing)
    return engine(
        topo, policy, traffic, load, config=config, seed=seed,
        workload=workload, faults=faults,
    )


def cell_sim(cell, engine=FlatSimulator):
    """The simulator ``run_cell`` builds for the sweep cell record ``cell``."""
    return build(
        cell["topology"], cell["policy"], cell["traffic"], cell["load"],
        cell["packet_size"], cell["seed"], engine,
        workload=cell.get("workload"), faults=cell.get("faults"),
        port_budget=cell["port_budget"], num_vcs=cell["num_vcs"],
        vc_depth=cell["vc_depth"],
    )


def run_by_steps(sim, warmup, measure, drain):
    """``SimulatorCore.run`` spelled out cycle by cycle."""
    if sim._fault is not None:
        sim._fault.begin_run(sim.policy)
    for _ in range(warmup):
        sim.step()
    sim._measuring = True
    start = sim.now
    for _ in range(measure):
        sim.step()
    sim._stat.cycles = sim.now - start
    sim._measuring = False
    saved, sim.load = sim.load, 0.0
    for _ in range(drain):
        sim.step()
    sim.load = saved
    return sim._stat.finalize()


def run_workload_by_steps(sim, max_cycles=200_000):
    """``SimulatorCore.run_workload`` spelled out cycle by cycle."""
    if sim._fault is not None:
        sim._fault.begin_run(sim.policy)
    sim._measuring = True
    while sim.now < max_cycles and not sim._wl.done:
        sim.step()
    sim._stat.cycles = sim.now
    sim._measuring = False
    return build_workload_result(sim._wl, sim._stat.finalize(), sim.topo)


def assert_same_result(a, b, what=""):
    """Equal ``SimResult``\\ s or ``WorkloadResult``\\ s.

    Summaries compare NaN-aware: a closed-loop run that completes no
    message has NaN message latencies on every path.
    """
    assert type(a) is type(b), what
    assert a.cycles == b.cycles, what
    assert a.injected_flits == b.injected_flits, what
    assert a.ejected_flits == b.ejected_flits, what
    assert np.array_equal(a.hop_counts, b.hop_counts), what
    if hasattr(a, "latencies"):
        assert np.array_equal(a.latencies, b.latencies), what
        return
    assert np.array_equal(a.packet_latencies, b.packet_latencies), what
    assert np.array_equal(a.msg_complete_cycles, b.msg_complete_cycles), what
    assert np.array_equal(a.msg_latencies, b.msg_latencies), what
    np.testing.assert_equal(a.summary(), b.summary(), err_msg=what)


#: arrays every entry of which is protocol state (or deterministically dead)
WHOLE = ("credits", "ep_credit", "backlog", "rr", "_free_top", "_pslot_top")
#: arrays naming flit-pool rows or packet slots (or holding dead slots'
#: leftovers), and those the C kernel alone keeps
RECORDS = (
    "_voq", "src_head", "src_tail", "pkt_dst", "pkt_msg", "pkt_measured",
    "route_buf", "row_mask", "route_port",
)
#: the same under a fault timeline
FAULT_RECORDS = ("pkt_live", "pkt_damaged")
#: a live packet, whatever slot it sits in (and its route)
PACKET_COLUMNS = ("pkt_dst", "pkt_msg", "pkt_measured", "pkt_t_created", "pkt_len")
POOL_COLUMNS = ("pool_pid", "pool_seq", "pool_hop", "pool_ready", "pool_next")
WORKLOAD_ARRAYS = (
    "_tally", "rem_pkts", "pending", "eligible_cycle", "complete_cycle", "_inj_rr",
)
FAULT_FIELDS = (
    "marks", "_next", "any_dead_router", "dropped_flits", "dropped_packets",
    "damaged_packets", "blackholed_packets", "retransmitted_packets", "_rt_queue",
)


def _live(rows, free):
    live = np.ones(rows, dtype=bool)
    live[free] = False
    return live


def _packet_table(sim, names, by_slot):
    """The live packets' ``names`` columns and routes, a row per packet:
    in slot order, or sorted when slots may differ."""
    live = _live(sim.pkt_cap, sim._pslot_stack[: int(sim._pslot_top[0])])
    routes = sim.route_buf.reshape(sim.pkt_cap, -1)[live]
    on_route = np.arange(routes.shape[1]) < sim.pkt_len[live][:, None]
    table = np.hstack(
        [getattr(sim, name)[live][:, None] for name in names]
        + [np.where(on_route, routes, -1)]
    )
    return table if by_slot else table[np.lexsort(table.T[::-1])]


def assert_same_state(a, b, what="", rows=True):
    """Equal simulator state, array by array.

    The pool and packet-table columns start as ``np.empty`` memory, so
    they are compared on the live rows (those not on the free stacks),
    and the stacks — like the workload's ready queue — on their live
    prefix.  ``rows=False`` compares a kernel run with a numpy-path one:
    the two take flit-pool rows and freed packet slots off their stacks
    in their own orders, so queues compare by length and packets as a
    set of rows.
    """
    assert (a.now, a.packets_injected) == (b.now, b.packets_injected), what
    assert a.rng.bit_generator.state == b.rng.bit_generator.state, what
    assert (a.pool_cap, a.pkt_cap) == (b.pool_cap, b.pkt_cap), what
    faulted = a._fault is not None
    for name in WHOLE + (("dead_row",) if faulted else ()):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (what, name)
    for walk in (walk_voqs, walk_fifos):
        assert np.array_equal(walk(a)[0], walk(b)[0]), (what, walk.__name__)
    columns = PACKET_COLUMNS + (FAULT_RECORDS if faulted else ())
    if rows:
        for name in RECORDS + (FAULT_RECORDS if faulted else ()):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (what, name)
        free, slots = a.free_top, int(a._pslot_top[0])
        assert np.array_equal(a.free_stack[:free], b.free_stack[:free]), what
        assert np.array_equal(a._pslot_stack[:slots], b._pslot_stack[:slots]), what
        pool = _live(a.pool_cap, a.free_stack[:free])
        for name in POOL_COLUMNS:
            assert np.array_equal(getattr(a, name)[pool], getattr(b, name)[pool]), (
                what, name,
            )
        columns = ("pkt_t_created", "pkt_len")
    assert np.array_equal(
        _packet_table(a, columns, rows), _packet_table(b, columns, rows)
    ), what
    if a._wl is not None:
        for name in WORKLOAD_ARRAYS:
            assert np.array_equal(getattr(a._wl, name), getattr(b._wl, name)), (
                what, name,
            )
        queued = int(a._wl._tally[0])
        assert np.array_equal(a._wl.ready[:queued], b._wl.ready[:queued]), what
    if faulted:
        for name in FAULT_FIELDS:
            assert getattr(a._fault, name) == getattr(b._fault, name), (what, name)
        for name in ("router_alive", "ep_alive"):
            assert np.array_equal(
                getattr(a._fault, name), getattr(b._fault, name)
            ), (what, name)


def assert_flits_conserved(sim, ref, what=""):
    """Every live pool row of ``sim`` is queued once, in a VOQ or a source
    FIFO, and its queues and credits hold what the reference engine's do."""
    voqs, fifos = walk_voqs(sim)[0], walk_fifos(sim)[0]
    assert voqs.sum() + fifos.sum() == sim.live_flits(), what
    assert voqs.sum() == sum(len(q) for qs in ref.voq for q in qs.values()), what
    assert fifos.tolist() == [len(q) for qs in ref.src_q for q in qs], what
    assert sim.ep_credit.tolist() == [c for cs in ref.inj_credit for c in cs], what
    for r, deg in enumerate(sim.fab.deg.tolist()):
        assert sim.credits[r, :deg].tolist() == ref.credits[r], (what, r)


#: the ways one cell runs: (name, engine, construction context, per cycle)
PATHS = (
    ("spans", FlatSimulator, contextlib.nullcontext, False),
    ("kernel steps", FlatSimulator, contextlib.nullcontext, True),
    ("numpy steps", FlatSimulator, numpy_fallback, True),
    ("reference", NetworkSimulator, contextlib.nullcontext, False),
)


def observers_for(cell, links=False):
    """A ``WindowCloser`` when the record has a ``window`` (as ``run_cell``
    runs it), and link counts and occupancy samples when ``links``."""
    windows = (WindowCloser(cell["window"]),) if cell.get("window") else ()
    return windows + ((LinkCounts(), OccupancySampler()) if links else ())


def collected(observers) -> dict:
    """What a set of observers gathered, keyed by observer type; link
    counts as an ordered ``[(link, flits)]`` list plus the hottest link,
    so the order ties break in counts too."""
    out = {}
    for ob in observers:
        if isinstance(ob, LinkCounts):
            out["links"] = list(ob.counts.items())
            out["hottest"] = LinkTelemetry(1, link_flits=ob.counts).max_utilization()
        elif isinstance(ob, OccupancySampler):
            out["occupancy"] = (ob.samples, ob.mean)
        else:
            out["windows"] = ob.series.summary()
    return out


def path_sim(cell, engine, path, per_cycle):
    """The simulator of ``cell`` on one path of :data:`PATHS`."""
    with path():
        sim = cell_sim(cell, engine)
    if per_cycle:
        sim.advance = functools.partial(SimulatorCore.advance, sim)
    return sim


def four_ways(cell, links=False, attached=False):
    """Run the sweep cell record ``cell`` on every path of :data:`PATHS`
    and check them against each other; ``{path: run}``.

    ``attached`` attaches the link counters before the first cycle, so
    they also run through the warmup and the drain.  The record is
    printed first, so a failure shows what ``run_cell`` replays verbatim.
    """
    print("cell:", json.dumps(cell, sort_keys=True), "links:", links)
    runs = {}
    for name, *path in PATHS:
        sim = path_sim(cell, *path)
        if attached:
            sim.attach_link_telemetry()
        observers = observers_for(cell, links)
        if cell.get("workload"):
            result = sim._drive(max_cycles=cell["max_cycles"], observers=observers)
        else:
            result = sim._drive(
                cell["warmup"], cell["measure"], cell["drain"], observers=observers
            )
        runs[name] = SimpleNamespace(sim=sim, result=result, seen=collected(observers))
    first = runs["spans"]
    spans, ref = first.sim, runs["reference"].sim
    assert spans._kernel is not None and runs["numpy steps"].sim._kernel is None
    # Hotspot draws its own stream and a combined cell's retransmit queue
    # lives in Python: those stay on step(), every other cell is spans.
    declined = cell["traffic"].startswith("hotspot") or bool(
        cell.get("workload") and cell.get("faults")
    )
    assert spans.span_cycles == (0 if declined else spans.now)
    for name, run in runs.items():
        assert_same_result(first.result, run.result, name)
        assert run.sim.rng.bit_generator.state == spans.rng.bit_generator.state, name
        np.testing.assert_equal(run.seen, first.seen, err_msg=name)
        np.testing.assert_array_equal(run.sim.link_flits(), ref.link_flits(), name)
        if spans._fault is not None:
            assert run.sim._fault.marks == spans._fault.marks, name
            np.testing.assert_equal(
                run.sim.fault_result.summary(), spans.fault_result.summary(),
                err_msg=name,
            )
    if spans._fault is not None:
        # Every epoch that starts inside the run applies on its first
        # cycle, and a faulted cell sees at least one.
        starts = [e.start for e in spans._fault.epochs[1:] if e.start < spans.now]
        assert [c for c, _ in spans._fault.marks] == starts
        assert spans._fault.applied_events >= 1
        if cell.get("window"):
            # A fault marker in a measured window feeds recovery
            # analytics into the fault result, and only then.
            marked = any(w["faults"] for w in first.seen["windows"]["windows"])
            assert (spans.fault_result.recovery is not None) == marked
            assert ("fault_recovery_cycles" in spans.fault_result.summary()) == marked
    if cell.get("workload"):
        result = first.result
        assert result.finished or result.cycles == cell["max_cycles"]
    assert_same_state(spans, runs["kernel steps"].sim)
    assert_same_state(spans, runs["numpy steps"].sim, rows=False)
    for name in ("spans", "kernel steps", "numpy steps"):
        assert_flits_conserved(runs[name].sim, ref, name)
    _check_observed(first.seen, first.result, cell.get("window"))
    return runs


def _check_observed(seen, result, window):
    """What the observers saw covers exactly the measured cycles."""
    cycles = result.cycles
    if "occupancy" in seen:
        assert seen["occupancy"][0] == (cycles + 7) // 8  # cycles 1, 9, 17, ...
    if "windows" in seen:
        windows = seen["windows"]["windows"]
        bounds = [(w["start"], w["end"]) for w in windows]
        assert bounds == [
            (s, min(s + window, cycles)) for s in range(0, cycles, window)
        ]
        assert sum(w["ejected"] for w in windows) == result.ejected_flits
        if "links" in seen:
            # Both observers difference the one counter: the windows
            # tile the link counts' measure window.
            assert sum(w["link_total"] for w in windows) == sum(
                flits for _, flits in seen["links"]
            )
