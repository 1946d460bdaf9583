"""One differential harness: registry-drawn cells on three cycle paths.

A cell is a production sweep cell record, ``ExperimentSpec(...).cell()``,
and runs three ways (:func:`oracles.three_ways`): whole-cycle spans, the
numpy path and the reference engine.  They must agree on the result, the
generator state, the fault marks and summary and what the observers
saw; the two flat runs on their state arrays; every flat run's queues
and credits on the reference engine's.  Every registered cell runs
every cycle inside ``kcycles``.  A fault timeline is scaled so every
event lands inside the run, and a faulted cell must apply its epochs.

The axes come from the registries — every topology, policy, traffic
pattern, workload and fault generator by name — crossed with load,
packet size, VC depth, windows, observers and seed.  The tier-1 slice is
fixed: a cell per registered name on every axis, a cell per topology in
each mode, and a fixed number of seeded random cells.  The long slice
draws cells under hypothesis::

    python -m pytest tests/test_differential.py \\
        --hypothesis-profile=differential-long --hypothesis-seed=N

A failing cell prints its record; ``run_cell(record)`` replays it.
"""

import json
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import Combo, ExperimentSpec
from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.experiments import runner
from repro.experiments.runner import run_cell, simulate_point
from repro.faults import FaultEvent, FaultTimeline
from repro.flitsim import NetworkSimulator
from repro.flitsim._kernel import load_kernel
from repro.flitsim.telemetry import LinkCounts, WindowCloser
from repro.workloads.message import Message, Workload

from oracles import (
    PATHS,
    assert_same_result,
    build,
    cell_sim,
    path_sim,
    run_workload_by_steps,
    tables_for,
    three_ways,
)

pytestmark = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)

#: every registered family's example, plus fields no example shows:
#: PolarFly over GF(4), GF(8), GF(9), and PolarStar over ER_2 x Paley(9)
TOPOLOGY_SPECS = tuple(TOPOLOGIES.example(n) for n in TOPOLOGIES.names()) + (
    "polarfly:conc=2,q=4",
    "polarfly:conc=1,q=8",
    "polarfly:conc=1,q=9",
    "polarstar:conc=1,q=2,sq=9",
)
LOADS = (0.0, 0.05, 0.5, 1.0)
PACKET_SIZES = (1, 2, 3, 4, 5)
VC_DEPTHS = (None, 1, 2, 4)
WARMUPS, MEASURES, DRAINS = (0, 10, 30), (1, 40, 120), (0, 15, 40)
MAX_CYCLES = (200, 600)
#: none, link counts + occupancy samples, or a window record every
#: ``WINDOW`` cycles
OBSERVERS = ("none", "links", "windows")
WINDOW = 24
#: a fault timeline's cycle fields, scaled from its example onto the run
TIMINGS = ("cycle", "duration", "start", "period", "mtbf", "mttr")
#: the shortest open-loop run a drawn fault timeline is laid over (a
#: value of ``MEASURES``)
FAULTED_SPAN = 40
#: the registry-named axes besides the topology family
NAMED = (
    ("policy", POLICIES), ("traffic", TRAFFICS), ("workload", WORKLOADS),
    ("faults", FAULTS),
)

#: the combinations no cell draws, each with why; nothing else is skipped
EXCLUDED = (
    ("ftnca routes fat trees only",
     lambda c: c.policy == "ftnca" and c.family != "fattree"),
    ("a fat tree has no one-hop permutation",
     lambda c: c.traffic == "perm1hop" and c.family == "fattree"),
    ("ftnca has no fault repair", lambda c: c.policy == "ftnca" and c.faults),
)


def recipe(**fields):
    """A pinned cell recipe: one closed-loop PolarFly q=5 cell, but for
    ``fields``."""
    c = SimpleNamespace(
        topology="polarfly:conc=2,q=5", policy="min", traffic="", workload="",
        faults="", load=0.0, packet_size=4, vc_depth=None, warmup=0, measure=1,
        drain=0, max_cycles=200_000, root_seed=1, observe="none",
    )
    vars(c).update(fields)
    c.family = TOPOLOGIES.parse(c.topology)[0]
    return c


#: HyperX x incast x routerdown completes no message before the
#: routers die: NaN message latencies on every path, for every policy
NAN_CELLS = [
    recipe(
        topology="hyperx:L=2,S=3,p=1", policy=policy,
        workload="incast:reply=true,size=6",
        faults="routerdown:count=2,cycle=35,duration=60,seed=3", max_cycles=400,
    )
    for policy in POLICIES.names()
    if policy != "ftnca"
]
#: Slim Fly q=5 under min routing and tornado traffic: two links tie
#: for the hottest, so the engines agree on it only when they order
#: their link counts alike (the CSR edge order)
TIED = recipe(
    topology="slimfly:conc=2,q=5", traffic="tornado", load=0.05, warmup=30,
    measure=40, root_seed=1, observe="links",
)
#: link counters attached before the warmup, as ``simulate_point`` once
#: attached them, on a loaded, faulted cell with a drain
ATTACHED = recipe(
    policy="ugal-pf", traffic="uniform", faults="linkflap", load=0.5,
    warmup=30, measure=60, drain=30, root_seed=5, observe="windows",
)
#: hotspot traffic, the one pattern that draws twice per packet (a coin,
#: then the uniform pick), under a router failure: both draws in C, dead
#: sources masked and dead destinations blackholed
HOTSPOT = recipe(
    topology="polarfly:conc=2,q=7", policy="ugal-pf",
    traffic="hotspot:fraction=0.3", faults="routerdown", load=0.6, warmup=20,
    measure=80, drain=20, root_seed=7, observe="links",
)
#: drawn closed-loop cells may stop at ``max_cycles``; these run every
#: registered workload to completion
COMPLETING = [
    recipe(policy="ugal-pf", workload=WORKLOADS.example(name))
    for name in WORKLOADS.names()
]


#: every fault generator's timeline, scaled into a loaded PF q=7 run, goes
#: down and comes back up inside it
FIRING = [
    recipe(
        topology="polarfly:conc=2,q=7", policy=policy, traffic="uniform",
        faults=name, load=0.6, warmup=30, measure=90, drain=40, root_seed=3,
    )
    for name in FAULTS.names()
    for policy in ("min", "ugal-pf")
]
#: PolarFly q=13 at load 0.05: almost every (router, output) row is
#: empty, the rows the kernel's decide loop skips; the flapping links go
#: down and come back inside the run
SPARSE = [
    recipe(
        topology="polarfly:conc=2,q=13", policy=policy, traffic="uniform",
        faults=faults, load=0.05, warmup=30, measure=120, drain=0, root_seed=13,
    )
    for policy in ("min", "ugal-pf")
    for faults in ("", "linkflap:count=12,cycle=40,duration=60,seed=1")
]


def scaled_fault(name, topo_spec, span):
    """``name``'s example timeline on ``topo_spec``, its cycle fields
    scaled so that its last event lands about 3/4 of the way into a run
    of ``span`` cycles, and every event inside it."""
    topo, _ = tables_for(topo_spec)
    _, kwargs = FAULTS.parse(FAULTS.example(name))
    scale = 0.75 * span / FAULTS.create(FAULTS.example(name), topo).events[-1].cycle
    for _ in range(8):
        spec = f"{name}:" + ",".join(
            f"{k}={max(1, round(v * scale)) if k in TIMINGS else v}"
            for k, v in sorted(kwargs.items())
        )
        if FAULTS.create(spec, topo).events[-1].cycle < span:
            return spec
        scale *= 0.8  # a redrawn exponential landed late
    raise AssertionError(f"{name} fits no timeline into {span} cycles")


def draw(rng, **forced):
    """One cell recipe: ``forced`` axes as given, the rest drawn from
    ``rng`` clear of :data:`EXCLUDED`."""
    mode = forced.pop("mode", None)
    while True:
        c = SimpleNamespace(
            topology=rng.choice(TOPOLOGY_SPECS),
            policy=rng.choice(POLICIES.names()),
            traffic=rng.choice(TRAFFICS.names()),
            workload=rng.choice(WORKLOADS.names()),
            faults=rng.choice(FAULTS.names()),
            load=rng.choice(LOADS),
            packet_size=rng.choice(PACKET_SIZES),
            vc_depth=rng.choice(VC_DEPTHS),
            warmup=rng.choice(WARMUPS),
            measure=rng.choice(MEASURES),
            drain=rng.choice(DRAINS),
            max_cycles=rng.choice(MAX_CYCLES),
            root_seed=rng.randrange(2**32),
            observe=rng.choice(OBSERVERS),
        )
        closed = rng.random() < 0.4 if mode in (None, "faulted") else mode == "closed"
        faulted = rng.random() < 0.3 if mode is None else mode == "faulted"
        if closed or "workload" in forced:
            c.traffic = ""
        if not closed or "traffic" in forced:
            c.workload = ""
        if not faulted and "faults" not in forced:
            c.faults = ""
        vars(c).update(forced)
        c.family = TOPOLOGIES.parse(c.topology)[0]
        if not any(excluded(c) for _, excluded in EXCLUDED):
            break
    if c.faults and not c.workload and c.warmup + c.measure + c.drain < FAULTED_SPAN:
        c.measure = FAULTED_SPAN
    if c.workload:
        c.workload = WORKLOADS.example(c.workload)
        c.load = 0.0
    else:
        c.traffic = TRAFFICS.example(c.traffic)
    c.policy = POLICIES.example(c.policy)
    return c


def tier1_slice(seed=36, random_cells=100):
    """The fixed slice: names, then topologies x modes, then random cells."""
    rng = random.Random(seed)
    forced = [{axis: name} for axis, registry in NAMED for name in registry.names()]
    forced += [
        {"topology": spec, "mode": mode}
        for spec in TOPOLOGY_SPECS
        for mode in ("open", "closed", "faulted")
    ]
    forced += [{}] * random_cells
    return [draw(rng, **axes) for axes in forced]


SLICE = tier1_slice()


def recipe_id(c):
    parts = (c.topology, c.policy, c.traffic or c.workload, c.faults, c.observe)
    return "|".join(p.split(":")[0] for p in parts if p)


def trace_spec(topo_spec, directory):
    """A small DAG replay on ``topo_spec``'s terminal routers.

    A fan-out, a fan-in on all of it, then a chain: multi-packet
    messages, several completing (and several released) in one cycle.
    """
    topo, _ = tables_for(topo_spec)
    t = [int(r) for r in np.flatnonzero(topo.concentration)[:6]]
    records = [
        {"id": f"out{i}", "src": t[0], "dst": t[i], "size": 4 * i}
        for i in range(1, 6)
    ]
    records += [
        {"id": f"in{i}", "src": t[i], "dst": t[0], "size": 9,
         "deps": [f"out{j}" for j in range(1, 6)]}
        for i in range(1, 6)
    ]
    records += [
        {"id": "a", "src": t[1], "dst": t[2], "size": 1, "deps": ["in1", "in5"]},
        {"id": "b", "src": t[2], "dst": t[3], "size": 17, "deps": ["a"]},
    ]
    path = directory / f"{topo_spec.replace(':', '_').replace(',', '_')}.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return f"trace:path={path}"


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


def cell_of(c, trace_dir):
    """The sweep cell record of recipe ``c``.

    A fault generator named without fields gets its example timeline
    scaled onto the run: open loop its windows, closed loop the cycles
    the cell takes without faults.
    """
    workload = c.workload
    if workload == "trace":
        workload = trace_spec(c.topology, trace_dir)

    def record(faults):
        spec = ExperimentSpec(
            combos=(Combo(c.topology, c.policy, c.traffic, workload=workload,
                          faults=faults),),
            loads=(c.load,), warmup=c.warmup, measure=c.measure, drain=c.drain,
            root_seed=c.root_seed, vc_depth=c.vc_depth, packet_size=c.packet_size,
            max_cycles=c.max_cycles, window=WINDOW if c.observe == "windows" else 0,
        )
        return spec.cell(spec.combos[0], c.load)

    faults = c.faults
    if faults and ":" not in faults:
        span = c.warmup + c.measure + c.drain
        if workload:
            span = cell_sim(record("")).run_workload(max_cycles=c.max_cycles).cycles
        faults = scaled_fault(faults, c.topology, span)
    return record(faults)


def check(c, trace_dir):
    return three_ways(cell_of(c, trace_dir), links=c.observe == "links")


@pytest.mark.parametrize(
    "c",
    [pytest.param(c, id=f"{k}-{recipe_id(c)}")
     for k, c in enumerate(SLICE + NAN_CELLS + [TIED])],
)
def test_cells_agree_three_ways(c, trace_dir):
    fault = check(c, trace_dir)["spans"].sim._fault
    if fault is not None and not c.workload:
        assert fault.applied_events == len(fault.epochs) - 1  # all inside the run


def test_counters_attached_before_warmup_count_the_measure_window_only(trace_dir):
    """The counter runs through every phase; the observers' windows,
    those handed to ``simulate_point`` included, stay the measure window
    on every path."""
    cell = cell_of(ATTACHED, trace_dir)
    plain = three_ways(cell, links=True)
    early = three_ways(cell, links=True, attached=True)
    seen = plain["spans"].seen
    measured = sum(flits for _, flits in seen["links"])
    for name, *path in PATHS:
        np.testing.assert_equal(early[name].seen, seen, err_msg=name)
        # Attached at the start of the measure window, the counters see
        # the drain too; attached first, the warmup as well.
        totals = early[name].sim.link_flits().sum(), plain[name].sim.link_flits().sum()
        assert totals[0] > totals[1] > measured > 0, name
        sim = path_sim(cell, *path)
        links, windows = LinkCounts(), WindowCloser(cell["window"])
        with mock.patch.object(runner, "make_simulator", lambda *a, **kw: sim):
            res = simulate_point(
                sim.topo, sim.policy, None, cell["load"], config=sim.config,
                warmup=cell["warmup"], measure=cell["measure"], drain=cell["drain"],
                observers=[links, windows],
            )
        assert_same_result(res, plain[name].result, name)
        assert list(links.counts.items()) == seen["links"], name
        np.testing.assert_equal(windows.series.summary(), seen["windows"], err_msg=name)


@pytest.mark.parametrize("c", FIRING, ids=recipe_id)
def test_fault_timelines_fire_whole_inside_spans(c, trace_dir):
    fault = check(c, trace_dir)["spans"].sim._fault
    assert fault.applied_events == len(fault.epochs) - 1 >= 2
    assert fault.dropped_flits > 0
    if c.faults == "routerdown":
        assert fault.blackholed_packets > 0


def test_hotspot_spans_agree_with_the_reference_engine(trace_dir):
    runs = check(HOTSPOT, trace_dir)
    sim, ref = runs["spans"].sim, runs["reference"].sim
    assert sim.span_cycles == sim.now and sim._fault.blackholed_packets > 0
    # The hot router takes the most traffic: its links in carry the most.
    into = np.zeros(sim.topo.num_routers, dtype=np.int64)
    np.add.at(into, sim.topo.graph.indices, sim.link_flits())
    assert into.argmax() == sim.traffic.hotspot
    np.testing.assert_array_equal(sim.link_flits(), ref.link_flits())


@pytest.mark.parametrize("c", SPARSE, ids=recipe_id)
def test_sparse_regime_agrees_three_ways(c, trace_dir):
    sim = check(c, trace_dir)["spans"].sim
    # drain=0 leaves the run's last cycle in place: the cell sits in the
    # regime it is named for.
    assert 0 < np.count_nonzero(sim.backlog) < 0.1 * sim.backlog.size
    if c.faults:
        assert sim._fault.applied_events == len(sim._fault.epochs) - 1 >= 2


@pytest.mark.parametrize("c", COMPLETING, ids=recipe_id)
def test_every_workload_completes_three_ways(c, trace_dir):
    assert check(c, trace_dir)["spans"].result.finished


def test_slice_draws_every_registered_name():
    assert {c.family for c in SLICE} == set(TOPOLOGIES.names())
    for axis, registry in NAMED:
        drawn = {registry.parse(getattr(c, axis))[0] for c in SLICE if getattr(c, axis)}
        assert drawn == set(registry.names()), axis
    for c in SLICE:
        assert not any(excluded(c) for _, excluded in EXCLUDED), recipe_id(c)
    for axis, values in (
        ("load", LOADS), ("packet_size", PACKET_SIZES), ("vc_depth", VC_DEPTHS),
        ("warmup", WARMUPS), ("measure", MEASURES), ("drain", DRAINS),
        ("max_cycles", MAX_CYCLES), ("observe", OBSERVERS),
    ):
        assert {getattr(c, axis) for c in SLICE} == set(values), axis
    # Every topology open loop, closed loop and faulted.
    modes = {(c.topology, bool(c.workload), bool(c.faults)) for c in SLICE}
    for spec in TOPOLOGY_SPECS:
        assert {(spec, False, False), (spec, True, False)} <= modes, spec
        assert (spec, False, True) in modes or (spec, True, True) in modes, spec


@pytest.mark.parametrize("mode", ["open", "closed", "faulted"])
def test_run_cell_replays_a_printed_record(mode, trace_dir):
    c = next(
        c for c in SLICE
        if (bool(c.workload), bool(c.faults)) == {
            "open": (False, False), "closed": (True, False), "faulted": (False, True),
        }[mode]
    )
    cell = cell_of(c, trace_dir)
    spans = three_ways(cell, links=False)["spans"]
    res = spans.result
    samples = res.packet_latencies if cell.get("workload") else res.latencies
    expect = dict(
        cycles=res.cycles, injected_flits=res.injected_flits,
        ejected_flits=res.ejected_flits, avg_hops=res.avg_hops,
        num_packets=len(samples),
    )
    if cell.get("workload"):
        expect.update(res.summary())
    else:
        expect.update(
            accepted_load=res.accepted_load, avg_latency=res.avg_latency,
            p99_latency=res.p99_latency,
        )
    if cell.get("faults"):
        expect.update(spans.sim.fault_result.summary())
    if cell.get("window"):
        expect["timeseries"] = spans.seen["windows"]
    stats = run_cell(json.loads(json.dumps(cell)))  # the record as printed
    np.testing.assert_equal({k: stats[k] for k in expect}, expect)


#: PolarFly q=5 with one endpoint per router: router 0 streams message 0
#: to router 1, and sends message 2 once message 1 (router 5 to 6)
#: completes
RT_TOPO = "polarfly:conc=1,q=5"
RT_MESSAGES = ((0, 1, 12), (5, 6, 1), (0, 2, 1, (1,)))


def log_injections(sim):
    """Wrap ``sim``'s closed-loop injection step.

    The returned list gains one ``(cycle, retransmitted, new, fresh)``
    entry per step: the message ids popped off the retransmit and ready
    queues, and the messages of the packets endpoint 0's source FIFO
    gained, front to back.
    """
    log, popped = [], {}

    def keep(name, pop):
        def popper(*args):
            out = pop(*args)
            popped[name] = out.tolist()
            return out
        return popper

    inject, wl, ft = sim._inject_workload, sim._wl, sim._fault
    wl.pop_ready = keep("new", wl.pop_ready)
    if ft is not None:
        ft.pop_retransmits = keep("rt", ft.pop_retransmits)

    def step():
        popped.clear()
        inject()
        log.append(
            (sim.now, popped.get("rt", []), popped["new"], fresh_packets(sim, 0))
        )

    sim._inject_workload = step
    return log


def fresh_packets(sim, e):
    """Messages of the packets created this cycle in endpoint ``e``'s
    source FIFO, front to back."""
    return [mid for mid, created in queued_packets(sim, e) if created == sim.now]


def queued_packets(sim, e):
    """``(message, creation cycle)`` of each packet with an unfed flit in
    endpoint ``e``'s source FIFO, front to back."""
    if isinstance(sim, NetworkSimulator):
        r = int(sim.topo.endpoint_routers[e])
        fifo = sim.src_q[r][e - int(sim.topo.endpoint_offsets[r])]
        packets = dict.fromkeys(p for p, *_ in fifo)  # ordered, one per packet
        return [(p.mid, p.t_created) for p in packets]
    # The FIFO chains packet slots.
    out, p = [], int(sim.src_head[e])
    while p >= 0:
        out.append((int(sim.pkt_msg[p]), int(sim.pkt_t_created[p])))
        p = int(sim.pkt_next[p])
    return out


def log_fifo(sim, e=0):
    """Wrap ``sim.step``: the returned list gains endpoint ``e``'s queued
    packets after every cycle."""
    log, step = [], sim.step

    def logged():
        step()
        log.append(queued_packets(sim, e))

    sim.step = logged
    return log


def test_retransmits_enter_their_fifo_ahead_of_new_messages():
    """A lost packet and a newly ready message meet in one injection step.

    The link carrying message 0 dies on the cycle message 2 turns ready,
    so that epoch's drops queue message 0's lost packets for the very
    step that injects message 2, on the same source router.  On the
    numpy and reference paths the retransmits must enter the endpoint's
    FIFO first; the spans, which pop both queues in C, must leave that
    FIFO as they do after every cycle, and the runs must agree.
    """
    topo, _ = tables_for(RT_TOPO)
    graph = topo.graph
    via = next(int(m) for m in graph.neighbors(0) if 1 in graph.neighbors(m))
    workload = Workload("rt-order", [Message(*m) for m in RT_MESSAGES], topo)
    probe = build(
        RT_TOPO, "min", None, 0.0, packet_size=1, engine=NetworkSimulator,
        workload=workload,
    )
    log = log_injections(probe)
    run_workload_by_steps(probe)
    ready = next(now for now, _, new, _ in log if 2 in new)
    faults = FaultTimeline([FaultEvent(ready, "link_down", 0, via)], name="cut")
    runs, fifos = {}, {}
    for name, engine, path in PATHS:
        with path():
            sim = build(
                RT_TOPO, "min", None, 0.0, packet_size=1, engine=engine,
                workload=workload, faults=faults,
            )
        fifos[name] = log_fifo(sim)
        if name != "spans":
            log = log_injections(sim)
        runs[name] = run_workload_by_steps(sim)
        assert runs[name].finished, name
        assert sim._fault.retransmitted_packets > 0, name
        if name == "spans":
            assert sim.span_cycles == sim.now
            continue
        ((now, rt, new, fresh),) = [entry for entry in log if entry[1] and entry[2]]
        assert (now, new) == (ready, [2]) and set(rt) == {0}, name
        assert fresh == rt + new, name
    first, queued = runs.pop("spans"), fifos.pop("spans")
    # After the collision cycle the retransmits still queue ahead of
    # message 2 (the feed took the FIFO's head).
    assert [m for m, c in queued[ready] if c == ready][-1] == 2
    assert 0 in [m for m, c in queued[ready] if c == ready]
    for name, result in runs.items():
        assert_same_result(first, result, name)
        assert fifos[name] == queued, name


LONG = "differential-long"


@pytest.mark.skipif(
    settings.get_current_profile_name() != LONG,
    reason=f"the long slice: --hypothesis-profile={LONG}",
)
@given(rng=st.randoms(use_true_random=False))
def test_drawn_cells_agree_three_ways(rng, trace_dir):
    check(draw(rng), trace_dir)
