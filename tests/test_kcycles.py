"""``kcycles``: the edges of whole spans of cycles in C.

``FlatSimulator.advance`` hands every stretch of cycles to one C call,
and ``step()`` is a one-cycle span; the numpy path and the reference
engine define what that call must leave behind.
``tests/test_differential.py`` checks that contract on registry-drawn
cells; this file keeps the edges a drawn cell rarely reaches: arbitration
masks past one word, packet-table and sample-column grows inside a span,
long spans against one-cycle ones, fault epochs on window edges, what
switches a simulator to the numpy path (a silent switch costs 2-3x and
no equivalence check notices), the draw self-test and an overlong route.
"""

import numpy as np
import pytest

from repro.experiments import Combo, ExperimentSpec
from repro.experiments.registry import TRAFFICS, WORKLOADS
from repro.experiments.runner import auto_sim_config
from repro.faults import FaultEvent, FaultTimeline
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim import _kernel as kmod
from repro.flitsim._kernel import load_kernel
from repro.flitsim.engine import RunObserver
from repro.flitsim.flatcore import _PKT_CAP, _POOL_CAP
from repro.flitsim.telemetry import WindowCloser
from repro.flitsim.traffic import PermutationTraffic, TornadoTraffic, UniformTraffic
from repro.routing.policies import MinimalRouting

from oracles import (
    assert_same_result,
    assert_same_state,
    buffer_capacity,
    build,
    run_by_steps,
    run_workload_by_steps,
    tables_for,
    three_ways,
)

pytestmark = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)

PF_SPEC = "polarfly:conc=2,q=7"
HALO, ALLREDUCE = "halo:iters=2,size=16", "allreduce:algo=ring,size=64"


# ----------------------------------------------------------------------
# (a) what a drawn cell rarely reaches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("conc", [55, 56, 57])
def test_input_masks_up_to_and_past_one_word(conc):
    """I = 63 / 64 / 65 input ports: ``row_mask`` rows of one word, one
    full word, and two words with a single bit in the second.

    Saturated tornado keeps every injection VOQ of a link row busy, so
    the round-robin pointers travel the whole port range — across the
    word boundary and around the partial last word.
    """
    spec = ExperimentSpec(
        combos=(Combo(f"polarfly:conc={conc},q=7", "ugal-pf", "tornado"),),
        loads=(0.9,), warmup=20, measure=150, drain=30, root_seed=3,
    )
    sim = three_ways(spec.cells()[0])["spans"].sim
    fab = sim.fab
    assert fab.I == conc + 8
    assert sim.row_mask.shape == (fab.n * fab.O, 2 if conc == 57 else 1)
    # Pointers rest at both ends of the port range: a walk from the top
    # starts in the last word and wraps into the first.
    assert sim.rr.max() >= fab.I - 3 and (sim.rr < 8).any()


def home_or_tornado(topo):
    """Every other terminal keeps its traffic at home, the rest swap
    halfway round among themselves: a stock permutation with fixed
    points, which spans.  The local packets enter the ejection row from
    the injection inputs, the only way that row sees an input past the
    link ports."""
    t = np.flatnonzero(topo.concentration > 0)
    mapping = t.copy()
    away = np.arange(1, t.size, 2)
    mapping[away] = t[np.roll(away, away.size // 2)]
    return PermutationTraffic(topo, mapping)


class WatchRows(RunObserver):
    """Samples ``rows`` (an array view) after every measured cycle."""

    def __init__(self, rows):
        self.rows, self.seen = rows, set()

    def start(self, sim, start):
        self.wake_at = start + 1

    def wake(self, sim):
        self.seen.update(np.asarray(self.rows).tolist())
        self.wake_at += 1


def test_ejection_grants_walk_across_the_word_boundary():
    """``limit = conc`` grants per walk, over both words of a 65-port row.

    At half load a random subset of the 57 injection queues holds flits
    each cycle, so the ejection pointers come to rest anywhere.
    """
    spec = "polarfly:conc=57,q=7"
    topo, _ = tables_for(spec)
    args = (spec, "ugal-pf", None, 0.5)
    kernel = build(*args)
    with kmod.numpy_fallback():
        numpy_path = build(*args)
    ref = build(*args, engine=NetworkSimulator)
    sims = (kernel, numpy_path, ref)
    fab = kernel.fab
    for sim in sims:
        sim.traffic = home_or_tornado(topo)
    watch = WatchRows(kernel.rr[fab.OE :: fab.O])
    results = [
        sim.run(10, 60, 30, observers=[watch] if sim is kernel else [])
        for sim in sims
    ]
    assert kernel._kernel is not None and numpy_path._kernel is None
    assert kernel.span_cycles == kernel.now
    for other, result in zip(sims[1:], results[1:]):
        assert_same_result(results[0], result)
        assert kernel.rng.bit_generator.state == other.rng.bit_generator.state
    assert_same_state(kernel, numpy_path, rows=False)
    assert (results[0].hop_counts == 0).sum() > 1000
    # Ejection pointers rested all over the injection inputs, bit 64 too:
    # walks of up to 57 grants that start in either word and wrap.
    assert {63, 64} < watch.seen and len(watch.seen) > 32


#: an 8-byte record where SimState.pool holds 16-byte Flit records
_SHORT_FLIT = np.dtype([("next", np.int32), ("pid", np.int32)])


#: (struct, owner's attribute, C field, relaid buffer, test id)
RELAID = [
    ("SimState", "_voq", "voq", lambda a: a.astype(np.int64), "_voq-<lambda>0"),
    ("SimState", "_voq", "voq", lambda a: a[::2], "_voq-<lambda>1"),
    (
        "SimState", "row_mask", "row_mask", lambda a: a.astype(np.int64),
        "row_mask-<lambda>0",
    ),
    (
        "SimState", "row_mask", "row_mask",
        lambda a: np.asfortranarray(np.tile(a, 2)), "row_mask-<lambda>1",
    ),
    # a _Bool field (numpy bool) given int64
    (
        "SimState", "pkt_measured", "pkt_measured", lambda a: a.astype(np.int64),
        "pkt_measured-int64",
    ),
    (
        "SimState", "_pool", "pool", lambda a: np.zeros(a.size, _SHORT_FLIT),
        "pool-8-byte-record",
    ),
    ("Selector", "_work", "work", lambda a: a.astype(np.int64), "work-int64"),
    ("Injector", "_scratch", "lat", lambda a: a[0].astype(float), "lat-float64"),
    ("Injector", "_scratch", "winners", lambda a: a[:, ::2][0], "winners-strided"),
]


@pytest.mark.parametrize(
    "struct,attr,field,relaid",
    [pytest.param(*row[:4], id=row[4]) for row in RELAID],
)
def test_bind_refuses_a_relaid_voq_record_or_mask_buffer(struct, attr, field, relaid):
    """Every binder refuses a buffer C would misread, naming the field."""
    sim = build("polarfly:conc=57,q=7", "min", "uniform", 0.5)
    owner = {"SimState": sim, "Selector": sim._kselect, "Injector": sim._kspan}[struct]
    bad = relaid(getattr(owner, attr))
    match = rf"^{struct}\.{field}: kernel buffer must be C-contiguous"
    with pytest.raises(TypeError, match=match):
        if owner is sim:
            setattr(sim, attr, bad)
            sim._bind_kernel_state()
        else:
            owner._bind(**{field: bad})


def test_saturation_forces_grow_returns_mid_span():
    args = (PF_SPEC, "min", "tornado", 1.0)
    spans, steps = build(*args), build(*args)
    for sim in (spans, steps):
        sim.attach_link_telemetry()
    returns = {"grow": 0, "grow_measuring": 0}
    sample_room = set()
    reserve = spans._reserve

    def counted_reserve(packets=0):
        returns["grow"] += 1
        returns["grow_measuring"] += spans._measuring
        sample_room.add(spans._lat.buf.size)
        reserve(packets)

    spans._reserve = counted_reserve
    windows = (100, 500, 100)
    got = spans.run(*windows)
    assert spans.span_cycles == sum(windows)
    # Source FIFOs back up without bound: the packet table outgrows its
    # first allocation, and the measure window yields more samples than
    # the first sample room holds, so kcycles came back for both,
    # repeatedly.  The flit pool holds buffered flits only.
    assert spans.pkt_cap > _PKT_CAP and returns["grow"] > 3
    assert len(sample_room) > 2 and len(got.latencies) > min(sample_room)
    assert spans.pool_cap <= max(_POOL_CAP, 2 * (buffer_capacity(spans) + spans.fab.E))
    assert_same_result(got, run_by_steps(steps, *windows))
    assert_same_state(spans, steps)
    # A grow mid-window re-points its own pool only; the link counters
    # stay bound and keep counting to the end of the span.
    assert returns["grow_measuring"] >= 1
    np.testing.assert_array_equal(spans.link_flits(), steps.link_flits())


def test_spans_and_steps_interleave():
    args = (PF_SPEC, "ugal-pf", "uniform", 0.8)
    mixed, steps = build(*args), build(*args)
    mixed._measuring = steps._measuring = True
    for chunk in (1, 40, 3, 0, 75):
        mixed.advance(chunk)
        mixed.step()
    # step() is a one-cycle span.
    assert mixed.span_cycles == mixed.now == 124
    for _ in range(mixed.now):
        steps.step()
    assert_same_result(mixed._stat.finalize(), steps._stat.finalize())
    assert_same_state(mixed, steps)


def test_closed_loop_spans_and_steps_interleave():
    mixed, steps = (
        build(PF_SPEC, "ugal-pf", None, 0.0, workload=HALO)
        for _ in range(2)
    )
    mixed._measuring = steps._measuring = True
    for chunk in (1, 40, 3, 0, 30, 500):
        mixed.advance(chunk)
        if not mixed._wl.done:
            mixed.step()
    # The last chunk outlasts the workload: advance stops with it.
    assert mixed._wl.done and mixed.now < 500
    assert mixed.span_cycles == mixed.now
    for _ in range(mixed.now):
        steps.step()
    assert_same_result(mixed._stat.finalize(), steps._stat.finalize())
    assert_same_state(mixed, steps)


# ----------------------------------------------------------------------
# (b) what switches a simulator to the numpy path, for good
# ----------------------------------------------------------------------
class TweakedMinimal(MinimalRouting):
    """A subclass may override any step; it must never reach kcycles."""


class TweakedUniform(UniformTraffic):
    pass


class ReversedTornado(TornadoTraffic):
    """A permutation class with its own ``dest_routers``."""

    def dest_routers(self, src_routers, rng):
        return super().dest_routers(src_routers, rng)


WINDOWS = (30, 60, 30)


def eligible_twin_result(policy_spec="min", traffic_spec="uniform"):
    sim = build(PF_SPEC, policy_spec, traffic_spec, 0.5)
    res = sim.run(*WINDOWS)
    assert sim.span_cycles == sum(WINDOWS)
    return sim, res


def spy_on(obj, method):
    """Bind a call-counting pass-through on the *instance*."""
    inner, calls = getattr(obj, method), []

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return inner(*args, **kwargs)

    setattr(obj, method, spy)
    return calls


@pytest.mark.parametrize(
    "target,method", [("policy", "select_routes"), ("traffic", "dest_routers")]
)
def test_instance_spy_sees_every_call(target, method):
    twin, want = eligible_twin_result()
    sim = build(PF_SPEC, "min", "uniform", 0.5)
    calls = spy_on(getattr(sim, target), method)
    got = sim.run(*WINDOWS)
    assert sim.span_cycles == 0 and sim._kspan is None
    assert_same_result(got, want)
    # The numpy path takes pool rows and packet slots in its own order.
    assert_same_state(sim, twin, rows=False)
    # One call per injecting cycle, one entry per packet.
    assert 0 < len(calls) <= WINDOWS[0] + WINDOWS[1]
    assert sum(calls) == sim.packets_injected


def test_spy_bound_between_windows_takes_over_from_there():
    twin, want = eligible_twin_result()
    sim = build(PF_SPEC, "min", "uniform", 0.5)
    sim.advance(WINDOWS[0])
    calls = spy_on(sim.policy, "select_routes")
    sim._measuring = True
    sim.advance(WINDOWS[1])
    sim._stat.cycles = WINDOWS[1]
    sim._measuring = False
    sim._drain(WINDOWS[2])
    assert sim.span_cycles == WINDOWS[0] and calls and sim._kspan is None
    assert_same_result(sim._stat.finalize(), want)
    assert_same_state(sim, twin, rows=False)


@pytest.mark.parametrize(
    "policy_of,traffic_of",
    [
        (TweakedMinimal, UniformTraffic),
        (MinimalRouting, TweakedUniform),
        (MinimalRouting, ReversedTornado),
    ],
)
def test_subclasses_run_the_numpy_path(policy_of, traffic_of):
    topo, tables = tables_for(PF_SPEC)
    stock_traffic = "tornado" if traffic_of is ReversedTornado else "uniform"
    twin, want = eligible_twin_result(traffic_spec=stock_traffic)
    policy = policy_of(tables)
    sim = FlatSimulator(
        topo, policy, traffic_of(topo), 0.5, config=auto_sim_config(policy), seed=3
    )
    got = sim.run(*WINDOWS)
    assert sim.span_cycles == 0 and sim._kspan is None
    assert_same_result(got, want)
    assert_same_state(sim, twin, rows=False)


def test_subclass_runs_the_numpy_path_closed_loop():
    # The closed-loop half of test_subclasses_run_the_numpy_path: no
    # compiled selector for a subclass, so no span on a workload either,
    # and the numpy run still matches the reference engine.
    topo, tables = tables_for(PF_SPEC)
    sims = []
    for engine in (FlatSimulator, NetworkSimulator):
        policy = TweakedMinimal(tables)
        sims.append(engine(
            topo, policy, None, 0.0, config=auto_sim_config(policy, packet_size=4),
            seed=3, workload=WORKLOADS.create(HALO, topo),
        ))
    flat, ref = sims
    assert_same_result(flat.run_workload(), ref.run_workload())
    assert flat._kspan is None and flat.span_cycles == 0


# ----------------------------------------------------------------------
# (b') edges of the closed-loop and faulted spans
# ----------------------------------------------------------------------
def test_epochs_on_window_edges_apply_on_the_cycle_step_applies_them():
    topo, _ = tables_for(PF_SPEC)
    warmup, measure, drain, window = 24, 64, 16, 32
    (u1, v1), (u2, v2) = (tuple(map(int, e)) for e in topo.graph.edges()[[3, 90]])
    # Cycle 0, the first measured cycle, a WindowCloser wake-up (sample
    # at +1 and every 8th after; window close at +32), the last measured
    # cycle, and one inside the drain.
    cycles = (0, warmup, warmup + 17, warmup + window, warmup + measure - 1,
              warmup + measure + 3)
    kinds = ("link_down", "link_up")
    events = [
        FaultEvent(c, kinds[i % 2], *((u1, v1) if i < 4 else (u2, v2)))
        for i, c in enumerate(cycles)
    ]

    def sim_of(engine=FlatSimulator):
        return build(
            PF_SPEC, "ugal-pf", "uniform", 0.7, engine=engine,
            faults=FaultTimeline(events, name="edges"),
        )

    spans, steps, ref = sim_of(), sim_of(), sim_of(NetworkSimulator)
    windows, ref_windows = WindowCloser(window), WindowCloser(window)
    got = spans.run(warmup, measure, drain, observers=[windows])
    want = ref.run(warmup, measure, drain, observers=[ref_windows])
    assert spans.span_cycles == spans.now == warmup + measure + drain
    assert_same_result(got, run_by_steps(steps, warmup, measure, drain))
    assert_same_result(got, want)
    assert_same_state(spans, steps)
    assert [c for c, _ in spans._fault.marks] == list(cycles)
    assert spans._fault.marks == steps._fault.marks == ref._fault.marks
    assert windows.series.summary() == ref_windows.series.summary()
    assert spans.fault_result.summary() == ref.fault_result.summary()
    assert spans._fault.dropped_flits > 0


def test_alltoall_burst_grows_scratch_and_pools_inside_a_span():
    args = (PF_SPEC, "ugal-pf", None, 0.0)
    spans, steps = (
        build(*args, workload="alltoall:size=8") for _ in range(2)
    )
    for sim in (spans, steps):
        sim.attach_link_telemetry()
    scratch_cap = spans._kselect._cap
    got = spans.run_workload()
    # Cycle 0 readies N*(N-1) messages at once: far more packets than
    # the selector scratch (sized for E) or the packet table start with,
    # so kcycles came back for room before popping.  Their flits wait in
    # the source FIFOs as packets: the flit pool does not grow for them.
    burst = int(spans._wl.msg_pkts.sum())
    assert burst > max(scratch_cap, _PKT_CAP) and burst * 4 > _POOL_CAP
    assert spans._kselect._cap >= burst and spans._kspan._inj.cap >= burst
    assert spans.pkt_cap > _PKT_CAP
    assert spans.pool_cap <= max(_POOL_CAP, 2 * (buffer_capacity(spans) + spans.fab.E))
    assert spans.span_cycles == spans.now == got.cycles
    assert_same_result(got, run_workload_by_steps(steps))
    assert_same_state(spans, steps)
    # The grows inside the span re-point their own pools only; the link
    # counters stay bound through them.
    np.testing.assert_array_equal(spans.link_flits(), steps.link_flits())
    assert spans.link_flits().sum() == got.flit_hops


def test_max_cycles_before_completion_is_unfinished_at_the_same_cycle():
    budget = 200
    sims = [
        build(PF_SPEC, "min", None, 0.0, workload=ALLREDUCE,
              engine=engine)
        for engine in (FlatSimulator, FlatSimulator, NetworkSimulator)
    ]
    got = sims[0].run_workload(max_cycles=budget)
    assert not got.finished and got.cycles == budget == sims[0].span_cycles
    assert 0 < got.completed_messages < got.num_messages
    assert_same_result(got, run_workload_by_steps(sims[1], max_cycles=budget))
    assert_same_state(sims[0], sims[1])
    assert_same_result(got, sims[2].run_workload(max_cycles=budget))


def test_advance_across_an_epoch_start_splits_there():
    # The run loop never asks for such a stretch; a direct caller gets
    # spans cut at the epoch starts, each epoch applied on its cycle.
    faults = "linkflap:count=2,cycle=40,duration=45,seed=1"
    mixed, steps = (
        build(PF_SPEC, "min", "uniform", 0.6, faults=faults) for _ in range(2)
    )
    for sim in (mixed, steps):
        sim._fault.begin_run(sim.policy)
    for chunk in (30, 30, 40):  # the link dies at 40 and revives at 85
        mixed.advance(chunk)
    assert mixed.span_cycles == mixed.now == 100
    assert [c for c, _ in mixed._fault.marks] == [40, 85]
    for _ in range(mixed.now):
        steps.step()
    assert_same_state(mixed, steps)


def test_failed_draw_self_test_runs_the_numpy_path(monkeypatch):
    twin, want = eligible_twin_result()
    monkeypatch.setattr(load_kernel(), "select_ok", False)
    sim = build(PF_SPEC, "min", "uniform", 0.5)
    assert sim._kernel is None and sim._kselect is None and sim._kspan is None
    got = sim.run(*WINDOWS)
    assert sim.span_cycles == 0
    assert_same_result(got, want)
    assert_same_state(sim, twin, rows=False)


def test_self_test_compares_doubles_and_state(monkeypatch):
    module = load_kernel()
    assert kmod._draws_match(module)
    # A C side that consumed one double too many shows in the values or,
    # at the very end, in the state.
    real = module.lib.kdoubles

    class OffByOne:
        def __getattr__(self, name):
            return getattr(module.lib, name)

        def kdoubles(self, bg, k, out):
            real(bg, k, out)
            extra = np.empty(1)
            real(bg, 1, module.ffi.from_buffer("double[]", extra))

    class Shim:
        ffi, lib = module.ffi, OffByOne()

    assert not kmod._draws_match(Shim)


def test_overlong_route_raises_like_the_numpy_path():
    topo, tables = tables_for(PF_SPEC)

    def understated():
        policy = MinimalRouting(tables)
        policy.max_hops = 1  # the slot stride is 2 routers; routes need 3
        return FlatSimulator(
            topo, policy, TRAFFICS.create("tornado", topo), 1.0,
            config=auto_sim_config(policy), seed=3,
        )

    spans = understated()
    with kmod.numpy_fallback():
        steps = understated()
    messages = []
    for sim, go in ((spans, lambda: spans.advance(50)), (steps, steps.step)):
        with pytest.raises(ValueError, match="exceeds the policy's declared") as err:
            for _ in range(50):
                go()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert spans.now == steps.now
    assert spans.rng.bit_generator.state == steps.rng.bit_generator.state
    assert int(spans._pslot_top[0]) == int(steps._pslot_top[0]) == spans.pkt_cap
