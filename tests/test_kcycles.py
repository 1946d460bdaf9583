"""``kcycles``: whole spans of open-loop cycles in C.

``FlatSimulator.advance`` may hand a span of cycles to one C call; the
per-cycle ``step()`` path defines what that call must leave behind.  The
contract checked here, per cell: ``sim.run()`` (spans), a hand-written
``step()`` loop and the reference engine give equal ``SimResult``\\ s, an
equal ``rng.bit_generator.state`` — and, between the two flat runs,
equal state arrays, so a span can be followed by steps (or another span)
as if it had been steps all along.  ``span_cycles`` says which way a run
went: a silent decline costs 2x and no equivalence test would notice.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.flitsim import _kernel as kmod
from repro.flitsim._kernel import load_kernel
from repro.flitsim.flatcore import _POOL_CAP
from repro.flitsim.traffic import TornadoTraffic, UniformTraffic
from repro.routing.policies import MinimalRouting
from repro.routing.tables import RoutingTables

pytestmark = pytest.mark.skipif(
    load_kernel() is None or not load_kernel().select_ok,
    reason="C kernel (or its draw self-test) unavailable",
)

#: the Table V small set and the policies the benchmark simulates on each
TABLE_V = [
    ("polarfly:conc=2,q=7", ("min", "ugal", "ugal-pf")),
    ("slimfly:conc=2,q=5", ("min", "ugal")),
    ("dragonfly:a=4,h=2,p=2", ("min", "ugal")),
    ("dragonfly:a=3,h=6,p=2", ("min", "ugal")),
    ("jellyfish:n=57,p=2,r=8,seed=7", ("min", "ugal")),
    ("fattree:k=4,n=3", ("ftnca",)),
]
COMBOS = [(topo, policy) for topo, policies in TABLE_V for policy in policies]
PF_SPEC = TABLE_V[0][0]

_memo: dict = {}


def tables_for(spec):
    if spec not in _memo:
        topo = TOPOLOGIES.create(spec)
        _memo[spec] = (topo, RoutingTables(topo))
    return _memo[spec]


def build(
    topo_spec, policy_spec, traffic_spec, load, packet_size=4, seed=3,
    engine=FlatSimulator, **sim_kwargs,
):
    topo, tables = tables_for(topo_spec)
    policy = POLICIES.create(policy_spec, tables)
    traffic = TRAFFICS.create(traffic_spec, topo) if traffic_spec else None
    config = auto_sim_config(policy, packet_size=packet_size)
    return engine(topo, policy, traffic, load, config=config, seed=seed, **sim_kwargs)


def run_by_steps(sim, warmup, measure, drain):
    """``SimulatorCore.run`` spelled out cycle by cycle."""
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


def assert_same_result(a, b, what=""):
    assert a.cycles == b.cycles, what
    assert a.injected_flits == b.injected_flits, what
    assert a.ejected_flits == b.ejected_flits, what
    assert np.array_equal(a.latencies, b.latencies), what
    assert np.array_equal(a.hop_counts, b.hop_counts), what


#: arrays every entry of which is protocol state (or deterministically dead)
WHOLE = (
    "credits", "ep_credit", "voq_head", "voq_tail", "voq_count", "backlog",
    "rr", "src_head", "src_tail", "pkt_dst", "pkt_msg", "pkt_measured",
    "route_buf", "_free_top", "_pslot_top",
)


def assert_same_state(a, b, what=""):
    """Equal simulator state, array by array.

    The pool and packet-table columns start as ``np.empty`` memory, so
    they are compared on the live rows (those not on the free stacks),
    and the stacks on their live prefix.
    """
    assert (a.now, a.packets_injected) == (b.now, b.packets_injected), what
    assert a.rng.bit_generator.state == b.rng.bit_generator.state, what
    assert (a.pool_cap, a.pkt_cap) == (b.pool_cap, b.pkt_cap), what
    for name in WHOLE:
        assert np.array_equal(getattr(a, name), getattr(b, name)), (what, name)
    free, slots = a.free_top, int(a._pslot_top[0])
    assert np.array_equal(a.free_stack[:free], b.free_stack[:free]), what
    assert np.array_equal(a._pslot_stack[:slots], b._pslot_stack[:slots]), what
    live = np.ones(a.pool_cap, dtype=bool)
    live[a.free_stack[:free]] = False
    for name in ("pool_pid", "pool_seq", "pool_hop", "pool_ready", "pool_next"):
        assert np.array_equal(getattr(a, name)[live], getattr(b, name)[live]), (
            what, name,
        )
    live = np.ones(a.pkt_cap, dtype=bool)
    live[a._pslot_stack[:slots]] = False
    for name in ("pkt_t_created", "pkt_len"):
        assert np.array_equal(getattr(a, name)[live], getattr(b, name)[live]), (
            what, name,
        )


def three_ways(topo_spec, policy_spec, traffic_spec, load, packet_size, seed, windows):
    """Spans, steps and the reference engine on one cell; the span simulator."""
    args = (topo_spec, policy_spec, traffic_spec, load, packet_size, seed)
    what = f"{args} {windows}"
    spans, steps = build(*args), build(*args)
    ref = build(*args, engine=NetworkSimulator)
    got = spans.run(*windows)
    assert spans.span_cycles == sum(windows), what
    assert_same_result(got, run_by_steps(steps, *windows), what)
    assert steps.span_cycles == 0
    assert_same_state(spans, steps, what)
    assert_same_result(got, ref.run(*windows), what)
    assert spans.rng.bit_generator.state == ref.rng.bit_generator.state, what
    return spans


# ----------------------------------------------------------------------
# (a) every Table V cell shape: spans == steps == reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topo_spec,policy_spec", COMBOS)
def test_spans_match_steps_and_reference(topo_spec, policy_spec):
    injected = 0
    for traffic_spec in ("uniform", "tornado", "randperm"):
        for load in (0.0, 0.5, 1.0):
            for packet_size in (1, 4):
                sim = three_ways(
                    topo_spec, policy_spec, traffic_spec, load, packet_size,
                    seed=3, windows=(20, 50, 30),
                )
                assert (sim.packets_injected > 0) == (load > 0)
                injected += sim.packets_injected
    assert injected > 1000


def test_saturation_forces_grow_and_flush_returns_mid_span():
    args = (PF_SPEC, "min", "tornado", 1.0)
    spans, steps = build(*args), build(*args)
    for sim in (spans, steps):
        sim.attach_link_telemetry(windowed=True)
    returns = {"grow": 0, "grow_measuring": 0, "flush": 0}
    reserve, flush = spans._reserve_cycle, spans._kspan._flush

    def counted_reserve():
        returns["grow"] += 1
        returns["grow_measuring"] += spans._measuring
        reserve()

    def counted_flush(sim):
        returns["flush"] += bool(spans._kspan._out.samples)
        flush(sim)

    spans._reserve_cycle = counted_reserve
    spans._kspan._flush = counted_flush
    windows = (100, 500, 100)
    got = spans.run(*windows)
    assert spans.span_cycles == sum(windows)
    # Source FIFOs back up without bound: the pool outgrows its first
    # allocation, and the measure window yields more samples than the
    # O(E) buffers hold, so kcycles came back for both, repeatedly.
    assert spans.pool_cap > _POOL_CAP and returns["grow"] >= 1
    assert len(got.latencies) > spans._kspan._samples.shape[1]
    assert returns["flush"] > 3  # one per window end plus the forced ones
    assert_same_result(got, run_by_steps(steps, *windows))
    assert_same_state(spans, steps)
    # Growing rebinds the kernel state mid-window; the link counters must
    # come back with it and keep counting to the end of the span.
    assert returns["grow_measuring"] >= 1
    assert spans.link_flit_counts() == steps.link_flit_counts()
    assert spans.flush_window_link_counts() == steps.flush_window_link_counts()


def test_spans_and_steps_interleave():
    args = (PF_SPEC, "ugal-pf", "uniform", 0.8)
    mixed, steps = build(*args), build(*args)
    mixed._measuring = steps._measuring = True
    for chunk in (1, 40, 3, 0, 75):
        mixed.advance(chunk)
        mixed.step()
    assert mixed.span_cycles == 119
    for _ in range(mixed.now):
        steps.step()
    assert_same_result(mixed._stat.finalize(), steps._stat.finalize())
    assert_same_state(mixed, steps)


def test_link_telemetry_counts_inside_spans():
    args = (PF_SPEC, "min", "uniform", 0.6)
    spans, steps = build(*args), build(*args)
    for sim in (spans, steps):
        sim.attach_link_telemetry(windowed=True)
    spans.run(40, 80, 40)
    run_by_steps(steps, 40, 80, 40)
    assert spans.span_cycles == 160
    assert spans.link_flit_counts() == steps.link_flit_counts()
    assert spans.link_flit_counts()
    assert spans.flush_window_link_counts() == steps.flush_window_link_counts()


# ----------------------------------------------------------------------
# (b) what keeps a simulator on the per-cycle path
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
    assert sim.span_cycles == 0
    assert_same_result(got, want)
    assert_same_state(sim, twin)
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
    assert sim.span_cycles == WINDOWS[0] and calls
    assert_same_result(sim._stat.finalize(), want)
    assert_same_state(sim, twin)


@pytest.mark.parametrize(
    "policy_of,traffic_of",
    [
        (TweakedMinimal, UniformTraffic),
        (MinimalRouting, TweakedUniform),
        (MinimalRouting, ReversedTornado),
    ],
)
def test_subclasses_decline(policy_of, traffic_of):
    topo, tables = tables_for(PF_SPEC)
    stock_traffic = "tornado" if traffic_of is ReversedTornado else "uniform"
    _, want = eligible_twin_result(traffic_spec=stock_traffic)
    policy = policy_of(tables)
    sim = FlatSimulator(
        topo, policy, traffic_of(topo), 0.5, config=auto_sim_config(policy), seed=3
    )
    got = sim.run(*WINDOWS)
    assert sim.span_cycles == 0
    assert_same_result(got, want)


def test_permutation_subclass_with_stock_dest_routers_qualifies():
    sim = build(PF_SPEC, "min", "perm2hop:seed=1", 0.5)
    steps = build(PF_SPEC, "min", "perm2hop:seed=1", 0.5)
    assert_same_result(sim.run(*WINDOWS), run_by_steps(steps, *WINDOWS))
    assert sim.span_cycles == sum(WINDOWS)
    assert_same_state(sim, steps)


@pytest.mark.parametrize("traffic_spec", ["hotspot:fraction=0.2", "bitcomp"])
def test_other_traffic_families(traffic_spec):
    sim = build(PF_SPEC, "ugal", traffic_spec, 0.5)
    steps = build(PF_SPEC, "ugal", traffic_spec, 0.5)
    assert_same_result(sim.run(*WINDOWS), run_by_steps(steps, *WINDOWS))
    # Hotspot draws its own stream; bit-complement is a stock permutation.
    assert sim.span_cycles == (0 if traffic_spec.startswith("hotspot") else sum(WINDOWS))


def test_ugal_g_fault_timeline_and_workload_decline():
    topo, tables = tables_for(PF_SPEC)
    # ugal-g: no compiled selector, so no span either.
    sim, steps = (build(PF_SPEC, "ugal-g", "uniform", 0.5) for _ in range(2))
    assert_same_result(sim.run(*WINDOWS), run_by_steps(steps, *WINDOWS))
    assert sim._kselect is None and sim.span_cycles == 0

    def faulted(engine):
        timeline = FAULTS.create("linkflap:count=2,cycle=40,duration=30,seed=1", topo)
        policy = POLICIES.create("min", tables)
        prepare_fault_policy(policy, timeline, topo)
        return engine(
            topo, policy, TRAFFICS.create("uniform", topo), 0.5,
            config=auto_sim_config(policy), seed=3, faults=timeline,
        )

    sim, ref = faulted(FlatSimulator), faulted(NetworkSimulator)
    assert_same_result(sim.run(*WINDOWS), ref.run(*WINDOWS))
    assert sim._kspan is None and sim.span_cycles == 0
    assert sim.fault_result.summary() == ref.fault_result.summary()

    workload = WORKLOADS.create("alltoall:size=8", topo)
    sim = build(PF_SPEC, "min", None, 0.0, workload=workload)
    ref = build(PF_SPEC, "min", None, 0.0, workload=workload, engine=NetworkSimulator)
    assert sim.run_workload().summary() == ref.run_workload().summary()
    assert sim._kspan is None and sim.span_cycles == 0


def test_failed_draw_self_test_keeps_the_per_cycle_path(monkeypatch):
    _, want = eligible_twin_result()
    monkeypatch.setattr(load_kernel(), "select_ok", False)
    sim = build(PF_SPEC, "min", "uniform", 0.5)
    assert sim._kernel is not None and sim._kselect is None and sim._kspan is None
    got = sim.run(*WINDOWS)
    assert sim.span_cycles == 0
    assert_same_result(got, want)


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


def test_overlong_route_raises_like_the_per_cycle_path():
    topo, tables = tables_for(PF_SPEC)

    def understated():
        policy = MinimalRouting(tables)
        policy.max_hops = 1  # the slot stride is 2 routers; routes need 3
        return FlatSimulator(
            topo, policy, TRAFFICS.create("tornado", topo), 1.0,
            config=auto_sim_config(policy), seed=3,
        )

    spans, steps = understated(), understated()
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


# ----------------------------------------------------------------------
# (c) generated cells
# ----------------------------------------------------------------------
@given(
    combo=st.sampled_from(COMBOS),
    traffic_spec=st.sampled_from(
        ["uniform", "tornado", "randperm:seed=2", "bitcomp", "shift:offset=3"]
    ),
    load=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    packet_size=st.integers(min_value=1, max_value=5),
    windows=st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=40),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_generated_cells_agree_three_ways(
    combo, traffic_spec, load, packet_size, windows, seed
):
    three_ways(*combo, traffic_spec, load, packet_size, seed, windows)
