"""One run loop with observers: what watching a run may and may not change.

Every entry point is ``SimulatorCore._drive``; link counters, occupancy
sampling and window records ride it as observers.  The contract, on each
of the three cycle paths (reference engine, numpy flat path, C kernel):

* whatever is attached, the ``SimResult`` and the generator end where the
  plain ``run()`` leaves them;
* what the observers collected is equal across the three paths;
* on the kernel path every cycle still runs inside ``kcycles`` — the
  driver advances from wake-up to wake-up instead of stepping — also
  when ``measure`` is a multiple of neither ``window`` nor
  ``sample_every``;
* closed loop, a windowed run returns the plain ``run_workload()``'s
  ``WorkloadResult``;
* the lifecycle guards of ``run()`` hold on all five entry points.
"""

import contextlib

import numpy as np
import pytest

from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.experiments.runner import auto_sim_config, simulate_point
from repro.faults import prepare_fault_policy
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    run_with_telemetry,
    run_with_timeseries,
    run_workload_with_timeseries,
)
from repro.flitsim._kernel import load_kernel
from repro.flitsim.telemetry import LinkCounts, OccupancySampler, WindowCloser
from repro.routing.tables import RoutingTables

#: 150 = 2 * 64 + 22 = 18 * 8 + 6: the last window and the last sampling
#: interval are both cut short by the end of the measure phase
PHASES = dict(warmup=60, measure=150, drain=50)
FAULT_SPEC = "linkflap:count=3,cycle=30,duration=120,seed=1"

CELLS = [
    ("polarfly:conc=2,q=7", "ugal-pf", 0.5),
    ("slimfly:conc=2,q=5", "min", 0.4),
]

OBSERVER_SETS = {
    "none": (),
    "links": (LinkCounts,),
    "occupancy": (OccupancySampler,),
    "windows": (WindowCloser,),
    "all": (LinkCounts, OccupancySampler, WindowCloser),
}


@pytest.fixture(scope="module")
def paths(flat_variants):
    """(label, engine class, construction context, runs as spans)."""
    return [("reference", NetworkSimulator, contextlib.nullcontext, False)] + [
        (label, FlatSimulator, ctx, kernel and load_kernel().select_ok)
        for label, ctx, kernel in flat_variants
    ]


_memo: dict = {}


def build(engine, topo_spec, policy_spec, load=0.0, fault_spec=None, workload_spec=None):
    if topo_spec not in _memo:
        topo = TOPOLOGIES.create(topo_spec)
        _memo[topo_spec] = (topo, RoutingTables(topo))
    topo, tables = _memo[topo_spec]
    policy = POLICIES.create(policy_spec, tables)
    faults = None
    if fault_spec:
        faults = FAULTS.create(fault_spec, topo)
        prepare_fault_policy(policy, faults, topo)
    workload = WORKLOADS.create(workload_spec, topo) if workload_spec else None
    traffic = None if workload_spec else TRAFFICS.create("uniform", topo)
    return engine(
        topo, policy, traffic, load, config=auto_sim_config(policy), seed=7,
        faults=faults, workload=workload,
    )


def assert_same_result(a, b, what=""):
    assert a.cycles == b.cycles, what
    assert a.injected_flits == b.injected_flits, what
    assert a.ejected_flits == b.ejected_flits, what
    assert np.array_equal(a.latencies, b.latencies), what
    assert np.array_equal(a.hop_counts, b.hop_counts), what


def collected(observers) -> dict:
    """What a set of observers gathered, keyed by observer type."""
    out = {}
    for ob in observers:
        if isinstance(ob, LinkCounts):
            out["links"] = ob.counts
        elif isinstance(ob, OccupancySampler):
            out["occupancy"] = (ob.samples, ob.mean)
        else:
            out["windows"] = ob.series.summary()
    return out


@pytest.mark.parametrize("observer_set", OBSERVER_SETS)
@pytest.mark.parametrize("topo_spec,policy_spec,load", CELLS)
def test_observers_leave_the_run_alone(
    paths, topo_spec, policy_spec, load, observer_set
):
    seen = {}
    for label, engine, ctx, spans in paths:
        what = f"{label} {observer_set}"
        with ctx():
            plain = build(engine, topo_spec, policy_spec, load)
            sim = build(engine, topo_spec, policy_spec, load)
        want = plain.run(**PHASES)
        observers = [make() for make in OBSERVER_SETS[observer_set]]
        got = sim._drive(**PHASES, observers=observers)
        assert_same_result(got, want, what)
        assert sim.rng.bit_generator.state == plain.rng.bit_generator.state, what
        assert sim.now == plain.now == sum(PHASES.values()), what
        if spans:
            assert sim.span_cycles == sum(PHASES.values()), what
        seen[label] = collected(observers)
    first, *rest = seen.values()
    for other in rest:
        assert other == first
    if "links" in first:
        assert first["links"]
    if "occupancy" in first:
        samples, mean = first["occupancy"]
        assert samples == 19 and mean  # cycles 1, 9, ..., 145 of 150
    if "windows" in first:
        bounds = [(w["start"], w["end"]) for w in first["windows"]["windows"]]
        assert bounds == [(0, 64), (64, 128), (128, 150)]
        counts = [w["occupancy"]["count"] for w in first["windows"]["windows"]]
        assert counts == [8, 8, 3]


def test_public_observed_runs_keep_their_spans():
    if load_kernel() is None or not load_kernel().select_ok:
        pytest.skip("C kernel (or its draw self-test) unavailable")
    topo_spec, policy_spec, load = CELLS[0]
    sim = build(FlatSimulator, topo_spec, policy_spec, load)
    run_with_telemetry(sim, warmup=60, measure=150, sample_every=8)
    assert sim.span_cycles == sim.now == 210
    sim = build(FlatSimulator, topo_spec, policy_spec, load)
    run_with_timeseries(sim, window=64, **PHASES)
    assert sim.span_cycles == sim.now == 260


def assert_same_workload_result(a, b, what=""):
    assert a.summary() == b.summary(), what
    assert (a.cycles, a.injected_flits, a.ejected_flits) == (
        b.cycles, b.injected_flits, b.ejected_flits,
    ), what
    for name in (
        "msg_latencies", "packet_latencies", "hop_counts", "msg_complete_cycles",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (what, name)


@pytest.mark.parametrize(
    "workload_spec,fault_spec",
    [("allreduce:algo=ring,size=64", None), ("alltoall:size=8", FAULT_SPEC)],
    ids=["clean", "faulted"],
)
def test_windowed_workload_equals_plain_run_workload(
    paths, workload_spec, fault_spec
):
    topo_spec = CELLS[0][0]
    series = {}
    for label, engine, ctx, _ in paths:
        with ctx():
            plain = build(engine, topo_spec, "ugal-pf", fault_spec=fault_spec,
                          workload_spec=workload_spec)
            sim = build(engine, topo_spec, "ugal-pf", fault_spec=fault_spec,
                        workload_spec=workload_spec)
        want = plain.run_workload()
        got, windows = run_workload_with_timeseries(sim, window=64)
        assert_same_workload_result(got, want, label)
        assert sim.rng.bit_generator.state == plain.rng.bit_generator.state, label
        assert windows.windows[-1]["end"] == got.cycles
        if fault_spec:
            assert plain.fault_result.dropped_flits > 0, label
            a, b = plain.fault_result.summary(), sim.fault_result.summary()
            assert {k: v for k, v in b.items()
                    if not k.startswith("fault_recovery_")} == a, label
            assert windows.fault_cycles(), label
        series[label] = windows.summary()
    first, *rest = series.values()
    for other in rest:
        assert other == first


# ----------------------------------------------------------------------
# Lifecycle guards: the one driver gives every entry point run()'s
# ----------------------------------------------------------------------
def _open(topo_spec=CELLS[0][0], **kwargs):
    return build(FlatSimulator, topo_spec, "min", 0.3, **kwargs)


def _closed(**kwargs):
    return build(FlatSimulator, CELLS[0][0], "min", workload_spec="alltoall:size=8",
                 **kwargs)


SHORT = dict(warmup=10, measure=20)

#: name -> (simulator factory, the entry point with short windows)
ENTRY_POINTS = {
    "run": (_open, lambda sim, **kw: sim.run(**{**SHORT, "drain": 5, **kw})),
    "run_with_telemetry": (
        _open, lambda sim, **kw: run_with_telemetry(sim, **{**SHORT, **kw}),
    ),
    "run_with_timeseries": (
        _open,
        lambda sim, **kw: run_with_timeseries(sim, **{**SHORT, "drain": 5, **kw}),
    ),
    "run_workload": (_closed, lambda sim, **kw: sim.run_workload(**kw)),
    "run_workload_with_timeseries": (
        _closed, lambda sim, **kw: run_workload_with_timeseries(sim, **kw),
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_second_run_says_the_result_is_out(entry):
    make, call = ENTRY_POINTS[entry]
    sim = make()
    call(sim)
    now = sim.now
    with pytest.raises(RuntimeError, match="already produced its result"):
        call(sim)
    assert sim.now == now


#: (entry point, bad argument, the field the error must name)
BAD_ARGUMENTS = [
    (entry, bad, field)
    for entry in ("run_with_telemetry", "run_with_timeseries")
    for bad, field in [
        (dict(measure=0), "measure"),
        (dict(measure=-5), "measure"),
        (dict(warmup=-1), "warmup"),
        (dict(warmup=10.5), "warmup"),
        (dict(sample_every=0), "sample_every"),
        (dict(sample_every=-8), "sample_every"),
        (dict(sample_every=2.5), "sample_every"),
    ]
] + [
    ("run_with_timeseries", dict(drain=-1), "drain"),
    ("run_with_timeseries", dict(window=0), "window"),
    ("run_with_timeseries", dict(window=None), "window"),
    ("run_workload_with_timeseries", dict(window=-64), "window"),
    ("run_workload_with_timeseries", dict(window=6.4), "window"),
    ("run_workload_with_timeseries", dict(sample_every=0), "sample_every"),
]


@pytest.mark.parametrize("entry,bad,field", BAD_ARGUMENTS)
def test_bad_argument_names_the_field(entry, bad, field):
    make, call = ENTRY_POINTS[entry]
    sim = make()
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        call(sim, **bad)
    assert sim.now == 0  # rejected before a cycle ran


def test_faulted_run_with_telemetry_goes_through_begin_run():
    plain = _open(fault_spec=FAULT_SPEC)
    plain.run(warmup=60, measure=150, drain=0)
    sim = _open(fault_spec=FAULT_SPEC)
    res, tel = run_with_telemetry(sim, warmup=60, measure=150)
    assert sim.fault_result is not None
    assert sim.fault_result.summary() == plain.fault_result.summary()
    assert sim.fault_result.dropped_flits > 0 and tel.link_flits
    assert_same_result(res, plain.result)
    # The fault state was started by this run, so it refuses another.
    with pytest.raises(RuntimeError, match="single-run"):
        run_with_telemetry(sim, warmup=60, measure=150)


def test_simulate_point_link_telemetry_on_the_reference_engine():
    topo_spec, policy_spec, load = CELLS[0]
    topo = TOPOLOGIES.create(topo_spec)
    tables = RoutingTables(topo)
    maps = []
    for engine in ("reference", "flat"):
        res = simulate_point(
            topo, POLICIES.create(policy_spec, tables),
            TRAFFICS.create("uniform", topo), load, seed=7, engine=engine,
            link_telemetry=True, **PHASES,
        )
        maps.append(res.link_flits)
    assert maps[0] and maps[0] == maps[1]
