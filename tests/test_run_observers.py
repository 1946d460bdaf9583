"""One run loop with observers: what watching a run may and may not change.

Every entry point is ``SimulatorCore._drive``; link counters, occupancy
sampling and window records ride it as observers, compared across the
four cycle paths in ``tests/test_differential.py``.  Here, on each of
the three engines (reference, numpy flat path, C kernel):

* the public observed runs keep their spans;
* closed loop, a windowed run returns the plain ``run_workload()``'s
  ``WorkloadResult``;
* the lifecycle guards of ``run()`` hold on all five entry points.
"""

import contextlib

import pytest

from repro.experiments.registry import POLICIES, TRAFFICS
from repro.experiments.runner import simulate_point
from repro.flitsim import (
    FlatSimulator,
    NetworkSimulator,
    run_with_telemetry,
    run_with_timeseries,
    run_workload_with_timeseries,
)
from repro.flitsim._kernel import load_kernel

from oracles import assert_same_result, build, tables_for

#: 150 = 2 * 64 + 22 = 18 * 8 + 6: the last window and the last sampling
#: interval are both cut short by the end of the measure phase
PHASES = dict(warmup=60, measure=150, drain=50)
FAULT_SPEC = "linkflap:count=3,cycle=30,duration=120,seed=1"

CELL = ("polarfly:conc=2,q=7", "ugal-pf", 0.5)


@pytest.fixture(scope="module")
def paths(flat_variants):
    """(label, engine class, construction context, runs as spans)."""
    return [("reference", NetworkSimulator, contextlib.nullcontext, False)] + [
        (label, FlatSimulator, ctx, kernel and load_kernel().select_ok)
        for label, ctx, kernel in flat_variants
    ]


def test_public_observed_runs_keep_their_spans():
    if load_kernel() is None or not load_kernel().select_ok:
        pytest.skip("C kernel (or its draw self-test) unavailable")
    topo_spec, policy_spec, load = CELL
    sim = build(topo_spec, policy_spec, "uniform", load, seed=7)
    run_with_telemetry(sim, warmup=60, measure=150, sample_every=8)
    assert sim.span_cycles == sim.now == 210
    sim = build(topo_spec, policy_spec, "uniform", load, seed=7)
    run_with_timeseries(sim, window=64, **PHASES)
    assert sim.span_cycles == sim.now == 260


@pytest.mark.parametrize(
    "workload_spec,fault_spec",
    [("allreduce:algo=ring,size=64", None), ("alltoall:size=8", FAULT_SPEC)],
    ids=["clean", "faulted"],
)
def test_windowed_workload_equals_plain_run_workload(
    paths, workload_spec, fault_spec
):
    topo_spec = CELL[0]
    series = {}
    for label, engine, ctx, _ in paths:
        with ctx():
            plain, sim = (
                build(topo_spec, "ugal-pf", None, 0.0, seed=7, engine=engine,
                      workload=workload_spec, faults=fault_spec)
                for _ in range(2)
            )
        want = plain.run_workload()
        got, windows = run_workload_with_timeseries(sim, window=64)
        assert_same_result(got, want, label)
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
def _open(faults=None):
    return build(CELL[0], "min", "uniform", 0.3, seed=7, faults=faults)


def _closed():
    return build(CELL[0], "min", None, 0.0, seed=7, workload="alltoall:size=8")


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
    plain = _open(faults=FAULT_SPEC)
    plain.run(warmup=60, measure=150, drain=0)
    sim = _open(faults=FAULT_SPEC)
    res, tel = run_with_telemetry(sim, warmup=60, measure=150)
    assert sim.fault_result is not None
    assert sim.fault_result.summary() == plain.fault_result.summary()
    assert sim.fault_result.dropped_flits > 0 and tel.link_flits
    assert_same_result(res, plain.result)
    # The fault state was started by this run, so it refuses another.
    with pytest.raises(RuntimeError, match="single-run"):
        run_with_telemetry(sim, warmup=60, measure=150)


def test_simulate_point_link_telemetry_on_the_reference_engine():
    topo_spec, policy_spec, load = CELL
    topo, tables = tables_for(topo_spec)
    maps = []
    for engine in ("reference", "flat"):
        res = simulate_point(
            topo, POLICIES.create(policy_spec, tables),
            TRAFFICS.create("uniform", topo), load, seed=7, engine=engine,
            link_telemetry=True, **PHASES,
        )
        maps.append(res.link_flits)
    assert maps[0] and maps[0] == maps[1]
