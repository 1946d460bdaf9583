"""One run loop with observers: what watching a run may and may not change.

``run(..., observers=)`` and ``run_workload(..., observers=)`` are the
one observed-run entry: link counters, occupancy sampling and window
records ride ``SimulatorCore._drive`` as observers, compared across the
three cycle paths in ``tests/test_differential.py``.  Here, on each of
the three engines (reference, numpy flat path, C kernel):

* observed runs keep their spans;
* closed loop, a windowed run returns the plain ``run_workload()``'s
  ``WorkloadResult``;
* the lifecycle guards of ``run()`` hold under every observer list, and
  the observers reject bad arguments when they are built;
* a sweep cell imports the observers only when it is observed.
"""

import contextlib
import os
import subprocess
import sys

import pytest

from repro.experiments.registry import POLICIES, TRAFFICS
from repro.experiments.runner import simulate_point
from repro.flitsim import FlatSimulator, NetworkSimulator
from repro.flitsim._kernel import load_kernel
from repro.flitsim.telemetry import LinkCounts, OccupancySampler, WindowCloser

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
    sim.run(60, 150, 0, observers=[LinkCounts(), OccupancySampler(8)])
    assert sim.span_cycles == sim.now == 210
    sim = build(topo_spec, policy_spec, "uniform", load, seed=7)
    sim.run(**PHASES, observers=[WindowCloser(64)])
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
        closer = WindowCloser(64)
        got = sim.run_workload(observers=[closer])
        windows = closer.series
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
# Lifecycle guards: every observer list gets run()'s
# ----------------------------------------------------------------------
def _open(faults=None):
    return build(CELL[0], "min", "uniform", 0.3, seed=7, faults=faults)


def _closed():
    return build(CELL[0], "min", None, 0.0, seed=7, workload="alltoall:size=8")


SHORT = dict(warmup=10, measure=20, drain=5)

#: row -> (simulator factory, the observers its run is handed)
OBSERVED_RUNS = {
    "run": (_open, lambda: []),
    "run-links-occupancy": (_open, lambda: [LinkCounts(), OccupancySampler()]),
    "run-windows": (_open, lambda: [WindowCloser()]),
    "run_workload": (_closed, lambda: []),
    "run_workload-windows": (_closed, lambda: [WindowCloser()]),
}


def _call(sim, observers, **phases):
    """The run of ``sim``'s loop kind under ``observers``."""
    if sim._wl is not None:
        return sim.run_workload(observers=observers)
    return sim.run(**{**SHORT, **phases}, observers=observers)


@pytest.mark.parametrize("row", OBSERVED_RUNS)
def test_second_run_says_the_result_is_out(row):
    make, observers = OBSERVED_RUNS[row]
    sim = make()
    _call(sim, observers())
    now = sim.now
    with pytest.raises(RuntimeError, match="already produced its result"):
        _call(sim, observers())
    assert sim.now == now


#: (bad phase argument of run(), the field the error must name)
BAD_PHASES = [
    (dict(measure=0), "measure"),
    (dict(measure=-5), "measure"),
    (dict(warmup=-1), "warmup"),
    (dict(warmup=10.5), "warmup"),
    (dict(drain=-1), "drain"),
]


@pytest.mark.parametrize("row", [r for r in OBSERVED_RUNS if r.startswith("run-")])
@pytest.mark.parametrize("bad,field", BAD_PHASES)
def test_bad_phase_names_the_field(row, bad, field):
    make, observers = OBSERVED_RUNS[row]
    sim = make()
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        _call(sim, observers(), **bad)
    assert sim.now == 0  # rejected before a cycle ran


#: (observer, bad constructor argument, the field the error must name)
BAD_OBSERVER_ARGUMENTS = [
    (OccupancySampler, dict(sample_every=0), "sample_every"),
    (OccupancySampler, dict(sample_every=-8), "sample_every"),
    (OccupancySampler, dict(sample_every=2.5), "sample_every"),
    (WindowCloser, dict(sample_every=0), "sample_every"),
    (WindowCloser, dict(window=0), "window"),
    (WindowCloser, dict(window=None), "window"),
    (WindowCloser, dict(window=-64), "window"),
    (WindowCloser, dict(window=6.4), "window"),
]


@pytest.mark.parametrize("observer,bad,field", BAD_OBSERVER_ARGUMENTS)
def test_bad_observer_argument_names_the_field(observer, bad, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        observer(**bad)


def test_faulted_observed_run_goes_through_begin_run():
    plain = _open(faults=FAULT_SPEC)
    plain.run(warmup=60, measure=150, drain=0)
    sim = _open(faults=FAULT_SPEC)
    links = LinkCounts()
    res = sim.run(60, 150, 0, observers=[links, OccupancySampler()])
    assert sim.fault_result is not None
    assert sim.fault_result.summary() == plain.fault_result.summary()
    assert sim.fault_result.dropped_flits > 0 and links.counts
    assert_same_result(res, plain.result)
    # The fault state was started by this run, so it refuses another.
    with pytest.raises(RuntimeError, match="single-run"):
        sim.run(60, 150, 0, observers=[LinkCounts()])


def test_simulate_point_link_counts_on_the_reference_engine():
    topo_spec, policy_spec, load = CELL
    topo, tables = tables_for(topo_spec)
    maps = []
    for engine in ("reference", "flat"):
        links = LinkCounts()
        simulate_point(
            topo, POLICIES.create(policy_spec, tables),
            TRAFFICS.create("uniform", topo), load, seed=7, engine=engine,
            observers=[links], **PHASES,
        )
        maps.append(links.counts)
    assert maps[0] and list(maps[0].items()) == list(maps[1].items())


# ----------------------------------------------------------------------
# An unobserved cell does not pay for the observers' imports
# ----------------------------------------------------------------------
_CELL_SPECS = {
    "open": "ExperimentSpec.grid(['polarfly:conc=2,q=5'], ['min'], ['uniform'], "
            "loads=(0.3,), warmup=20, measure=40, drain=10)",
    "closed": "ExperimentSpec.workload_grid(['polarfly:conc=2,q=5'], ['min'], "
              "['alltoall:size=4'])",
    "faulted": "ExperimentSpec.fault_grid(['polarfly:conc=2,q=5'], ['min'], "
               "['uniform'], ['linkflap:count=2,cycle=10,duration=30,seed=1'], "
               "loads=(0.3,), warmup=20, measure=40, drain=10)",
    "windowed": "ExperimentSpec.grid(['polarfly:conc=2,q=5'], ['min'], ['uniform'], "
                "loads=(0.3,), warmup=20, measure=40, drain=10, window=16)",
}
OBSERVER_MODULES = ("repro.flitsim.telemetry", "repro.obs.timeseries")


@pytest.mark.parametrize("kind", _CELL_SPECS)
def test_only_an_observed_cell_imports_the_observers(kind):
    """``run_cell`` in a fresh interpreter with ``$REPRO_OBS`` unset: only
    the windowed cell (the control) has a reason to load the observers."""
    child = (
        "import sys\n"
        "from repro.experiments import ExperimentSpec\n"
        "from repro.experiments.runner import run_cell\n"
        f"run_cell({_CELL_SPECS[kind]}.cells()[0])\n"
        f"print(sorted(m for m in {OBSERVER_MODULES!r} if m in sys.modules))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = eval(proc.stdout.strip().splitlines()[-1])
    assert loaded == (sorted(OBSERVER_MODULES) if kind == "windowed" else [])
