"""Engine performance harness: the repo's perf-baseline trajectory.

Times both simulation engines (the struct-of-arrays flat core and the
dict-of-deques reference) on a small set of canonical cells, plus the
*construction* path — topology build, :class:`RoutingTables` (batched
all-pairs BFS), candidate CSR, unique-path cache, and
:class:`FlatFabric` — at q ∈ {7, 19, 31}, against the seed per-source
builders.  Everything is written to ``BENCH_flitsim.json`` — cycles/sec
per engine, construction walls, speedups, and machine info — so every
future hot-path change is measured against a recorded baseline instead
of asserted.

Used by ``benchmarks/perf_smoke.py`` (pytest-free script), ``tools/bench.py``
(CLI with ``--check`` / ``--check-construction`` gates for CI), and
importable directly.
"""

from __future__ import annotations

import contextlib
import os
import platform
import time

import numpy as np

from repro import obs
from repro.experiments.registry import POLICIES, TOPOLOGIES, TRAFFICS
from repro.experiments.runner import auto_sim_config
from repro.flitsim._kernel import load_kernel, numpy_fallback
from repro.flitsim.engine import make_simulator

__all__ = [
    "CANONICAL_CELLS",
    "HEADLINE_CELL",
    "CONSTRUCTION_SPECS",
    "CONSTRUCTION_GATE",
    "CONSTRUCTION_MEMORY_GATE",
    "BASELINE_MAX_ROUTERS",
    "SCALE_CELLS",
    "SCALE_ENGINES",
    "WORKLOAD_CELLS",
    "FAULT_CELLS",
    "CLOSED_LOOP_ENGINES",
    "SWEEP_RESILIENCE_MAX_OVERHEAD",
    "OBS_OVERHEAD_MAX",
    "TS_OVERHEAD_MAX",
    "bench_cell",
    "bench_obs_overhead",
    "bench_ts_overhead",
    "bench_sweep_resilience",
    "bench_workload_cell",
    "bench_fault_cell",
    "bench_construction_spec",
    "measure_construction_memory",
    "run_construction_benchmarks",
    "run_scale_benchmarks",
    "run_workload_benchmarks",
    "run_fault_benchmarks",
    "run_sweep_resilience_benchmark",
    "run_obs_overhead_benchmark",
    "run_ts_overhead_benchmark",
    "run_benchmarks",
    "machine_info",
    "write_bench_json",
]

#: The canonical perf cells.  ``fig09_pf_ugalpf_uniform`` is the
#: headline: the Figure-9 PolarFly q=7 UGAL_PF configuration whose
#: sweeps bottleneck every adaptive-routing figure.
CANONICAL_CELLS = {
    "fig09_pf_ugalpf_uniform": dict(
        topology="polarfly:conc=2,q=7", policy="ugal-pf", traffic="uniform",
        load=0.5,
    ),
    "fig09_pf_ugalpf_perm1hop": dict(
        topology="polarfly:conc=2,q=7", policy="ugal-pf",
        traffic="perm1hop:seed=1", load=0.6,
    ),
    "df_min_adversarial": dict(
        topology="dragonfly:a=4,h=2,p=2", policy="min", traffic="tornado",
        load=0.7,
    ),
}

HEADLINE_CELL = "fig09_pf_ugalpf_uniform"

#: The construction-trajectory topologies: the paper's headline PolarFly
#: sizes from the q=7 toy (N=57) through the large-radix regime the
#: batched builders unlock (q=31: N=993, ~1M router pairs), plus the
#: sparse tier — q=53 (N=2863), q=79 (N=6321) and the PolarStar
#: star-product instance PS(q=11, s=25) (N=3325) — that the O(N^2)-free
#: structures exist for.
CONSTRUCTION_SPECS = {
    "pf_q7": "polarfly:conc=2,q=7",
    "pf_q19": "polarfly:conc=2,q=19",
    "pf_q31": "polarfly:conc=2,q=31",
    "pf_q53": "polarfly:conc=2,q=53",
    "pf_q79": "polarfly:conc=2,q=79",
    "ps_q11": "polarstar:conc=2,q=11,sq=25",
}

#: the construction entry the CI regression gate checks
CONSTRUCTION_GATE = "pf_q19"

#: the construction entry whose traced memory peak the CI gate bounds
CONSTRUCTION_MEMORY_GATE = "pf_q53"

#: Largest router count at which the seed per-source baseline (a
#: Python BFS loop per source) is still cheap enough to time.  Larger
#: specs record batched walls and memory only, with a
#: ``baseline_skipped`` note — q=31 keeps its baseline, so the committed
#: speedup trajectory is unbroken.
BASELINE_MAX_ROUTERS = 1200

#: Scale-tier simulation cells: flat-engine only (the dict-of-deques
#: reference engine is quadratic-in-spirit at these sizes and is pinned
#: bit-identical on the small golden cells instead).  Recorded in the
#: separate ``scale`` section of BENCH_flitsim.json.
SCALE_CELLS = {
    "scale_pf_q53_min_uniform": dict(
        topology="polarfly:conc=2,q=53", policy="min", traffic="uniform",
        load=0.2,
    ),
    "scale_ps_q11_min_uniform": dict(
        topology="polarstar:conc=2,q=11,sq=25", policy="min",
        traffic="uniform", load=0.2,
    ),
}

#: Engines timed on the scale cells (no reference at these sizes).
SCALE_ENGINES = ("flat-numpy", "flat")

#: The canonical closed-loop cells: collective completion time is the
#: workload engine's headline number (the paper-adjacent metric real
#: systems are judged on), recorded per engine with the same
#: flat-over-reference speedup bookkeeping as the open-loop cells.
#: The ``wk01`` cell is the kernel-path headline: min routing keeps the
#: Python share (batched route selection) small, so its
#: kernel-over-numpy speedup tracks the C cycle kernel itself.
WORKLOAD_CELLS = {
    "allreduce_ring_pf_q7": dict(
        topology="polarfly:conc=2,q=7", policy="ugal-pf",
        workload="allreduce:algo=ring,size=64",
    ),
    "alltoall_pf_q7": dict(
        topology="polarfly:conc=2,q=7", policy="min", workload="alltoall:size=8",
    ),
    "wk01_allreduce_kernel": dict(
        topology="polarfly:conc=2,q=7", policy="min",
        workload="allreduce:algo=ring,size=64",
    ),
}

#: The canonical resilience-under-load cells: the Figure-9 headline
#: configuration with a mid-run MTBF link failure/repair process.  The
#: fault cycle phases run in the C kernel too (drops, dead-port masks,
#: credit semantics — epoch deltas stay in Python); ``fault01`` is the
#: kernel-path headline with min routing, mirroring ``wk01``.
FAULT_CELLS = {
    "fig14_pf_ugalpf_mtbf": dict(
        topology="polarfly:conc=2,q=7", policy="ugal-pf", traffic="uniform",
        load=0.5, faults="mtbf:count=3,mtbf=250,mttr=200,seed=2,start=150",
    ),
    "fault01_mtbf_kernel": dict(
        topology="polarfly:conc=2,q=7", policy="min", traffic="uniform",
        load=0.5, faults="mtbf:count=3,mtbf=250,mttr=200,seed=2,start=150",
    ),
}

#: Engines benchmarked on workload/fault cells.  ``flat-numpy`` is the
#: flat engine with the C kernel disabled for the construction (see
#: :func:`~repro.flitsim._kernel.numpy_fallback`) — recording it next
#: to ``flat`` turns every closed-loop/fault cell into a
#: kernel-vs-numpy measurement.  Dropped automatically (with a notice)
#: when no kernel is available, since both names would time the same
#: code.
CLOSED_LOOP_ENGINES = ("reference", "flat-numpy", "flat")

#: CI gate for the sweep scheduler: the crash-resilient as-completed
#: dispatcher may cost at most this factor over a bare ``pool.map`` of
#: statically pre-split chunks on the same grid and pool size.
SWEEP_RESILIENCE_MAX_OVERHEAD = 1.05

#: CI gate for observability: with ``$REPRO_OBS`` unset, the fully
#: instrumented serial execution path may cost at most this factor over
#: the seed execution spine (a bare ``run_cell`` loop on the same cells).
OBS_OVERHEAD_MAX = 1.03

#: CI gate for time-series collection: with windows *off* (the default
#: ``window=0``), the merged feature may cost at most this factor over
#: the seed execution spine (a direct simulator ``run()`` loop on the
#: same points) — the dormant collector must stay dormant.
TS_OVERHEAD_MAX = 1.05


def _engine_ctx(engine: str):
    """(real engine name, construction context) for one engine label."""
    if engine == "flat-numpy":
        return "flat", numpy_fallback()
    return engine, contextlib.nullcontext()


def _resolve_engines(engines) -> tuple:
    """Drop ``flat-numpy`` when the kernel is unavailable anyway."""
    if "flat-numpy" in engines and load_kernel() is None:
        return tuple(e for e in engines if e != "flat-numpy")
    return tuple(engines)


def _add_speedups(result: dict) -> None:
    """Attach the derived speedup ratios for one cell's engine dict."""
    eng = result["engines"]
    if "reference" in eng and "flat" in eng:
        result["speedup_flat_over_reference"] = (
            eng["flat"]["cycles_per_sec"] / eng["reference"]["cycles_per_sec"]
        )
    if "flat-numpy" in eng and "flat" in eng:
        result["speedup_kernel_over_numpy"] = (
            eng["flat"]["cycles_per_sec"] / eng["flat-numpy"]["cycles_per_sec"]
        )


def machine_info() -> dict:
    """Environment fingerprint recorded next to every measurement."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "processor": platform.processor() or platform.machine(),
        "flat_kernel": load_kernel() is not None,
    }


def bench_cell(
    cell: dict,
    warmup: int = 150,
    measure: int = 400,
    seed: int = 1,
    engines=("reference", "flat"),
) -> dict:
    """Time ``warmup + measure`` simulated cycles per engine on one cell.

    Objects are built once per engine run (fresh simulator each time,
    same seed — the engines are result-equivalent, so both time the
    exact same simulated work).  Returns per-engine wall/cycles-per-sec
    plus the flat-over-reference speedup, and a ``phases`` section
    splitting the wall into construct (topology build), route (tables +
    policy + traffic), and simulate (summed engine loops) — each phase
    also emitted as a ``bench.phase`` span when ``$REPRO_OBS`` is on.
    """
    from repro.routing.tables import RoutingTables

    topo, policy, traffic = None, None, None
    with obs.span("bench.phase", phase="construct"):
        t0 = time.perf_counter()
        topo = TOPOLOGIES.create(cell["topology"])
        construct_s = time.perf_counter() - t0
    with obs.span("bench.phase", phase="route"):
        t0 = time.perf_counter()
        tables = RoutingTables(topo)
        policy = POLICIES.create(cell["policy"], tables)
        traffic = TRAFFICS.create(cell["traffic"], topo)
        route_s = time.perf_counter() - t0
    config = auto_sim_config(policy)
    cycles = warmup + measure
    result: dict = {"cell": dict(cell), "cycles": cycles, "engines": {}}
    simulate_s = 0.0
    for engine in _resolve_engines(engines):
        real, ctx = _engine_ctx(engine)
        with ctx:
            sim = make_simulator(
                topo, policy, traffic, cell["load"], config=config,
                seed=seed, engine=real,
            )
        with obs.span("bench.phase", phase="simulate", engine=engine):
            start = time.perf_counter()
            for _ in range(cycles):
                sim.step()
            wall = time.perf_counter() - start
        simulate_s += wall
        result["engines"][engine] = {
            "wall_s": wall,
            "cycles_per_sec": cycles / wall,
        }
    result["phases"] = {
        "construct_s": construct_s,
        "route_s": route_s,
        "simulate_s": simulate_s,
    }
    _add_speedups(result)
    return result


def bench_workload_cell(
    cell: dict,
    max_cycles: int = 100_000,
    seed: int = 1,
    engines=CLOSED_LOOP_ENGINES,
) -> dict:
    """Time one closed-loop cell to completion per engine.

    Both engines run the exact same collective (bit-identical results
    per seed), so the recorded completion time is engine-agnostic and
    the walls measure pure engine speed.
    """
    from repro.experiments.registry import WORKLOADS
    from repro.experiments.runner import simulate_workload
    from repro.routing.tables import RoutingTables

    topo = TOPOLOGIES.create(cell["topology"])
    tables = RoutingTables(topo)
    policy = POLICIES.create(cell["policy"], tables)
    workload = WORKLOADS.create(cell["workload"], topo)
    config = auto_sim_config(policy)
    result: dict = {"cell": dict(cell), "engines": {}}
    for engine in _resolve_engines(engines):
        real, ctx = _engine_ctx(engine)
        with ctx:
            start = time.perf_counter()
            res = simulate_workload(
                topo, policy, workload, config=config, max_cycles=max_cycles,
                seed=seed, engine=real,
            )
            wall = time.perf_counter() - start
        result["engines"][engine] = {
            "wall_s": wall,
            "cycles_per_sec": res.cycles / wall if wall else float("inf"),
        }
        if "completion_cycles" in result and (
            result["completion_cycles"] != res.completion_time
            or result["num_messages"] != res.num_messages
        ):
            # The engines are pinned bit-identical; a divergence here
            # means the baseline would be silently wrong — fail loudly.
            raise RuntimeError(
                f"engine divergence on {cell}: {engine} completed in "
                f"{res.completion_time} cycles vs recorded "
                f"{result['completion_cycles']}"
            )
        result["completion_cycles"] = res.completion_time
        result["num_messages"] = res.num_messages
        result["wire_flits"] = res.wire_flits
        result["bisection_utilization"] = res.bisection_utilization
        result["finished"] = res.finished
    _add_speedups(result)
    return result


def bench_fault_cell(
    cell: dict,
    warmup: int = 150,
    measure: int = 400,
    seed: int = 1,
    engines=CLOSED_LOOP_ENGINES,
) -> dict:
    """Time one faulted open-loop cell per engine.

    The engines are pinned bit-identical under faults, so the recorded
    drop counters are engine-agnostic; a divergence fails loudly rather
    than committing a silently wrong baseline.
    """
    from repro.experiments.registry import FAULTS
    from repro.faults import prepare_fault_policy
    from repro.routing.tables import RoutingTables

    topo = TOPOLOGIES.create(cell["topology"])
    tables = RoutingTables(topo)
    traffic = TRAFFICS.create(cell["traffic"], topo)
    cycles = warmup + measure
    result: dict = {"cell": dict(cell), "cycles": cycles, "engines": {}}
    for engine in _resolve_engines(engines):
        # Fault state (and the policy it pins) is single-run: rebuild.
        timeline = FAULTS.create(cell["faults"], topo)
        policy = POLICIES.create(cell["policy"], tables)
        prepare_fault_policy(policy, timeline, topo)
        real, ctx = _engine_ctx(engine)
        with ctx:
            sim = make_simulator(
                topo, policy, traffic, cell["load"],
                config=auto_sim_config(policy), seed=seed, engine=real,
                faults=timeline,
            )
        start = time.perf_counter()
        for _ in range(cycles):
            sim.step()
        wall = time.perf_counter() - start
        result["engines"][engine] = {
            "wall_s": wall,
            "cycles_per_sec": cycles / wall,
        }
        counters = {
            "dropped_flits": sim._fault.dropped_flits,
            "dropped_packets": sim._fault.dropped_packets,
            "damaged_packets": sim._fault.damaged_packets,
            "blackholed_packets": sim._fault.blackholed_packets,
            "fault_applied_events": sim._fault.applied_events,
        }
        if "dropped_flits" in result and {
            k: result[k] for k in counters
        } != counters:
            raise RuntimeError(
                f"engine divergence on faulted cell {cell}: {engine} saw "
                f"{counters}"
            )
        result.update(counters)
    _add_speedups(result)
    return result


def run_fault_benchmarks(
    cells: "dict | None" = None,
    warmup: int = 150,
    measure: int = 400,
    seed: int = 1,
    engines=CLOSED_LOOP_ENGINES,
) -> dict:
    """The ``faults`` section of ``BENCH_flitsim.json``."""
    cells = FAULT_CELLS if cells is None else cells
    return {
        name: bench_fault_cell(
            cell, warmup=warmup, measure=measure, seed=seed, engines=engines
        )
        for name, cell in cells.items()
    }


def bench_sweep_resilience(
    max_workers: int = 2, repeats: int = 5, seed: int = 1
) -> dict:
    """Scheduler overhead: resilient dispatch vs a bare ``pool.map``.

    Runs the Figure-9 headline grid (PolarFly q=7, UGAL_PF, uniform,
    16 loads — wide enough that per-cell jitter averages out within a
    round) twice at the same pool size: once through the full
    crash-resilient scheduler (dynamic chunking, as-completed harvest,
    deadline tracking — the retry machinery idles on a clean run) and
    once as the seed's ``pool.map`` over statically pre-split chunks.
    Both paths time against a pre-warmed pool (the per-worker
    construction memo is persistent-pool state, not scheduling cost),
    interleaved in rounds — scheduler then pool.map, ``repeats`` times.
    The gated ratio is the *median of per-round ratios*: the two sides
    of one round are adjacent in time, so CPU-frequency and box-load
    drift (easily ±15% across a CI run) cancels out of each ratio
    instead of landing on whichever side was measured during the slow
    patch.  The recorded ratio is what resilience costs when nothing
    goes wrong; ``tools/bench.py --check`` gates it at
    :data:`SWEEP_RESILIENCE_MAX_OVERHEAD`.
    """
    import math
    import statistics
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.runner import SweepRunner, run_chunk
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.grid(
        ["polarfly:conc=2,q=7"], ["ugal-pf"], ["uniform"],
        loads=tuple(0.1 + 0.05 * i for i in range(16)),
        warmup=150, measure=400, drain=100, root_seed=seed,
    )
    cells = spec.cells()
    per = math.ceil(len(cells) / max_workers)
    chunks = [cells[i : i + per] for i in range(0, len(cells), per)]

    scheduler_s = pool_map_s = float("inf")
    ratios = []
    runner = SweepRunner(cache=None, max_workers=max_workers)
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            runner.run(spec)  # warm both pools + construction memos
            list(pool.map(run_chunk, chunks))
            for _ in range(repeats):
                _, s = _timed(lambda: runner.run(spec))
                _, m = _timed(lambda: list(pool.map(run_chunk, chunks)))
                scheduler_s = min(scheduler_s, s)
                pool_map_s = min(pool_map_s, m)
                ratios.append(s / m)
    finally:
        runner.close()

    return {
        "grid": {
            "cells": len(cells),
            "max_workers": max_workers,
            "repeats": repeats,
        },
        "scheduler_s": scheduler_s,
        "pool_map_s": pool_map_s,
        "round_ratios": ratios,
        "overhead_vs_pool_map": statistics.median(ratios),
        "max_overhead": SWEEP_RESILIENCE_MAX_OVERHEAD,
    }


def run_sweep_resilience_benchmark(seed: int = 1) -> dict:
    """The ``sweep_resilience`` section of ``BENCH_flitsim.json``."""
    return bench_sweep_resilience(seed=seed)


def bench_obs_overhead(repeats: int = 5, seed: int = 1) -> dict:
    """Observability tax on the disabled path: instrumented vs seed.

    With ``$REPRO_OBS`` unset, every wired emit/span/counter call must
    collapse to (at most) one env lookup.  This cell proves it end to
    end: per round it times the fully instrumented serial execution
    path — ``SweepRunner(max_workers=1).run()`` with its lifecycle
    emits, heartbeat checks, per-cell spans, and cache counters all
    disabled — against the seed execution spine, a bare ``run_cell``
    loop over the same cells.  Rounds interleave the two sides so
    CPU-frequency/box-load drift hits both equally (the
    ``bench_sweep_resilience`` methodology); the gated number is the
    *best-of-rounds* ratio — min instrumented wall over min bare wall,
    the noise-robust estimator: a transient stall in one round cannot
    fail the gate, only a cost paid in every round can.  Checked at
    :data:`OBS_OVERHEAD_MAX` by ``tools/bench.py --check``; per-round
    ratios are recorded alongside.  An *enabled*-side ratio (events
    actually written to a scratch dir) is recorded for information but
    never gated — writing JSONL costs what it costs.
    """
    import shutil
    import tempfile

    from repro.experiments.runner import SweepRunner, run_cell
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.grid(
        ["polarfly:conc=2,q=7"], ["ugal-pf"], ["uniform"],
        loads=tuple(0.1 + 0.1 * i for i in range(8)),
        warmup=150, measure=400, drain=100, root_seed=seed,
    )
    cells = spec.cells()
    runner = SweepRunner(cache=None, max_workers=1)
    disabled_s = bare_s = float("inf")
    ratios = []
    # Warm the construction memo so neither side pays first-build cost.
    for cell in cells:
        run_cell(cell)
    runner.run(spec)
    for _ in range(repeats):
        _, s = _timed(lambda: runner.run(spec))
        _, b = _timed(lambda: [run_cell(cell) for cell in cells])
        disabled_s = min(disabled_s, s)
        bare_s = min(bare_s, b)
        ratios.append(s / b)

    # Informational: the same serial run with events flowing to disk.
    tmp = tempfile.mkdtemp(prefix="repro-obs-bench-")
    saved = os.environ.get(obs.OBS_ENV)
    try:
        os.environ[obs.OBS_ENV] = f"dir={tmp},sample=1"
        _, enabled_s = _timed(lambda: runner.run(spec), repeats=2)
    finally:
        if saved is None:
            os.environ.pop(obs.OBS_ENV, None)
        else:
            os.environ[obs.OBS_ENV] = saved
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "grid": {"cells": len(cells), "repeats": repeats},
        "disabled_s": disabled_s,
        "bare_s": bare_s,
        "enabled_s": enabled_s,
        "round_ratios": ratios,
        "overhead_disabled_vs_seed": disabled_s / bare_s,
        "overhead_enabled_vs_disabled": enabled_s / disabled_s,
        "max_overhead": OBS_OVERHEAD_MAX,
    }


def run_obs_overhead_benchmark(seed: int = 1) -> dict:
    """The ``obs_overhead`` section of ``BENCH_flitsim.json``."""
    return bench_obs_overhead(seed=seed)


def bench_ts_overhead(repeats: int = 3, seed: int = 1) -> dict:
    """Time-series tax with windows *off*: merged feature vs seed spine.

    Windowed collection is opt-in (``ExperimentSpec.window=0`` by
    default), so the merged code may not slow down the fleet that never
    asked for it.  Per round this times a ``run_cell`` loop over
    non-windowed cells — the execution path every existing sweep takes
    after the merge, window checks and all — against the seed execution
    spine: a direct ``make_simulator(...).run(...)`` loop on the same
    points with none of the cell plumbing.  Rounds interleave the two
    sides (the :func:`bench_obs_overhead` methodology) and the gated
    number is the best-of-rounds ratio, checked at
    :data:`TS_OVERHEAD_MAX` by ``tools/bench.py --check``.  A
    windowed-*on* ratio (``window=64`` on the same grid) is recorded for
    information but never gated — collecting windows costs what it
    costs.
    """
    from repro.experiments.runner import (
        _build_cell_objects,
        auto_sim_config,
        run_cell,
    )
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.grid(
        ["polarfly:conc=2,q=7"], ["ugal-pf"], ["uniform"],
        loads=(0.2, 0.4, 0.6, 0.8),
        warmup=150, measure=400, drain=100, root_seed=seed,
    )
    cells = spec.cells()
    win_cells = spec.with_(window=64).cells()

    def seed_spine():
        for cell in cells:
            topo, policy, traffic = _build_cell_objects(cell)
            config = auto_sim_config(
                policy,
                port_budget=cell["port_budget"],
                num_vcs=cell["num_vcs"],
                vc_depth=cell["vc_depth"],
                packet_size=cell["packet_size"],
            )
            sim = make_simulator(
                topo, policy, traffic, cell["load"], config=config,
                seed=cell["seed"],
            )
            sim.run(
                warmup=cell["warmup"], measure=cell["measure"],
                drain=cell["drain"],
            )

    # Warm the construction memo so neither side pays first-build cost.
    run_cell(cells[0])
    seed_spine()
    off_s = bare_s = float("inf")
    ratios = []
    for _ in range(repeats):
        _, s = _timed(lambda: [run_cell(cell) for cell in cells])
        _, b = _timed(seed_spine)
        off_s = min(off_s, s)
        bare_s = min(bare_s, b)
        ratios.append(s / b)
    _, on_s = _timed(
        lambda: [run_cell(cell) for cell in win_cells], repeats=2
    )
    return {
        "grid": {"cells": len(cells), "repeats": repeats},
        "windows_off_s": off_s,
        "bare_s": bare_s,
        "windows_on_s": on_s,
        "round_ratios": ratios,
        "overhead_off_vs_seed": off_s / bare_s,
        "overhead_on_vs_off": on_s / off_s,
        "max_overhead": TS_OVERHEAD_MAX,
    }


def run_ts_overhead_benchmark(seed: int = 1) -> dict:
    """The ``ts_overhead`` section of ``BENCH_flitsim.json``."""
    return bench_ts_overhead(seed=seed)


def run_workload_benchmarks(
    cells: "dict | None" = None,
    max_cycles: int = 100_000,
    seed: int = 1,
    engines=CLOSED_LOOP_ENGINES,
) -> dict:
    """The ``workloads`` section of ``BENCH_flitsim.json``."""
    cells = WORKLOAD_CELLS if cells is None else cells
    return {
        name: bench_workload_cell(
            cell, max_cycles=max_cycles, seed=seed, engines=engines
        )
        for name, cell in cells.items()
    }


def _timed(fn, *args, repeats: int = 1):
    """(result, best wall seconds) of calling ``fn`` ``repeats`` times."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def _reset_peak_rss() -> bool:
    """Reset the process VmHWM high-water mark; False when unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_kb() -> "int | None":
    """Current VmHWM (peak resident set) in KiB, or None off-Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def measure_construction_memory(spec: str) -> dict:
    """Peak memory of one full construction (topology through fabric).

    Two complementary numbers: the tracemalloc *traced* peak (exact
    Python-side allocation high-water mark, machine-independent; also
    read once right after the ``RoutingTables`` build, before the
    unique-path cache adds its own resident 7 bytes per pair) and —
    where ``/proc`` supports resetting ``VmHWM`` — the process peak-RSS
    delta-capable counter, which also sees numpy's buffer reuse.  Run
    *after* the timing pass: tracemalloc taxes every allocation.
    """
    import tracemalloc

    from repro.flitsim.flatcore import FlatFabric
    from repro.routing.tables import RoutingTables

    rss_ok = _reset_peak_rss()
    tracemalloc.start()
    try:
        topo = TOPOLOGIES.create(spec)
        tables = RoutingTables(topo)
        tables_peak = tracemalloc.get_traced_memory()[1]
        fabric = FlatFabric(topo)
        if tables._path_cache_enabled():
            tables._unique_path_cache()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entry = {
        "traced_peak_bytes": int(peak),
        "tables_traced_peak_bytes": int(tables_peak),
        "traced_current_bytes": int(current),
        "dist_bytes": int(np.asarray(tables.dist).nbytes),
        "candidate_table_bytes": int(tables._candidate_table().nbytes()),
    }
    rss = _peak_rss_kb() if rss_ok else None
    if rss is not None:
        entry["peak_rss_kb"] = rss
    del topo, tables, fabric
    return entry


def bench_construction_spec(
    spec: str, baseline: bool = True, repeats: int = 1, memory: bool = True
) -> dict:
    """Time the construction path of one topology spec.

    Measures the batched builders — topology construction,
    :class:`RoutingTables` (blocked all-sources BFS plus the streamed
    candidate builder), the candidate builder alone (the fault-repair
    rebuild), the unique-path cache (when enabled), and
    :class:`FlatFabric` — and, with ``baseline`` (auto-skipped above
    :data:`BASELINE_MAX_ROUTERS` routers), the seed per-source BFS
    (``bfs_distances_reference`` per source), recording the speedup.
    ``memory`` appends a :func:`measure_construction_memory` pass.
    """
    from repro.flitsim.flatcore import FlatFabric
    from repro.routing.tables import RoutingTables
    from repro.utils.graph import bfs_distances_reference

    topo, topo_s = _timed(lambda: TOPOLOGIES.create(spec), repeats=repeats)
    tables, tables_s = _timed(lambda: RoutingTables(topo), repeats=repeats)

    def fresh_table():
        # Reset the lazy compact table instead of rebuilding the whole
        # tables object — times the derive-from-dist path (the fault
        # repair path) without re-paying the BFS.
        tables._cands = None
        start = time.perf_counter()
        tables._candidate_table()
        return time.perf_counter() - start

    table_s = min(fresh_table() for _ in range(repeats))
    _, fabric_s = _timed(lambda: FlatFabric(topo), repeats=repeats)

    entry = {
        "spec": spec,
        "num_routers": topo.num_routers,
        "num_links": topo.num_links,
        "topology_s": topo_s,
        "routing_tables": {"batched_s": tables_s},
        "candidate_table": {
            "batched_s": table_s,
            "nbytes": int(tables._candidate_table().nbytes()),
        },
        "fabric_s": fabric_s,
    }
    if tables._path_cache_enabled():
        # The candidate table is already built (fresh_table's last
        # pass), so this times the cache walk alone.
        _, cache_s = _timed(tables._unique_path_cache, repeats=1)
        entry["path_cache_s"] = cache_s
    if baseline and topo.num_routers > BASELINE_MAX_ROUTERS:
        baseline = False
        entry["baseline_skipped"] = (
            f"num_routers > {BASELINE_MAX_ROUTERS}: the per-source Python "
            "BFS loop is deliberately not run at sparse-tier sizes"
        )
    if baseline:
        graph = topo.graph

        def per_source_bfs():
            for s in range(graph.n):
                bfs_distances_reference(graph, s)

        # Same best-of-``repeats`` sampling as the batched timings, so
        # the recorded speedups aren't inflated by one noisy baseline.
        _, per_source_s = _timed(per_source_bfs, repeats=repeats)
        rt = entry["routing_tables"]
        rt["per_source_s"] = per_source_s
        rt["speedup_batched_over_per_source"] = per_source_s / tables_s
    if memory:
        del tables
        entry["memory"] = measure_construction_memory(spec)
    return entry


def run_construction_benchmarks(
    specs: "dict | None" = None,
    baseline: bool = True,
    repeats: int = 2,
    memory: bool = True,
) -> dict:
    """The ``construction`` section of ``BENCH_flitsim.json``."""
    specs = CONSTRUCTION_SPECS if specs is None else specs
    return {
        name: bench_construction_spec(
            spec, baseline=baseline, repeats=repeats, memory=memory
        )
        for name, spec in specs.items()
    }


def run_scale_benchmarks(
    cells: "dict | None" = None,
    warmup: int = 100,
    measure: int = 300,
    seed: int = 1,
    engines=SCALE_ENGINES,
) -> dict:
    """The ``scale`` section of ``BENCH_flitsim.json``.

    Flat-engine-only open-loop cells on the sparse-tier fabrics (no
    reference engine at these sizes; bit-identity is pinned on the small
    golden suites instead).  Records the kernel-over-numpy speedup per
    cell when a compiler is available.
    """
    cells = SCALE_CELLS if cells is None else cells
    return {
        name: bench_cell(
            cell, warmup=warmup, measure=measure, seed=seed,
            engines=_resolve_engines(engines) or ("flat",),
        )
        for name, cell in cells.items()
    }


def run_benchmarks(
    cells: "dict | None" = None,
    warmup: int = 150,
    measure: int = 400,
    seed: int = 1,
    engines=("reference", "flat"),
    construction: bool = True,
    workloads: bool = True,
    faults: bool = True,
    scale: bool = True,
    sweep_resilience: bool = True,
    obs_overhead: bool = True,
    ts_overhead: bool = True,
) -> dict:
    """Run every cell and assemble the ``BENCH_flitsim.json`` document."""
    cells = CANONICAL_CELLS if cells is None else cells
    doc = {
        "benchmark": "flitsim-engine",
        "machine": machine_info(),
        "warmup": warmup,
        "measure": measure,
        "seed": seed,
        "cells": {},
    }
    for name, cell in cells.items():
        doc["cells"][name] = bench_cell(
            cell, warmup=warmup, measure=measure, seed=seed, engines=engines
        )
    if workloads:
        # Closed-loop/fault sections time three engines (reference,
        # flat-numpy, flat) so kernel-vs-numpy is recorded per cell.
        doc["workloads"] = run_workload_benchmarks(seed=seed)
    if faults:
        doc["faults"] = run_fault_benchmarks(
            warmup=warmup, measure=measure, seed=seed
        )
    if construction:
        doc["construction"] = run_construction_benchmarks()
    if scale:
        doc["scale"] = run_scale_benchmarks(seed=seed)
    if sweep_resilience:
        doc["sweep_resilience"] = run_sweep_resilience_benchmark(seed=seed)
    if obs_overhead:
        doc["obs_overhead"] = run_obs_overhead_benchmark(seed=seed)
    if ts_overhead:
        doc["ts_overhead"] = run_ts_overhead_benchmark(seed=seed)
    return doc


def write_bench_json(doc: dict, path="BENCH_flitsim.json"):
    """Atomically write the benchmark document."""
    from repro.utils.export import write_json_artifact

    return write_json_artifact(path, doc)
