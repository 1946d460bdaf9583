"""One benchmark sample, run in a fresh process by ``run.py``.

A fresh process per sample keeps the runner's per-process topology memo
and the weak ``fabric_for`` memo from hiding construction on repeats, and
makes set-up (interpreter, imports, kernel load) a measured quantity.

``--mode sample`` times exactly one region, the production entry every
figure uses: ``SweepRunner(cache=ResultCache(tmp), max_workers=1)
.run(spec, strict=False)``.  ``--mode trace`` instead drives each cell
through the same public call sequence ``repro.experiments.runner.run_cell``
uses, with a span around each call, and re-runs a few cells on the numpy
cycle path and the reference engine.  Either way the last line of stdout
is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.experiments import (  # noqa: E402
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
    ResultCache,
    SweepRunner,
)
from repro.experiments.runner import auto_sim_config  # noqa: E402
from repro.experiments.spec import cell_cost  # noqa: E402
from repro.faults import prepare_fault_policy  # noqa: E402
from repro.flitsim import make_simulator  # noqa: E402
from repro.flitsim._kernel import load_kernel, numpy_fallback  # noqa: E402
from repro.flitsim.flatcore import fabric_for  # noqa: E402
from repro.routing.tables import RoutingTables  # noqa: E402

import bench_checks  # noqa: E402
import bench_specs  # noqa: E402
from bench_spans import Recorder, durations, self_times, span_self_times  # noqa: E402

#: exit code when the C kernel did not load: the numpy fallback is
#: bit-identical but 1.5-6x off in host time, so timing it is meaningless
EXIT_NO_KERNEL = 2


def peak_rss_mb() -> float:
    """This process's own high-water RSS (``VmHWM``).

    Not ``ru_maxrss``: across fork+exec Linux folds the parent's
    high-water mark into the child's, so a small child would report the
    benchmark parent's footprint instead of its own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_kernel_load() -> float:
    """Seconds ``load_kernel()`` took; exits if there is no kernel to time."""
    t = time.perf_counter()
    kernel = load_kernel()
    elapsed = time.perf_counter() - t
    if kernel is None:
        print("bench: C cycle kernel failed to load; refusing to time the "
              "numpy fallback", file=sys.stderr)
        sys.exit(EXIT_NO_KERNEL)
    return elapsed


def check_cells(cells: list, stats_by_key: dict) -> tuple:
    """(label -> [golden, exact] digests, error strings) for a finished run."""
    digests, errors = {}, []
    for cell in cells:
        label = bench_specs.cell_label(cell)
        stats = stats_by_key.get(cell["key"])
        if stats is None:
            errors.append(f"{label}: cell quarantined")
            continue
        digests[label] = [
            bench_checks.golden_digest(stats), bench_checks.exact_digest(stats)
        ]
        errors += [f"{label}: {e}" for e in bench_checks.invariant_errors(stats)]
    return digests, errors


# ----------------------------------------------------------------------
# Untraced sample
# ----------------------------------------------------------------------
class StampedCache(ResultCache):
    """A :class:`ResultCache` that notes the clocks at every commit.

    The runner commits each cell the moment it finishes, so consecutive
    stamps bound one cell's host time — per-cell timings of the untraced
    production path, for one clock read per cell.
    """

    def __init__(self, root):
        super().__init__(root)
        self.stamps: list = []

    def put(self, key: str, doc: dict):
        path = super().put(key, doc)
        self.stamps.append((
            key, time.perf_counter(),
            resource.getrusage(resource.RUSAGE_SELF).ru_utime,
        ))
        return path


def run_sample(workload: str, seed: int, spawned: float, tmp: str) -> dict:
    load_s = timed_kernel_load()
    spec = bench_specs.build_spec(workload, seed)
    cells = spec.cells()
    SweepRunner(cache=None, max_workers=1).run(bench_specs.warmup_spec())
    cache_dir = tempfile.mkdtemp(dir=tmp)
    try:
        cache = StampedCache(cache_dir)
        runner = SweepRunner(cache=cache, max_workers=1)
        setup_s = time.time() - spawned
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = runner.run(spec, strict=False)
        wall_s = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    digests, errors = check_cells(cells, result.cells)
    # label -> [wall, user] seconds from the previous commit (or the start
    # of the timed region) to this cell's commit; the last entry is the
    # curve assembly after the final commit, so the entries add up to the
    # whole region.
    label_of = {c["key"]: bench_specs.cell_label(c) for c in cells}
    stamps = cache.stamps + [("", t0 + wall_s, r1.ru_utime)]
    cell_times, prev = {}, (t0, r0.ru_utime)
    for key, wall, user in stamps:
        cell_times[label_of.get(key, "(assemble)")] = [wall - prev[0], user - prev[1]]
        prev = (wall, user)
    return {
        "cell_times": cell_times,
        "wall_s": wall_s,
        "sys_s": r1.ru_stime - r0.ru_stime,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "load_s": load_s,
        "cells": len(cells),
        "digests": digests,
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Traced driver
# ----------------------------------------------------------------------
class Counts:
    """Work counters taken at the same boundaries as the spans."""

    def __init__(self):
        self.routers = 0
        self.tables_rss_mb = 0.0
        self.select_calls = 0
        self.packets = 0
        self.select_first_s = 0.0
        self.messages = 0
        self.fault_events = 0
        self.dropped_flits = 0
        self.cycles = 0
        self.router_cycles = 0
        self.ejected_flits = 0


def _wrap_select(rec: Recorder, counts: Counts, policy) -> None:
    """Span + packet count around ``policy.select_routes`` on this instance."""
    inner = policy.select_routes
    first = [True]

    def select_routes(srcs, *args, **kwargs):
        counts.select_calls += 1
        counts.packets += len(srcs)
        with rec.span("routing.policies.select") as span:
            routes = inner(srcs, *args, **kwargs)
        if first[0]:
            first[0] = False
            counts.select_first_s += span.end - span.start
        return routes

    policy.select_routes = select_routes


def sim_cycles(cell: dict, stats: dict) -> int:
    """Cycles the cell simulated: the fixed window, or the workload's run."""
    return stats["cycles"] if cell.get("workload") else cell_cost(cell)


def drive_cell(cell: dict, rec: Recorder, counts: Counts, memo: dict, engine=None) -> dict:
    """``run_cell`` spelled out call by call, one span per layer call."""
    topo_spec = cell["topology"]
    if topo_spec not in memo:
        with rec.span("topologies.build"):
            topo = TOPOLOGIES.create(topo_spec)
        counts.routers += topo.num_routers
        rss0 = peak_rss_mb()
        with rec.span("routing.tables.build"):
            tables = RoutingTables(topo)
        counts.tables_rss_mb += peak_rss_mb() - rss0
        with rec.span("flitsim.fabric"):
            fabric_for(topo)
        memo[topo_spec] = (topo, tables)
    topo, tables = memo[topo_spec]
    with rec.span("routing.policies.create"):
        policy = POLICIES.create(cell["policy"], tables)
    traffic = None
    if cell["traffic"]:
        with rec.span("flitsim.traffic.build"):
            traffic = TRAFFICS.create(cell["traffic"], topo)
        traffic.dest_routers = rec.wrap(traffic.dest_routers, "flitsim.traffic.dest")
    faults = None
    if cell.get("faults"):
        with rec.span("faults.prepare"):
            faults = FAULTS.create(cell["faults"], topo)
            prepare_fault_policy(policy, faults, topo)
    _wrap_select(rec, counts, policy)
    config = auto_sim_config(
        policy,
        port_budget=cell["port_budget"],
        num_vcs=cell["num_vcs"],
        vc_depth=cell["vc_depth"],
        packet_size=cell["packet_size"],
    )
    if cell.get("workload"):
        with rec.span("workloads.build"):
            workload = WORKLOADS.create(cell["workload"], topo)
        with rec.span("flitsim.make"):
            sim = make_simulator(
                topo, policy, None, 0.0, config=config, seed=cell["seed"],
                engine=engine, workload=workload, faults=faults,
            )
        with rec.span("flitsim.run"):
            res = sim.run_workload(max_cycles=cell["max_cycles"])
        with rec.span("experiments.runner.stats"):
            stats = {
                "offered_load": cell["load"],
                "accepted_load": res.achieved_throughput,
                "avg_latency": res.avg_packet_latency,
                "p50_latency": res.packet_latency_percentile(50),
                "p99_latency": res.packet_latency_percentile(99),
                "avg_hops": res.avg_hops,
                "cycles": res.cycles,
                "num_endpoints": res.num_endpoints,
                "injected_flits": res.injected_flits,
                "ejected_flits": res.ejected_flits,
                "num_packets": int(len(res.packet_latencies)),
            }
            stats.update(res.summary())
        counts.messages += stats["num_messages"]
    else:
        with rec.span("flitsim.make"):
            sim = make_simulator(
                topo, policy, traffic, float(cell["load"]), config=config,
                seed=cell["seed"], engine=engine, faults=faults,
            )
        with rec.span("flitsim.run"):
            res = sim.run(
                warmup=cell["warmup"], measure=cell["measure"], drain=cell["drain"]
            )
        with rec.span("experiments.runner.stats"):
            stats = {
                "offered_load": res.offered_load,
                "accepted_load": res.accepted_load,
                "avg_latency": res.avg_latency,
                "p50_latency": res.p50_latency,
                "p99_latency": res.p99_latency,
                "avg_hops": res.avg_hops,
                "cycles": res.cycles,
                "num_endpoints": res.num_endpoints,
                "injected_flits": res.injected_flits,
                "ejected_flits": res.ejected_flits,
                "num_packets": int(len(res.latencies)),
            }
    if faults is not None:
        stats.update(sim.fault_result.summary())
        counts.fault_events += stats["fault_events"]
        counts.dropped_flits += stats["dropped_flits"]
    cycles = sim_cycles(cell, stats)
    counts.cycles += cycles
    counts.router_cycles += cycles * topo.num_routers
    counts.ejected_flits += stats["ejected_flits"]
    return stats


def cycle_rate(cells: list, stats_by_key: dict, spans: list) -> float:
    """Simulated cycles of ``cells`` per second of their cycle-loop self time."""
    labels = {bench_specs.cell_label(c) for c in cells}
    busy = sum(
        own for s, own in zip(spans, span_self_times(spans))
        if s.name == "flitsim.run" and s.cell in labels
    )
    return sum(sim_cycles(c, stats_by_key[c["key"]]) for c in cells) / busy


def drive_cells(cells: list, rec: Recorder, counts: Counts, memo: dict, engine=None):
    """Yield ``(cell, stats)`` with a ``bench.cell`` span open around each."""
    for cell in cells:
        with rec.span("bench.cell", cell=bench_specs.cell_label(cell)):
            yield cell, drive_cell(cell, rec, counts, memo, engine=engine)


def rerun(cells: list, memo: dict, stats_by_key: dict, engine=None) -> tuple:
    """Drive ``cells`` again on another cycle path: same cells and seeds, so
    the statistics must be equal and only host time may differ.  Returns
    (simulated cycles per host second, cells whose statistics differ)."""
    rec = Recorder()
    mismatches = sum(
        bench_checks.exact_digest(stats)
        != bench_checks.exact_digest(stats_by_key[cell["key"]])
        for cell, stats in drive_cells(cells, rec, Counts(), memo, engine=engine)
    )
    return cycle_rate(cells, stats_by_key, rec.spans), mismatches


def run_trace(workload: str, seed: int, tmp: str) -> dict:
    plan = bench_specs.WORKLOADS[workload]
    compile_s = timed_kernel_load()  # the parent hands us an empty kernel cache
    spec = bench_specs.build_spec(workload, seed)
    SweepRunner(cache=None, max_workers=1).run(bench_specs.warmup_spec())

    rec, counts, memo, stats_by_key = Recorder(), Counts(), {}, {}
    cache_dir = tempfile.mkdtemp(dir=tmp)
    try:
        cache = ResultCache(cache_dir)
        with rec.span("bench.sweep") as root:
            with rec.span("experiments.spec.expand"):
                cells = spec.cells()
            for cell in cells:
                with rec.span("experiments.cache.get"):
                    cache.get(cell["key"])
            for cell, stats in drive_cells(cells, rec, counts, memo):
                with rec.span("experiments.cache.put"):
                    cache.put(cell["key"], {"cell": cell, "result": stats})
                stats_by_key[cell["key"]] = stats
        cache_bytes = sum(p.stat().st_size for p in Path(cache_dir).glob("??/*.json"))
        t = time.perf_counter()
        warm = SweepRunner(cache=cache, max_workers=1).run(spec, strict=False)
        warm_rerun_s = time.perf_counter() - t
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    digests, errors = check_cells(cells, stats_by_key)
    if warm.cache_hits != len(cells) or any(
        bench_checks.exact_digest(warm.cells.get(key)) != bench_checks.exact_digest(stats)
        for key, stats in stats_by_key.items()
    ):
        errors.append("warm re-run on the populated cache did not replay every cell")

    numpy_cells = cells[:: plan.numpy_every]
    with numpy_fallback():
        numpy_rate, numpy_bad = rerun(numpy_cells, memo, stats_by_key)
    if numpy_bad:
        errors.append(f"{numpy_bad} numpy-path cell(s) differ from the kernel path")
    reference_rate, reference_bad = 0.0, 0
    if plan.reference_every:
        reference_rate, reference_bad = rerun(
            cells[:: plan.reference_every], memo, stats_by_key, engine="reference"
        )
    if reference_bad:
        errors.append(f"{reference_bad} reference-engine cell(s) differ from the kernel path")

    apsp_s = 0.0
    if plan.time_apsp:
        (topo, _tables), = memo.values()
        t = time.perf_counter()
        topo.graph.all_pairs_distances(dtype=np.int16)
        apsp_s = time.perf_counter() - t

    spans = rec.spans
    own = self_times(spans)
    total = {name: sum(durations(spans, name)) for name in own}
    traced_wall = root.end - root.start
    cell_s = sorted(durations(spans, "bench.cell"))
    select_s = total["routing.policies.select"]
    cycle_self_s = own["flitsim.run"]
    layers = {
        "topologies.build_s": total["topologies.build"],
        "topologies.routers": counts.routers,
        "utils.graph.apsp_s": apsp_s,
        "routing.tables.build_s": total["routing.tables.build"],
        "routing.tables.rss_mb": counts.tables_rss_mb,
        "routing.policies.create_s": total["routing.policies.create"],
        "routing.policies.select_s": select_s,
        "routing.policies.select_first_s": counts.select_first_s,
        "routing.policies.select_calls": counts.select_calls,
        "routing.policies.packets": counts.packets,
        "routing.policies.us_per_packet": 1e6 * select_s / counts.packets,
        "flitsim.traffic.build_s": total.get("flitsim.traffic.build", 0.0),
        "flitsim.traffic.dest_s": total.get("flitsim.traffic.dest", 0.0),
        "workloads.build_s": total.get("workloads.build", 0.0),
        "workloads.messages": counts.messages,
        "faults.prepare_s": total.get("faults.prepare", 0.0),
        "faults.events": counts.fault_events,
        "faults.dropped_flits": counts.dropped_flits,
        "flitsim.fabric_s": total["flitsim.fabric"],
        "flitsim.make_s": total["flitsim.make"],
        "flitsim.run_s": total["flitsim.run"],
        "flitsim.cycle_self_s": cycle_self_s,
        "flitsim.cycles": counts.cycles,
        "flitsim.ejected_flits": counts.ejected_flits,
        "flitsim.cycles_per_s": counts.cycles / cycle_self_s,
        "flitsim.ns_per_router_cycle": 1e9 * cycle_self_s / counts.router_cycles,
        "flitsim.kernel.compile_s": compile_s,
        "flitsim.numpy.cycles_per_s": numpy_rate,
        "flitsim.kernel_over_numpy": cycle_rate(numpy_cells, stats_by_key, spans) / numpy_rate,
        "flitsim.reference.cycles_per_s": reference_rate,
        "flitsim.reference.mismatches": reference_bad,
        "experiments.spec.expand_s": total["experiments.spec.expand"],
        "experiments.spec.cells": len(cells),
        "experiments.cache.put_s": total["experiments.cache.put"],
        "experiments.cache.get_s": total["experiments.cache.get"],
        "experiments.cache.bytes": cache_bytes,
        "experiments.runner.stats_s": total["experiments.runner.stats"],
        "experiments.runner.cell_p50_s": cell_s[len(cell_s) // 2],
        "experiments.runner.cell_max_s": cell_s[-1],
        "experiments.runner.warm_rerun_s": warm_rerun_s,
        "bench.layer_coverage": sum(
            v for name, v in own.items() if not name.startswith("bench.")
        ) / traced_wall,
    }
    return {
        "traced_wall_s": traced_wall,
        "layers": layers,
        "cells": len(cells),
        "digests": digests,
        "errors": errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(bench_specs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("sample", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() in the parent just before this process started")
    ap.add_argument("--tmp", required=True, help="directory for the temporary ResultCache")
    args = ap.parse_args(argv)
    if args.mode == "sample":
        out = run_sample(args.workload, args.seed, args.spawned, args.tmp)
    else:
        out = run_trace(args.workload, args.seed, args.tmp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
