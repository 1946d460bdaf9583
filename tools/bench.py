#!/usr/bin/env python
"""CLI for the perf harness — writes BENCH_flitsim.json.

    PYTHONPATH=src python tools/bench.py [--out PATH] [--measure N]
        [--warmup N] [--cells name,name] [--check RATIO]
        [--no-construction] [--check-construction SLACK]
        [--no-sweep-resilience] [--no-obs-overhead] [--no-ts-overhead]

``--check RATIO`` exits nonzero when any benchmarked cell's
flat-over-reference speedup falls below RATIO — the CI perf job runs
with ``--check 1.0`` so a regression that makes the flat engine slower
than the reference fails the build.  Workload, fault and scale cells
also record a kernel-over-numpy speedup (the flat engine timed with and
without the C cycle kernel); the same RATIO gates it, so losing the
kernel path's advantage on closed-loop/fault cells or at large N
(PolarFly q=53, PolarStar (11,25)) fails too.  When no
compiler is present the kernel cells are skipped with a visible notice
instead of gating a meaningless 1x ratio.  The ``sweep_resilience``
section times the crash-resilient sweep scheduler against a bare
``pool.map`` of the same grid; ``--check`` fails the run when the
scheduler's clean-path overhead exceeds its committed gate.  The
``obs_overhead`` section likewise times the fully instrumented serial
sweep path with ``$REPRO_OBS`` unset against a bare ``run_cell`` loop;
``--check`` fails the run when disabled observability costs more than
its committed gate (1.03x).  The ``ts_overhead`` section times the
windows-off ``run_cell`` path against the seed execution spine (a
direct ``make_simulator(...).run(...)`` loop); ``--check`` fails the
run when dormant time-series collection costs more than its committed
gate (1.05x).

``--check-construction SLACK`` guards the construction trajectory: the
previously committed ``--out`` file is read *before* it is overwritten,
and the run fails when the batched q=19 ``RoutingTables`` build loses
its speedup over the seed per-source path, or when that speedup falls
below the committed baseline's by more than SLACK x.  Both signals are
same-machine ratios, so the gate is robust to CI runners being slower
or faster than the machine that committed the baseline.  It also gates
construction memory in bytes, which needs no ratio at all: the q=53
tracemalloc peak up to the end of the ``RoutingTables`` build must stay
within 3x the distance matrix plus candidate table it returns (the
row-streamed build reads 1.3x; the one-block fused build it replaced
read 12x).
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.experiments.perfbench import (  # noqa: E402
    CANONICAL_CELLS,
    CONSTRUCTION_GATE,
    CONSTRUCTION_MEMORY_GATE,
    run_benchmarks,
    write_bench_json,
)


def _load_committed_construction(path: str) -> dict:
    """The ``construction`` section of the committed baseline, or {}."""
    try:
        with open(path) as fh:
            return json.load(fh).get("construction", {})
    except (OSError, ValueError):
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_flitsim.json")
    parser.add_argument("--warmup", type=int, default=150)
    parser.add_argument("--measure", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--cells",
        default=None,
        help="comma-separated cell names (default: all canonical cells)",
    )
    parser.add_argument(
        "--check",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail (exit 1) if any cell's flat/reference speedup < RATIO",
    )
    parser.add_argument(
        "--no-construction",
        action="store_true",
        help="skip the construction benchmark section",
    )
    parser.add_argument(
        "--no-workloads",
        action="store_true",
        help="skip the closed-loop workload benchmark section",
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the resilience-under-load (fault timeline) section",
    )
    parser.add_argument(
        "--no-scale",
        action="store_true",
        help="skip the sparse-tier (flat-engine-only) scale cells",
    )
    parser.add_argument(
        "--no-sweep-resilience",
        action="store_true",
        help="skip the sweep-scheduler overhead cell",
    )
    parser.add_argument(
        "--no-obs-overhead",
        action="store_true",
        help="skip the observability-overhead cell",
    )
    parser.add_argument(
        "--no-ts-overhead",
        action="store_true",
        help="skip the time-series (windows-off) overhead cell",
    )
    parser.add_argument(
        "--check-construction",
        type=float,
        default=None,
        metavar="SLACK",
        help=(
            "fail (exit 1) if the q=19 RoutingTables batched-over-per-source "
            "speedup drops below 1.0, or below the committed baseline's "
            "speedup by more than SLACK x, or if the q=53 tables build's "
            "traced peak exceeds 3 x (dist + candidate table) bytes"
        ),
    )
    args = parser.parse_args(argv)
    if args.check_construction is not None and args.no_construction:
        parser.error(
            "--check-construction requires the construction benchmark; "
            "drop --no-construction"
        )

    cells = CANONICAL_CELLS
    if args.cells:
        names = [c.strip() for c in args.cells.split(",") if c.strip()]
        unknown = sorted(set(names) - set(CANONICAL_CELLS))
        if unknown:
            parser.error(
                f"unknown cells {unknown}; have {sorted(CANONICAL_CELLS)}"
            )
        cells = {name: CANONICAL_CELLS[name] for name in names}

    committed = _load_committed_construction(args.out)
    doc = run_benchmarks(
        cells=cells,
        warmup=args.warmup,
        measure=args.measure,
        seed=args.seed,
        construction=not args.no_construction,
        workloads=not args.no_workloads,
        faults=not args.no_faults,
        scale=not args.no_scale,
        sweep_resilience=not args.no_sweep_resilience,
        obs_overhead=not args.no_obs_overhead,
        ts_overhead=not args.no_ts_overhead,
    )
    path = write_bench_json(doc, args.out)

    failed = []
    if not doc["machine"]["flat_kernel"]:
        print(
            "NOTICE: C cycle kernel unavailable (no compiler/cffi or "
            "REPRO_FLAT_KERNEL=0) — kernel-vs-numpy cells skipped; 'flat' "
            "numbers reflect the numpy cycle path"
        )
    for name, cell in doc["cells"].items():
        ref = cell["engines"]["reference"]["cycles_per_sec"]
        flat = cell["engines"]["flat"]["cycles_per_sec"]
        speedup = cell["speedup_flat_over_reference"]
        print(
            f"{name:28s} reference {ref:9.0f} c/s   flat {flat:9.0f} c/s   "
            f"speedup {speedup:.2f}x"
        )
        if args.check is not None and speedup < args.check:
            failed.append(
                f"{name} speedup {speedup:.2f}x < required {args.check:.2f}x"
            )

    for name, entry in doc.get("workloads", {}).items():
        line = (
            f"{name:28s} completion {entry['completion_cycles']:6d} cyc   "
            f"msgs {entry['num_messages']:5d}   bisect "
            f"{entry['bisection_utilization']:.3f}"
        )
        if "speedup_flat_over_reference" in entry:
            line += f"   speedup {entry['speedup_flat_over_reference']:.2f}x"
        if "speedup_kernel_over_numpy" in entry:
            line += f"   kernel {entry['speedup_kernel_over_numpy']:.2f}x"
        print(line)
        if args.check is not None:
            speedup = entry.get("speedup_flat_over_reference")
            if speedup is not None and speedup < args.check:
                failed.append(
                    f"workload {name} speedup {speedup:.2f}x < required "
                    f"{args.check:.2f}x"
                )
            kernel = entry.get("speedup_kernel_over_numpy")
            if kernel is not None and kernel < args.check:
                failed.append(
                    f"workload {name} kernel-over-numpy {kernel:.2f}x < "
                    f"required {args.check:.2f}x"
                )

    for name, entry in doc.get("faults", {}).items():
        eng = entry["engines"]
        line = (
            f"{name:28s} reference {eng['reference']['cycles_per_sec']:9.0f} "
            f"c/s   flat {eng['flat']['cycles_per_sec']:9.0f} c/s   "
            f"drops {entry['dropped_flits']:4d}"
        )
        if "speedup_flat_over_reference" in entry:
            speedup = entry["speedup_flat_over_reference"]
            line += f"   speedup {speedup:.2f}x"
            if args.check is not None and speedup < args.check:
                failed.append(
                    f"fault cell {name} speedup {speedup:.2f}x < required "
                    f"{args.check:.2f}x"
                )
        if "speedup_kernel_over_numpy" in entry:
            kernel = entry["speedup_kernel_over_numpy"]
            line += f"   kernel {kernel:.2f}x"
            if args.check is not None and kernel < args.check:
                failed.append(
                    f"fault cell {name} kernel-over-numpy {kernel:.2f}x < "
                    f"required {args.check:.2f}x"
                )
        print(line)

    for name, entry in doc.get("construction", {}).items():
        rt = entry["routing_tables"]
        line = (
            f"{name:28s} N={entry['num_routers']:<5d} topo "
            f"{entry['topology_s'] * 1e3:7.1f} ms   tables "
            f"{rt['batched_s'] * 1e3:7.1f} ms   cand "
            f"{entry['candidate_table']['batched_s'] * 1e3:7.1f} ms"
        )
        if "speedup_batched_over_per_source" in rt:
            line += f"   tables speedup {rt['speedup_batched_over_per_source']:.1f}x"
        mem = entry.get("memory", {})
        if "peak_rss_kb" in mem:
            line += f"   peakRSS {mem['peak_rss_kb'] / 1024:.0f} MB"
        elif "traced_peak_bytes" in mem:
            line += f"   traced {mem['traced_peak_bytes'] / 2**20:.0f} MB"
        print(line)

    for name, entry in doc.get("scale", {}).items():
        parts = [
            f"{eng} {val['cycles_per_sec']:8.0f} c/s"
            for eng, val in entry["engines"].items()
        ]
        line = f"{name:28s} " + "   ".join(parts)
        if "speedup_kernel_over_numpy" in entry:
            kernel = entry["speedup_kernel_over_numpy"]
            line += f"   kernel {kernel:.2f}x"
            if args.check is not None and kernel < args.check:
                failed.append(
                    f"scale cell {name} kernel-over-numpy {kernel:.2f}x < "
                    f"required {args.check:.2f}x"
                )
        print(line)

    sr = doc.get("sweep_resilience")
    if sr:
        overhead = sr["overhead_vs_pool_map"]
        print(
            f"{'sweep_resilience':28s} scheduler {sr['scheduler_s']:.2f} s   "
            f"pool.map {sr['pool_map_s']:.2f} s   overhead {overhead:.2f}x "
            f"(gate {sr['max_overhead']:.2f}x)"
        )
        if args.check is not None and overhead > sr["max_overhead"]:
            failed.append(
                f"sweep_resilience: scheduler overhead {overhead:.2f}x > "
                f"allowed {sr['max_overhead']:.2f}x over pool.map"
            )

    ob = doc.get("obs_overhead")
    if ob:
        overhead = ob["overhead_disabled_vs_seed"]
        print(
            f"{'obs_overhead':28s} disabled {ob['disabled_s']:.2f} s   "
            f"seed {ob['bare_s']:.2f} s   overhead {overhead:.2f}x "
            f"(gate {ob['max_overhead']:.2f}x)   enabled "
            f"{ob['overhead_enabled_vs_disabled']:.2f}x (informational)"
        )
        if args.check is not None and overhead > ob["max_overhead"]:
            failed.append(
                f"obs_overhead: disabled-path observability overhead "
                f"{overhead:.2f}x > allowed {ob['max_overhead']:.2f}x"
            )

    ts = doc.get("ts_overhead")
    if ts:
        overhead = ts["overhead_off_vs_seed"]
        print(
            f"{'ts_overhead':28s} windows-off {ts['windows_off_s']:.2f} s   "
            f"seed {ts['bare_s']:.2f} s   overhead {overhead:.2f}x "
            f"(gate {ts['max_overhead']:.2f}x)   windowed "
            f"{ts['overhead_on_vs_off']:.2f}x (informational)"
        )
        if args.check is not None and overhead > ts["max_overhead"]:
            failed.append(
                f"ts_overhead: windows-off time-series overhead "
                f"{overhead:.2f}x > allowed {ts['max_overhead']:.2f}x"
            )

    if args.check_construction is not None and not args.no_construction:
        gate = doc["construction"][CONSTRUCTION_GATE]["routing_tables"]
        speedup = gate.get("speedup_batched_over_per_source")
        if speedup is not None and speedup < 1.0:
            failed.append(
                f"construction {CONSTRUCTION_GATE}: batched RoutingTables "
                f"build only {speedup:.2f}x the per-source path"
            )
        old = committed.get(CONSTRUCTION_GATE, {}).get("routing_tables", {})
        old_speedup = old.get("speedup_batched_over_per_source")
        if old_speedup is None or speedup is None:
            print(
                f"note: no committed construction baseline for "
                f"{CONSTRUCTION_GATE}; baseline comparison skipped "
                f"(absolute speedup check still applies)"
            )
        elif speedup * args.check_construction < old_speedup:
            # Both speedups are same-machine ratios, so this comparison
            # survives CI runners slower/faster than the baseline box.
            failed.append(
                f"construction {CONSTRUCTION_GATE}: RoutingTables speedup "
                f"{speedup:.1f}x < committed {old_speedup:.1f}x / "
                f"{args.check_construction:.1f} slack"
            )

        mem = doc["construction"][CONSTRUCTION_MEMORY_GATE]["memory"]
        held = mem["dist_bytes"] + mem["candidate_table_bytes"]
        if mem["tables_traced_peak_bytes"] > 3 * held:
            failed.append(
                f"construction {CONSTRUCTION_MEMORY_GATE}: tables build "
                f"peak {mem['tables_traced_peak_bytes'] / 2**20:.0f} MB > 3 x "
                f"{held / 2**20:.0f} MB (dist + candidate table)"
            )

    print(f"wrote {path}")
    if failed:
        for msg in failed:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
