"""Workload benchmark 1 — all-reduce completion time across topologies.

The closed-loop analogue of the Table V iso-scale comparison: a ring
all-reduce over every terminal router, run to completion on PolarFly,
Slim Fly, Dragonfly, and Jellyfish at comparable scale/radix (the same
scaled Table V configurations the open-loop figures use), with minimal
and adaptive routing on PolarFly.  The headline metric is the
collective's completion time in cycles — the number a real training or
HPC job experiences — plus the achieved bisection utilization.
"""

from common import TABLE_V_SPECS, print_table, run_grid

from repro.experiments import Combo

ALLREDUCE = "allreduce:algo=ring,size=64"

#: direct networks of the scaled Table V set (the FT's workload story is
#: told by the terminal-injection tests; its radix isn't iso anyway)
DIRECT = ("PF", "SF", "DF1", "JF")


def test_wk01_allreduce_completion(benchmark):
    combos = [
        Combo(TABLE_V_SPECS[name], "min", workload=ALLREDUCE, label=f"{name}-MIN")
        for name in DIRECT
    ]
    combos.append(
        Combo(
            TABLE_V_SPECS["PF"], "ugal-pf", workload=ALLREDUCE,
            label="PF-UGALPF",
        )
    )

    result = benchmark.pedantic(
        lambda: run_grid(combos, loads=(0.0,), max_cycles=100_000),
        rounds=1, iterations=1,
    )

    cells = {}
    for combo in combos:
        cell = result.cells[result.spec.cell(combo, 0.0)["key"]]
        cells[combo.label] = cell
    print_table(
        "Workload 1: ring all-reduce completion time",
        ["config", "cycles", "messages", "p99 msg lat", "bisect util"],
        [
            [
                label,
                c["completion_cycles"],
                c["num_messages"],
                f"{c['p99_msg_latency']:.0f}",
                f"{c['bisection_utilization']:.3f}",
            ]
            for label, c in cells.items()
        ],
    )

    for label, c in cells.items():
        assert c["finished"], f"{label} did not complete"
        assert c["completion_cycles"] > 0
        assert c["completed_messages"] == c["num_messages"]
    # Low-diameter direct networks finish the chain-bound collective in
    # the same ballpark; nobody should be an order of magnitude off.
    times = {label: c["completion_cycles"] for label, c in cells.items()}
    best = min(times.values())
    assert max(times.values()) < 10 * best, times
