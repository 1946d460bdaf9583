"""Fault benchmark 1 — throughput under failure at equal radix.

The dynamic counterpart of Figure 14: instead of removing links from a
static graph and replotting diameter/ASPL, the same progressive link
removal happens *inside the simulator* while uniform traffic flows, on
PolarFly, Slim Fly, Dragonfly, and Jellyfish at comparable scale/radix
(the scaled Table V set).  Every topology gets a fault-free control
curve and a faulted curve from one sweep; the headline comparison is the
degraded accepted throughput at high load — the number Slim Fly's and
Jellyfish's resilience arguments are actually about — plus the drop
accounting and the post-event latency transient.
"""

from common import TABLE_V_SPECS, print_table, run_grid

from repro.experiments import Combo

#: the same failure schedule on every topology (seeded per graph):
#: 10% of links gone in two batches inside the measurement window
FAULTS = "progressive:frac=0.1,steps=2,period=150,start=150,seed=3"

#: direct networks of the scaled Table V set (FT-NCA has no repair path)
DIRECT = ("PF", "SF", "DF1", "JF")

LOADS = (0.4, 0.8)


def test_fault01_resilience_under_load(benchmark):
    combos = []
    for name in DIRECT:
        combos.append(
            Combo(TABLE_V_SPECS[name], "ugal", "uniform", label=f"{name}-ctl")
        )
        combos.append(
            Combo(
                TABLE_V_SPECS[name], "ugal", "uniform",
                faults=FAULTS, label=f"{name}-deg",
            )
        )
    combos.append(
        Combo(
            TABLE_V_SPECS["PF"], "ugal-pf", "uniform",
            faults=FAULTS, label="PF-UGALPF-deg",
        )
    )

    result = benchmark.pedantic(
        lambda: run_grid(combos, loads=LOADS), rounds=1, iterations=1
    )

    rows = []
    for combo in combos:
        cells = [
            result.cells[result.spec.cell(combo, load)["key"]] for load in LOADS
        ]
        high = cells[-1]
        rows.append(
            [
                combo.label,
                f"{high['accepted_load']:.3f}",
                f"{high['avg_latency']:.1f}",
                high.get("dropped_flits", "-"),
                (
                    f"{high['post_fault_avg_latency']:.1f}"
                    if "post_fault_avg_latency" in high
                    else "-"
                ),
            ]
        )
    print_table(
        "Fault 1: accepted throughput under 10% progressive link failure "
        f"(offered {LOADS[-1]})",
        ["config", "accepted", "avg lat", "dropped flits", "post-fault lat"],
        rows,
    )

    by_label = {
        combo.label: result.cells[result.spec.cell(combo, LOADS[0])["key"]]
        for combo in combos
    }
    for name in DIRECT:
        ctl = by_label[f"{name}-ctl"]
        deg = by_label[f"{name}-deg"]
        # The degraded fabric still carries the low-load traffic.
        assert deg["accepted_load"] > 0.5 * LOADS[0], (name, deg)
        # Failures never *help* accepted throughput (small tolerance:
        # these are finite-window measurements).
        assert deg["accepted_load"] <= ctl["accepted_load"] * 1.05, (name,)
        assert deg["fault_applied_events"] >= 1
        assert deg["dropped_flits"] >= 0
