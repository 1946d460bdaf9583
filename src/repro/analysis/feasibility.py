"""Design-space feasibility (Figure 1, Figure 2, Table I).

* Figure 1 counts how many network radixes below a ceiling each topology
  family can realize: PolarFly needs ``k - 1`` to be a prime power; Slim
  Fly needs a prime power ``q = 4w + delta`` with ``k = (3q - delta)/2``;
  "PolarFly+" additionally counts radixes reachable by incremental
  expansion (quadric replication raises the max radix by one per step, so
  any radix >= a feasible base radix is reachable — the paper's point is
  the union of base designs and their expansions).
* Figure 2 plots achieved fraction of the diameter-2 Moore bound vs
  degree for PolarFly, Slim Fly, HyperX(L=2) and the Moore graphs.
* Table I is the qualitative criteria matrix.
"""

from __future__ import annotations

from repro.core.polarfly import feasible_q_for_radix, polarfly_order
from repro.topologies.hyperx import hyperx_order, hyperx_radix
from repro.topologies.moore import moore_bound_diameter2
from repro.topologies.slimfly import feasible_slimfly_q, slimfly_order

__all__ = [
    "polarfly_feasible_radixes",
    "slimfly_feasible_radixes",
    "polarfly_plus_feasible_radixes",
    "feasible_radix_counts",
    "moore_efficiency_curve",
    "FEASIBILITY_TABLE",
]


def polarfly_feasible_radixes(max_radix: int) -> list[int]:
    """Radixes ``k <= max_radix`` with ``k - 1`` a prime power."""
    return [k for k in range(3, max_radix + 1) if feasible_q_for_radix(k)]


def slimfly_feasible_radixes(max_radix: int) -> list[int]:
    """Radixes ``k <= max_radix`` realizable by an MMS Slim Fly."""
    return [k for k in range(3, max_radix + 1) if feasible_slimfly_q(k)]


def polarfly_plus_feasible_radixes(max_radix: int) -> list[int]:
    """PolarFly+ (Figure 1): base radixes plus expansion-reachable ones.

    One quadric-replication step raises the binding V1-vertex radix by 2
    without rewiring (Section VI-A), so a deployment can also sit at
    radix ``k_base + 2`` for every feasible base design.  This matches the
    paper's PolarFly+ bar exactly at radix <= 16 and within 1-2 designs at
    the larger ceilings (the paper does not spell out its exact counting
    rule; see EXPERIMENTS.md).
    """
    base = set(polarfly_feasible_radixes(max_radix))
    out = set(base)
    for kb in base:
        if kb + 2 <= max_radix:
            out.add(kb + 2)
    return sorted(out)


def feasible_radix_counts(ceilings=(16, 32, 48, 64, 96, 128)) -> dict:
    """Figure 1's bar data: counts per radix ceiling for SF / PF / PF+."""
    return {
        "ceilings": list(ceilings),
        "SlimFly": [len(slimfly_feasible_radixes(c)) for c in ceilings],
        "PolarFly": [len(polarfly_feasible_radixes(c)) for c in ceilings],
        "PolarFly+": [len(polarfly_plus_feasible_radixes(c)) for c in ceilings],
    }


def moore_efficiency_curve(max_degree: int = 128) -> dict[str, list[tuple[int, float]]]:
    """Figure 2: (degree, % of diameter-2 Moore bound) per topology family."""
    curves: dict[str, list[tuple[int, float]]] = {
        "PolarFly": [],
        "SlimFly": [],
        "HyperX": [],
        "Moore graphs": [(3, 1.0), (7, 1.0)],  # Petersen, Hoffman-Singleton
    }
    for k in range(3, max_degree + 1):
        q = feasible_q_for_radix(k)
        if q:
            curves["PolarFly"].append((k, polarfly_order(q) / moore_bound_diameter2(k)))
        qs = feasible_slimfly_q(k)
        if qs:
            curves["SlimFly"].append((k, slimfly_order(qs) / moore_bound_diameter2(k)))
    for S in range(2, max_degree // 2 + 2):
        k = hyperx_radix(2, S)
        if 3 <= k <= max_degree:
            curves["HyperX"].append((k, hyperx_order(2, S) / moore_bound_diameter2(k)))
    return curves


#: Table I — criteria support per topology ("full" / "partial" / "no").
FEASIBILITY_TABLE = {
    "Fat tree": {
        "direct": "no",
        "modular": "full",
        "expandable": "full",
        "flexible": "full",
        "diameter2": "no",
    },
    "Dragonfly": {
        "direct": "partial",
        "modular": "full",
        "expandable": "full",
        "flexible": "partial",
        "diameter2": "no",
    },
    "HyperX": {
        "direct": "partial",
        "modular": "full",
        "expandable": "full",
        "flexible": "partial",
        "diameter2": "full",
    },
    "OFT": {
        "direct": "no",
        "modular": "partial",
        "expandable": "no",
        "flexible": "full",
        "diameter2": "full",
    },
    "MLFM": {
        "direct": "no",
        "modular": "full",
        "expandable": "no",
        "flexible": "partial",
        "diameter2": "full",
    },
    "Slim Fly": {
        "direct": "full",
        "modular": "full",
        "expandable": "partial",
        "flexible": "partial",
        "diameter2": "full",
    },
    "PolarFly": {
        "direct": "full",
        "modular": "full",
        "expandable": "partial",
        "flexible": "full",
        "diameter2": "full",
    },
}
