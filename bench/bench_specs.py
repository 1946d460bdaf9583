"""The benchmark's workloads: ``--seed`` -> :class:`ExperimentSpec`.

The seed sets ``root_seed`` (every cell's RNG seed derives from it) and
the ``seed=`` of the fault generators; topology seeds stay fixed so the
graphs — and with them the amount of table and cycle-loop work — are the
same for every seed.  Sizes are chosen so one sample of a workload is
2-3 s of host time on a 2-core box: the driver's budget is ~35 s per
invocation, and a run's cell-wise estimate wants 7-10 samples inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import Combo, ExperimentSpec

__all__ = ["Plan", "WORKLOADS", "build_spec", "warmup_spec", "cell_label"]


@dataclass(frozen=True)
class Plan:
    """What the traced run does for a workload beyond the main pass."""

    #: every k-th cell is re-run on the numpy cycle path
    numpy_every: int
    #: every k-th cell is re-run on the reference engine (0: none — the
    #: reference engine needs minutes on the scale topologies)
    reference_every: int
    #: time one extra ``all_pairs_distances`` to split BFS from candidate
    #: scatter inside the routing-tables build (single-topology workloads)
    time_apsp: bool


WORKLOADS = {
    "fig_sweep_q7": Plan(numpy_every=16, reference_every=24, time_apsp=False),
    "scale_pf37": Plan(numpy_every=1, reference_every=0, time_apsp=True),
    "scale_ps9": Plan(numpy_every=1, reference_every=0, time_apsp=True),
    "closed_loop_faults": Plan(numpy_every=16, reference_every=24, time_apsp=False),
}

#: Table V small set: (topology spec, routing policies simulated on it)
_TABLE_V = (
    ("polarfly:conc=2,q=7", ("min", "ugal", "ugal-pf")),
    ("slimfly:conc=2,q=5", ("min", "ugal")),
    ("dragonfly:a=4,h=2,p=2", ("min", "ugal")),
    ("dragonfly:a=3,h=6,p=2", ("min", "ugal")),
    ("jellyfish:n=57,p=2,r=8,seed=7", ("min", "ugal")),
    ("fattree:k=4,n=3", ("ftnca",)),
)

_COLLECTIVES = (
    "allreduce:algo=ring,size=64",
    "alltoall:size=8",
    "incast:reply=true,size=32",
    "halo:iters=2,size=16",
)


def _fault_specs(seed: int) -> tuple:
    return (
        f"mtbf:count=3,mtbf=300,mttr=250,seed={seed},start=150",
        f"linkflap:count=2,cycle=300,duration=300,seed={seed}",
        f"routerdown:count=1,cycle=350,duration=400,seed={seed}",
    )


def build_spec(workload: str, seed: int) -> ExperimentSpec:
    """The :class:`ExperimentSpec` one sample of ``workload`` runs."""
    if workload == "fig_sweep_q7":
        combos = tuple(
            Combo(topo, policy, traffic)
            for topo, policies in _TABLE_V
            for policy in policies
            for traffic in ("uniform", "tornado")
        )
        return ExperimentSpec(
            combos=combos, loads=(0.5, 0.9), warmup=100, measure=200,
            drain=100, root_seed=seed,
        )
    if workload in ("scale_pf37", "scale_ps9"):
        topo = (
            "polarfly:conc=2,q=37" if workload == "scale_pf37"
            else "polarstar:conc=2,q=9,sq=17"
        )
        # Six short cells, not one long one: a run's estimator takes the
        # fastest sample cell by cell, and finer cells filter more.
        return ExperimentSpec.grid(
            [topo], ["min"], ["uniform"],
            loads=(0.1, 0.14, 0.18, 0.22, 0.26, 0.3), warmup=20, measure=40,
            drain=20, root_seed=seed,
        )
    if workload == "closed_loop_faults":
        combos = []
        for topo in ("polarfly:conc=2,q=7", "polarfly:conc=2,q=9"):
            for policy in ("min", "ugal-pf"):
                combos += [Combo(topo, policy, workload=w) for w in _COLLECTIVES]
                combos += [
                    Combo(topo, policy, "uniform", faults=f)
                    for f in _fault_specs(seed)
                ]
        return ExperimentSpec(
            combos=tuple(combos), loads=(0.6,), warmup=250, measure=500,
            drain=200, root_seed=seed,
        )
    raise KeyError(
        f"unknown workload {workload!r}; valid choices: " + ", ".join(WORKLOADS)
    )


def warmup_spec() -> ExperimentSpec:
    """The throw-away cell run during set-up (lazy imports, kernel bind)."""
    return ExperimentSpec.grid(
        ["polarfly:conc=2,q=3"], ["min"], ["uniform"], loads=(0.3,),
        warmup=20, measure=40, drain=20, root_seed=0,
    )


def cell_label(cell: dict) -> str:
    """Seed-independent human-readable identity of a cell within a spec."""
    parts = [cell["topology"], cell["policy"], cell.get("workload") or cell["traffic"]]
    if cell.get("faults"):
        parts.append(cell["faults"].split(":")[0])
    parts.append(f"load={cell['load']}")
    return "|".join(parts)
