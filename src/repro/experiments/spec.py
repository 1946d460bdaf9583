"""Experiment specifications: the declarative half of the sweep engine.

An :class:`ExperimentSpec` names a grid of simulation *cells* — each cell
one ``(topology, policy, traffic, load)`` point plus the simulation
window — entirely with registry spec strings and numbers.  That makes a
cell:

* **hashable** — :func:`cell_hash` keys the on-disk result cache;
* **portable** — a plain dict of primitives crosses process boundaries
  without pickling live simulator objects;
* **reproducible** — every cell's RNG seed is derived from the spec's
  root seed and the cell's own coordinates, so results are bit-identical
  regardless of worker count, execution order, or cache state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.utils.rng import derive_seed
from repro.utils.validation import check_sim_windows

__all__ = [
    "Combo",
    "ExperimentSpec",
    "cell_hash",
    "cell_cost",
    "CELL_VERSION",
]

#: bump to invalidate cached artifacts when cell semantics change
#: (5: one version for every cell — windowed cells, which carried 5
#: alone since they gained their ``timeseries`` block, no longer differ
#: from the rest.  4: dynamic fault-injection cells — optional fault
#: axis; fault-free cell hashes unchanged.  3: closed-loop workload
#: cells — workload axis, run-to-completion windows — joining the v2
#: synchronous-router-phase protocol)
CELL_VERSION = 5


@dataclass(frozen=True)
class Combo:
    """One curve of a sweep: a (topology, policy, traffic) triple — or,
    for closed-loop cells, a (topology, policy, workload) triple —
    optionally under a fault timeline.

    Spec strings are canonicalized on construction so equal combos
    compare and hash equally however the caller spelled them.  ``label``
    is presentation-only and excluded from cache keys.  Exactly one of
    ``traffic`` (open loop) and ``workload`` (closed loop) must be set;
    ``faults`` is orthogonal and composes with either.
    """

    topology: str
    policy: str
    traffic: str = ""
    label: str = ""
    workload: str = ""
    faults: str = ""

    def __post_init__(self):
        object.__setattr__(self, "topology", TOPOLOGIES.canonical(self.topology))
        object.__setattr__(self, "policy", POLICIES.canonical(self.policy))
        if bool(self.traffic) == bool(self.workload):
            raise ValueError(
                "combo needs exactly one of traffic= (open loop) or "
                "workload= (closed loop)"
            )
        if self.workload:
            object.__setattr__(self, "workload", WORKLOADS.canonical(self.workload))
        else:
            object.__setattr__(self, "traffic", TRAFFICS.canonical(self.traffic))
        if self.faults:
            object.__setattr__(self, "faults", FAULTS.canonical(self.faults))
        if not self.label:
            label = f"{self.topology}|{self.policy}|{self.workload or self.traffic}"
            if self.faults:
                label += f"|{self.faults}"
            object.__setattr__(self, "label", label)


@dataclass(frozen=True)
class ExperimentSpec:
    """A full sweep: combos x offered loads, plus the simulation window.

    ``num_vcs``/``vc_depth`` of ``None`` mean "derive from the policy":
    enough virtual channels for the policy's worst-case hop count and a
    per-port flit budget of ``port_budget`` split across them (the
    paper's constant-buffer methodology).
    """

    combos: tuple = ()
    loads: tuple = (0.2, 0.5, 0.8)
    warmup: int = 600
    measure: int = 1200
    drain: int = 300
    root_seed: int = 0
    port_budget: int = 32
    num_vcs: "int | None" = None
    vc_depth: "int | None" = None
    packet_size: int = 4
    #: cycle budget for closed-loop (workload) cells; open-loop cells
    #: use the warmup/measure/drain window instead
    max_cycles: int = 200_000
    #: time-series window width in cycles; 0 (default) disables
    #: windowed collection — cells then hash and validate exactly as
    #: before this field existed
    window: int = 0

    def __post_init__(self):
        combos = tuple(
            c if isinstance(c, Combo) else Combo(*c) for c in self.combos
        )
        if not combos:
            raise ValueError("ExperimentSpec needs at least one combo")
        object.__setattr__(self, "combos", combos)
        loads = tuple(float(x) for x in self.loads)
        if not loads:
            raise ValueError("ExperimentSpec needs at least one load")
        object.__setattr__(self, "loads", loads)
        check_sim_windows(self.warmup, self.measure, self.drain)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def grid(cls, topologies, policies, traffics, **kwargs) -> "ExperimentSpec":
        """Full cross product of topology x policy x traffic specs."""
        combos = tuple(
            Combo(t, p, tr)
            for t in _aslist(topologies)
            for p in _aslist(policies)
            for tr in _aslist(traffics)
        )
        return cls(combos=combos, **kwargs)

    @classmethod
    def workload_grid(
        cls, topologies, policies, workloads, loads=(0.0,), **kwargs
    ) -> "ExperimentSpec":
        """Closed-loop cross product: topology x policy x workload.

        ``loads`` defaults to a single dummy point — a workload cell
        runs to completion rather than at an offered load, so the load
        axis only multiplies seeds (useful for replicated collectives).
        """
        combos = tuple(
            Combo(t, p, workload=w)
            for t in _aslist(topologies)
            for p in _aslist(policies)
            for w in _aslist(workloads)
        )
        return cls(combos=combos, loads=loads, **kwargs)

    @classmethod
    def fault_grid(
        cls, topologies, policies, traffics, faults, **kwargs
    ) -> "ExperimentSpec":
        """Resilience-under-load cross product with a fault axis.

        ``faults`` entries of ``""`` give fault-free control curves in
        the same spec, so degraded and intact saturation loads come out
        of one sweep.  (Closed-loop faulted combos are built directly:
        ``Combo(t, p, workload=w, faults=f)``.)
        """
        combos = tuple(
            Combo(t, p, tr, faults=f)
            for t in _aslist(topologies)
            for p in _aslist(policies)
            for tr in _aslist(traffics)
            for f in _aslist(faults)
        )
        return cls(combos=combos, **kwargs)

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def cell(self, combo: Combo, load: float) -> dict:
        """The primitive-only execution record for one grid point."""
        load = float(load)
        digest = _trace_digest(combo.workload) if combo.workload else None
        workload = f"trace:sha256={digest}" if digest else combo.workload
        cell = {
            "version": CELL_VERSION,
            "topology": combo.topology,
            "policy": combo.policy,
            "traffic": combo.traffic,
            "load": load,
            "warmup": int(self.warmup),
            "measure": int(self.measure),
            "drain": int(self.drain),
            "port_budget": int(self.port_budget),
            "num_vcs": self.num_vcs,
            "vc_depth": self.vc_depth,
            "packet_size": int(self.packet_size),
            # The seed axis: workload cells key on the workload spec
            # (prefixed so a traffic and a workload never collide), and
            # faulted cells additionally on the fault spec — fault-free
            # cells derive exactly the pre-fault-axis seeds.
            "seed": derive_seed(
                self.root_seed, combo.topology, combo.policy,
                f"wl:{workload}" if workload else combo.traffic,
                repr(load),
                *((f"ft:{combo.faults}",) if combo.faults else ()),
            ),
        }
        if combo.faults:
            # Only faulted cells carry the field: fault-free cell keys
            # (and therefore hashes) are unchanged by the fault axis,
            # so the v4 version bump refreshes stale artifacts in place.
            cell["faults"] = combo.faults
        if combo.workload:
            # Only closed-loop cells carry the workload fields: open-loop
            # cell *keys* are unchanged, so the v3 version bump refreshes
            # their stale artifacts in place instead of orphaning them
            # (the invalidation design cell_hash documents).  The
            # open-loop window is dropped symmetrically — a workload
            # runs to completion, so warmup/measure/drain must not
            # perturb its cache key.
            cell["workload"] = combo.workload
            cell["max_cycles"] = int(self.max_cycles)
            for window in ("warmup", "measure", "drain"):
                del cell[window]
            if digest:
                # A trace seeds and keys by its bytes, not its path: a
                # moved trace hits the cache, an edited one misses it.
                cell["trace_sha256"] = digest
        if self.window:
            # Only windowed cells carry the field: enabling time-series
            # collection changes the key (a windowed result is a
            # superset) while the non-windowed fleet's keys stay
            # byte-for-byte unchanged.
            cell["window"] = int(self.window)
        cell["key"] = cell_hash(cell)
        return cell

    def cells(self) -> list:
        """All cells, combo-major then load-major (deterministic order)."""
        return [self.cell(combo, load) for combo in self.combos for load in self.loads]

    def describe(self) -> str:
        return (
            f"{len(self.combos)} combo(s) x {len(self.loads)} load(s) = "
            f"{len(self.combos) * len(self.loads)} cells "
            f"(warmup={self.warmup}, measure={self.measure}, drain={self.drain}, "
            f"root_seed={self.root_seed})"
        )


def cell_hash(cell: dict) -> str:
    """Content hash of a cell (sans presentation fields) — the cache key.

    ``version`` is deliberately excluded: a :data:`CELL_VERSION` bump
    keeps the same keys and invalidates through the runner's version
    check, so stale artifacts are overwritten in place rather than
    orphaned forever under dead keys.  A trace cell's ``workload`` path
    is excluded too: its ``trace_sha256`` names the content.
    """
    doc = {k: v for k, v in cell.items() if k not in ("key", "version")}
    if "trace_sha256" in doc:
        del doc["workload"]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _trace_digest(workload: str) -> "str | None":
    """SHA-256 of a ``trace`` workload's file; None for other workloads."""
    name, kwargs = WORKLOADS.parse(workload)
    if name != "trace" or "path" not in kwargs:
        return None
    with open(str(kwargs["path"]), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def cell_cost(cell: dict) -> int:
    """Simulated-cycle count of a cell — the scheduler's cost unit.

    Open-loop cells simulate exactly ``warmup + measure + drain``
    cycles; closed-loop (workload) cells are bounded by ``max_cycles``.
    The runner derives per-cell wall-clock timeouts from this.
    """
    if cell.get("workload"):
        return int(cell.get("max_cycles", 200_000))
    return int(
        cell.get("warmup", 0) + cell.get("measure", 0) + cell.get("drain", 0)
    )


def _aslist(x):
    return [x] if isinstance(x, str) else list(x)
