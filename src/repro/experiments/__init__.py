"""repro.experiments — the unified experiment engine.

One orchestration layer shared by every figure/table benchmark, example
script, and ad-hoc study:

* :mod:`~repro.experiments.registry` — string-spec registries mapping
  ``"polarfly:conc=3,q=7"`` / ``"ugal-pf"`` / ``"uniform"`` to
  constructors (populated by decorators in the topology, routing, and
  traffic modules);
* :mod:`~repro.experiments.spec` — :class:`ExperimentSpec` grids of
  hashable, seed-derived simulation cells;
* :mod:`~repro.experiments.cache` — a content-addressed JSON result
  cache so repeated sweeps only simulate missing cells;
* :mod:`~repro.experiments.runner` — :class:`SweepRunner`, fanning cells
  out over worker processes with bit-identical results at any worker
  count.

Quickstart::

    from repro.experiments import ExperimentSpec, SweepRunner

    spec = ExperimentSpec.grid(
        ["polarfly:conc=2,q=7", "slimfly:conc=2,q=5"],
        ["min", "ugal-pf"],
        ["uniform", "tornado"],
        loads=(0.2, 0.5, 0.8),
        root_seed=7,
    )
    result = SweepRunner.with_default_cache().run(spec)
    print(result.saturation_table())

This ``__init__`` eagerly imports only the dependency-free registry
module (low layers import it from their decorators at class-definition
time); the engine modules — which import the simulator stack — load
lazily via PEP 562 so no import cycle can form.
"""

from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    Registry,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)

__all__ = [
    "Registry",
    "TOPOLOGIES",
    "POLICIES",
    "TRAFFICS",
    "WORKLOADS",
    "FAULTS",
    "Combo",
    "ExperimentSpec",
    "cell_hash",
    "ResultCache",
    "SweepRunner",
    "ExperimentResult",
    "CellError",
    "SweepCellError",
    "simulate_point",
    "run_cell",
    "auto_sim_config",
]

_LAZY = {
    "Combo": "repro.experiments.spec",
    "ExperimentSpec": "repro.experiments.spec",
    "cell_hash": "repro.experiments.spec",
    "ResultCache": "repro.experiments.cache",
    "SweepRunner": "repro.experiments.runner",
    "ExperimentResult": "repro.experiments.runner",
    "CellError": "repro.experiments.runner",
    "SweepCellError": "repro.experiments.runner",
    "simulate_point": "repro.experiments.runner",
    "run_cell": "repro.experiments.runner",
    "auto_sim_config": "repro.experiments.runner",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
