"""Shared utilities: seeded RNG helpers, validation, and a compact graph kernel.

These helpers are deliberately dependency-light (numpy only) so every other
subpackage — topology construction, routing, the flit simulator, and the
structural analyses — can share one graph representation and one RNG policy.
"""

from repro.utils.rng import make_rng, derive_seed
from repro.utils.graph import Graph
from repro.utils.export import (
    to_edge_list,
    to_dot,
    to_json,
    cabling_manifest,
    write_json_artifact,
    read_json_artifact,
)

__all__ = [
    "make_rng",
    "derive_seed",
    "Graph",
    "to_edge_list",
    "to_dot",
    "to_json",
    "cabling_manifest",
    "write_json_artifact",
    "read_json_artifact",
]
