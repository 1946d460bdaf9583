"""Exact path enumeration for small hop budgets.

Used by the Table-VI path-diversity analysis and by fault-tolerance
reasoning: counts *simple* paths (no repeated vertices) of a given length
between vertex pairs.  Depth-limited DFS over CSR neighbor slices; lengths
of interest never exceed 4, so the search tree is tiny compared to the
graph.
"""

from __future__ import annotations

from repro.utils.graph import Graph

__all__ = ["count_paths_of_length", "enumerate_paths", "count_paths_up_to"]


def enumerate_paths(
    graph: Graph, src: int, dst: int, length: int
) -> list[tuple[int, ...]]:
    """All simple paths from ``src`` to ``dst`` with exactly ``length`` hops."""
    if length < 0:
        return []
    if length == 0:
        return [(src,)] if src == dst else []
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(src, (src,))]
    while stack:
        cur, path = stack.pop()
        remaining = length - (len(path) - 1)
        if remaining == 0:
            if cur == dst:
                out.append(path)
            continue
        for nxt in graph.neighbors(cur):
            nxt = int(nxt)
            if nxt in path:
                continue
            # Prune: must still be able to reach dst in the remaining hops
            # (cheap check: if this is the last hop it must land on dst).
            if remaining == 1 and nxt != dst:
                continue
            stack.append((nxt, path + (nxt,)))
    return out


def count_paths_of_length(graph: Graph, src: int, dst: int, length: int) -> int:
    """Number of simple ``length``-hop paths between ``src`` and ``dst``."""
    return len(enumerate_paths(graph, src, dst, length))


def count_paths_up_to(
    graph: Graph, src: int, dst: int, max_length: int
) -> dict[int, int]:
    """Path counts keyed by length for ``1 .. max_length``."""
    return {
        length: count_paths_of_length(graph, src, dst, length)
        for length in range(1, max_length + 1)
    }
