"""Triangle structure of ER_q (paper Section V-C).

PolarFly has exactly ``C(q+1, 3)`` triangles and no quadrangles.  Relative
to a cluster layout they split into

* ``C(q, 2)`` *intra-cluster* triangles — the fan blades, and
* ``C(q, 3)`` *inter-cluster* triangles, exactly one per triplet of
  non-quadric clusters (Theorem V.7 — a 3-(q, 3, 1) style block design).

This module classifies triangles, checks the block design, and evaluates
the closed-form distributions of Table II and the intermediate-vertex type
table (Table III).
"""

from __future__ import annotations

from collections import Counter
from math import comb

from repro.core.layout import ClusterLayout
from repro.core.polarfly import PolarFly

__all__ = [
    "expected_triangle_count",
    "expected_intra_cluster_triangles",
    "expected_inter_cluster_triangles",
    "expected_inter_cluster_distribution",
    "expected_intermediate_type",
    "classify_triangles",
    "triangle_type_distribution",
    "block_design_matrix",
    "intermediate_type_census",
]


# ----------------------------------------------------------------------
# Closed forms from the paper
# ----------------------------------------------------------------------
def expected_triangle_count(q: int) -> int:
    """Proposition V.5: total number of triangles, ``C(q+1, 3)``."""
    return comb(q + 1, 3)


def expected_intra_cluster_triangles(q: int) -> int:
    """Proposition V.6(b): ``C(q, 2)`` triangles internal to clusters."""
    return comb(q, 2)


def expected_inter_cluster_triangles(q: int) -> int:
    """Proposition V.6(a): ``C(q, 3)`` triangles joining three clusters."""
    return comb(q, 3)


def expected_inter_cluster_distribution(q: int) -> dict[str, int]:
    """Table II: inter-cluster triangle counts by vertex-type signature.

    Signatures are sorted strings like ``"v1v1v2"``.  Only odd prime powers
    are classified by the paper; the two congruence classes mod 4 have
    disjoint supports.
    """
    if q % 4 == 1:
        return {
            "v1v1v1": q * (q - 1) * (q - 5) // 24,
            "v1v1v2": 0,
            "v1v2v2": q * (q - 1) ** 2 // 8,
            "v2v2v2": 0,
        }
    if q % 4 == 3:
        return {
            "v1v1v1": 0,
            "v1v1v2": q * (q - 1) * (q - 3) // 8,
            "v1v2v2": 0,
            "v2v2v2": (q + 1) * q * (q - 1) // 24,
        }
    raise ValueError("Table II is stated for odd prime powers q")


def expected_intermediate_type(q: int, type_v: str, type_w: str) -> str:
    """Table III: type of the 2-hop midpoint between *adjacent* ``v, w``.

    ``type_v``/``type_w`` in {"V1", "V2"}; result is "V1" or "V2".  The
    midpoint completes the edge's unique triangle (Property 1.5), so the
    table is forced by which triangle signatures exist in Table II:

    * ``q = 1 (mod 4)`` — only (v1,v1,v1) and (v1,v2,v2) triangles, so
      same-type pairs have a V1 midpoint and mixed pairs a V2 midpoint.
    * ``q = 3 (mod 4)`` — only (v1,v1,v2) and (v2,v2,v2), so same-type
      pairs have a V2 midpoint and mixed pairs a V1 midpoint.
    """
    if type_v not in ("V1", "V2") or type_w not in ("V1", "V2"):
        raise ValueError("Table III covers non-quadric endpoints only")
    same = type_v == type_w
    if q % 4 == 1:
        return "V1" if same else "V2"
    if q % 4 == 3:
        return "V2" if same else "V1"
    raise ValueError("Table III is stated for odd prime powers q")


# ----------------------------------------------------------------------
# Empirical classification
# ----------------------------------------------------------------------
def classify_triangles(
    pf: PolarFly, layout: "ClusterLayout | None" = None
) -> dict[str, list[tuple[int, int, int]]]:
    """Split all triangles into ``intra`` and ``inter`` cluster lists."""
    layout = layout or ClusterLayout(pf)
    intra, inter = [], []
    cluster_of = layout.cluster_of
    for tri in pf.graph.triangles():
        a, b, c = tri
        if cluster_of[a] == cluster_of[b] == cluster_of[c]:
            intra.append(tri)
        else:
            inter.append(tri)
    return {"intra": intra, "inter": inter}


def _signature(pf: PolarFly, tri) -> str:
    return "".join(sorted(pf.vertex_class(v).lower() for v in tri))


def triangle_type_distribution(
    pf: PolarFly, layout: "ClusterLayout | None" = None
) -> dict[str, Counter]:
    """Observed Table-II style distribution (plus the intra side)."""
    split = classify_triangles(pf, layout)
    return {
        "intra": Counter(_signature(pf, t) for t in split["intra"]),
        "inter": Counter(_signature(pf, t) for t in split["inter"]),
    }


def block_design_matrix(
    pf: PolarFly, layout: "ClusterLayout | None" = None
) -> Counter:
    """Triangles per non-quadric cluster triplet.

    Theorem V.7 says this is the all-ones function on the ``C(q, 3)``
    triplets — i.e. the inter-cluster triangles form a block design where
    every 3-subset of clusters appears in exactly one block.
    """
    layout = layout or ClusterLayout(pf)
    counts: Counter = Counter()
    cluster_of = layout.cluster_of
    for tri in pf.graph.triangles():
        clusters = tuple(sorted({int(cluster_of[v]) for v in tri}))
        if len(clusters) == 3:
            counts[clusters] += 1
    return counts


def intermediate_type_census(
    pf: PolarFly, layout: "ClusterLayout | None" = None
) -> dict[tuple[str, str], Counter]:
    """Observed Table III: midpoint types for adjacent non-quadric pairs.

    For every edge between non-quadric vertices, the alternative 2-hop
    path's midpoint (the third vertex of the edge's unique triangle,
    Property 1.5) is classified.  Returns ``{(class_v, class_w): Counter}``
    with unordered endpoint classes.
    """
    census: dict[tuple[str, str], Counter] = {}
    for u, v in pf.graph.edges():
        u, v = int(u), int(v)
        if pf.is_quadric(u) or pf.is_quadric(v):
            continue
        mid = pf.intermediate(u, v)
        key = tuple(sorted((pf.vertex_class(u), pf.vertex_class(v))))
        census.setdefault(key, Counter())[pf.vertex_class(mid)] += 1
    return census
