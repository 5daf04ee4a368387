"""Named hypergraph constructions with known transversal numbers.

- generalized triangle on parts V1, V2, V3 with |V1| = floor(k/2),
  |V2| = |V3| = ceil(k/2): three k-edges V1+V2, V1+V3 and V2+V3 (even k)
  or V2 + (V3 minus its last element) (odd k). Transversal number 2.
- complete k-uniform system on v vertices: all k-subsets of [v],
  transversal number v - k + 1 (at v = 2k-3 this is k-2).
- the doubled construction: two generalized triangles plus two complete
  k-uniform systems on 2k-3 vertices, all vertex-disjoint, laid out on
  the lowest unused labels with isolated vertices filling up [n]. It has
  2*C(2k-3, k) + 6 edges and transversal number 2k, and witnesses the
  upper bound for the minimum edge count of a k-uniform system on [n]
  with transversal number 2k when k >= 3 and n >= 7k-5.

Layouts are deterministic so certificates and files are reproducible.
"""

from __future__ import annotations

from math import comb

from .errors import ConstraintError, MvlabError
from .hypergraphs import Hypergraph, hypergraph
from .subsets import k_subset_masks


def generalized_triangle_vertex_count(k: int) -> int:
    return k + (k + 1) // 2


def build_generalized_triangle(k: int, n: int | None = None, offset: int = 0) -> Hypergraph:
    """Three k-edges on k + ceil(k/2) vertices with transversal number 2.

    ``offset`` shifts labels up (for disjoint unions); ``n`` enlarges the
    ground set with isolated vertices.
    """
    if k < 2:
        raise ConstraintError(f"generalized triangle needs k >= 2, got {k}")
    half = k // 2
    ceil_half = (k + 1) // 2
    used = k + ceil_half
    if n is None:
        n = offset + used
    if n < offset + used:
        raise ConstraintError(f"ground set [{n}] too small for {offset + used} labels")
    v1 = list(range(offset + 1, offset + half + 1))
    v2 = list(range(offset + half + 1, offset + half + ceil_half + 1))
    v3 = list(range(offset + half + ceil_half + 1, offset + used + 1))
    if k % 2 == 0:
        third = v2 + v3
    else:
        third = v2 + v3[:-1]
    return hypergraph(n, [v1 + v2, v1 + v3, third])


def build_complete_uniform(v: int, k: int, n: int | None = None, offset: int = 0) -> Hypergraph:
    """All k-subsets of a v-set; transversal number v - k + 1."""
    if not 1 <= k <= v:
        raise ConstraintError(f"complete uniform system needs 1 <= k <= v, got v={v}, k={k}")
    if n is None:
        n = offset + v
    if n < offset + v:
        raise ConstraintError(f"ground set [{n}] too small for {offset + v} labels")
    edges = [m << offset for m in k_subset_masks(v, k)]
    return hypergraph(n, edges)


def build_h_nk(n: int, k: int) -> Hypergraph:
    """Two generalized triangles + two complete systems on 2k-3 vertices.

    k-uniform on [n] with 2*C(2k-3, k) + 6 edges and transversal number
    2k; requires k >= 3 and n >= 7k-5 (the component layout needs 7k-5 or
    7k-6 labels, the rest of [n] stays isolated).
    """
    if k < 3:
        raise ConstraintError(f"doubled construction needs k >= 3, got {k}")
    if n < 7 * k - 5:
        raise ConstraintError(f"doubled construction needs n >= 7k-5 = {7 * k - 5}, got {n}")
    tri = generalized_triangle_vertex_count(k)
    edges: list[int] = []
    offset = 0
    for _ in range(2):
        edges.extend(build_generalized_triangle(k, n=n, offset=offset).edges)
        offset += tri
    for _ in range(2):
        edges.extend(build_complete_uniform(2 * k - 3, k, n=n, offset=offset).edges)
        offset += 2 * k - 3
    out = hypergraph(n, edges)
    expected = 2 * comb(2 * k - 3, k) + 6
    if out.edge_count != expected:
        raise MvlabError(f"H({n}, {k}) laid out {out.edge_count} distinct edges, "
                         f"expected {expected}")
    return out
