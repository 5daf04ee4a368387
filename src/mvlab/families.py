"""The three set-based graph families and their metric structure.

Vertices are k-subsets (and, for the bipartite family, (n-k)-subsets) of
[n] = {1, ..., n}, encoded as bitmasks via :mod:`mvlab.subsets`.

- kneser: vertices are k-subsets, edges join disjoint sets. Supported for
  n >= 2k+1 and k >= 2 (the connected, non-complete regime). For
  n >= 3k-1 the diameter is 2.
- bipartite-kneser: vertices are the k-subsets and the (n-k)-subsets,
  edges join comparable pairs (A subset of B). Supported for n >= 2k+1,
  k >= 2; the size classes are then distinct, so the class of a vertex is
  its cardinality. Complementation S -> [n] minus S is an automorphism
  swapping the classes.
- johnson: vertices are k-subsets, edges join pairs with |A cap B| = k-1.
  Supported for n >= k+2, k >= 2. Distance is k - |A cap B|.

Enumeration order is colex within each size class (k-sets first for the
bipartite family), which makes vertex index = colex rank and keeps every
certificate deterministic.

Distances exist in one form only: the BFS layers of ``GraphContext``,
``layers[s][d]`` being the vertices at distance d from s (the tests check
them against networkx). ``GraphContext`` builds each adjacency row from
the holder masks of the ground elements (the vertices that contain each
one). Every family is vertex-transitive, so vertex 0's BFS gives the
eccentricity e of every vertex, and each other BFS takes the vertices it
has not seen by depth e-1 as its last layer without testing them: on the
diameter-2 K(25,2) each source after vertex 0 reads only its own row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from math import comb
from operator import and_, or_

from .errors import ConstraintError, DomainError
from .subsets import (
    KSubset,
    MAX_GROUND_SET,
    iter_bits,
    k_subset_masks,
)

# Adjacency bitmask rows and BFS layers are materialized only below this
# vertex count.
CONTEXT_VERTEX_CAP = 4096


class FamilyKind(str, Enum):
    KNESER = "kneser"
    BIPARTITE_KNESER = "bipartite-kneser"
    JOHNSON = "johnson"


@dataclass(frozen=True)
class FamilyGraph:
    """Immutable description of one graph from the three families."""

    kind: FamilyKind
    n: int
    k: int

    def __post_init__(self):
        n, k = self.n, self.k
        if n > MAX_GROUND_SET:
            raise ConstraintError(f"ground set size {n} exceeds {MAX_GROUND_SET}")
        if k < 2:
            raise ConstraintError(f"{self.kind.value} requires k >= 2, got k={k}")
        if self.kind in (FamilyKind.KNESER, FamilyKind.BIPARTITE_KNESER):
            if n < 2 * k + 1:
                raise ConstraintError(
                    f"{self.kind.value} requires n >= 2k+1, got n={n}, k={k}")
        else:  # johnson
            if n < k + 2:
                raise ConstraintError(f"johnson requires n >= k+2, got n={n}, k={k}")

    # ------------------------------------------------------------------
    # vertex set

    @property
    def vertex_count(self) -> int:
        if self.kind is FamilyKind.BIPARTITE_KNESER:
            return 2 * comb(self.n, self.k)
        return comb(self.n, self.k)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> list[KSubset]:
        """All vertices, colex-ordered within each size class."""
        return [KSubset(self.n, m) for m in _vertex_masks(self)]


# ----------------------------------------------------------------------
# constructors and the family spec string format


def kneser(n: int, k: int) -> FamilyGraph:
    return FamilyGraph(FamilyKind.KNESER, n, k)


def bipartite_kneser(n: int, k: int) -> FamilyGraph:
    return FamilyGraph(FamilyKind.BIPARTITE_KNESER, n, k)


def johnson(n: int, k: int) -> FamilyGraph:
    return FamilyGraph(FamilyKind.JOHNSON, n, k)


_FAMILY_SPEC_RE = re.compile(r"^(?P<name>[a-z-]+):n=(?P<n>\d+),k=(?P<k>\d+)$")


def parse_family(spec: str) -> FamilyGraph:
    """Parse a family spec string such as ``kneser:n=7,k=2``."""
    m = _FAMILY_SPEC_RE.match(spec.strip())
    if not m:
        raise DomainError(
            f"bad family spec {spec!r}; expected <family>:n=<int>,k=<int>")
    name = m.group("name")
    try:
        kind = FamilyKind(name)
    except ValueError:
        names = ", ".join(f.value for f in FamilyKind)
        raise DomainError(f"unknown family {name!r}; expected one of {names}") from None
    return FamilyGraph(kind, int(m.group("n")), int(m.group("k")))


def format_family(graph: FamilyGraph) -> str:
    """Canonical spec string, embedded verbatim in certificates."""
    return f"{graph.kind.value}:n={graph.n},k={graph.k}"


# ----------------------------------------------------------------------
# mask-level plumbing (cached per graph)


@lru_cache(maxsize=None)
def _vertex_masks(graph: FamilyGraph) -> tuple[int, ...]:
    n, k = graph.n, graph.k
    masks = list(k_subset_masks(n, k))
    if graph.kind is FamilyKind.BIPARTITE_KNESER:
        masks.extend(k_subset_masks(n, n - k))
    return tuple(masks)


# ----------------------------------------------------------------------
# materialized context for the visibility machinery


class GraphContext:
    """Indexed vertices, adjacency bitmask rows and BFS distance layers.

    Vertex i is ``masks[i]``; ``adj[i]`` is a bitmask over vertex indices;
    ``layers[i][d]`` is the bitmask of the vertices at distance d from
    vertex i, for d from 0 (vertex i alone) to the eccentricity of i. The
    layers are the BFS frontiers, so they partition the vertices, and
    they are the package's only record of distances: d(i, j) is the d
    with bit j set in ``layers[i][d]``.

    A row costs a few big-int operations on the element holder masks. A
    BFS step tests the unseen vertices' rows against the frontier once
    that is the smaller side, else ORs the frontier's rows.

    Every vertex has the same eccentricity e. S_n permuting the ground set
    acts transitively on the vertices of K(n, k) and J(n, k), and on each
    side of the bipartite Kneser graph, whose complementation
    A -> [n] minus A swaps the two sides; an automorphism keeps distances.
    So only vertex 0's BFS runs until every vertex is seen, and only it
    can find the graph disconnected (``DomainError``). Its depth is e.
    Every other BFS builds layers 1..e-1 and takes the vertices still
    unseen as layer e, untested: they are exactly those at distance e.
    """

    __slots__ = ("graph", "masks", "index", "adj", "layers")

    def __init__(self, graph: FamilyGraph):
        self.graph = graph
        masks = _vertex_masks(graph)
        self.masks = masks
        # bipartite vertices can repeat a mask only if k == n-k, which the
        # family invariant excludes, so the mask alone is a valid key
        self.index = {m: i for i, m in enumerate(masks)}
        self.adj = _adjacency_rows(graph, masks)
        v = len(masks)
        first = self._bfs_layers(0, v, v)
        ecc = len(first) - 1
        self.layers = [first] + [self._bfs_layers(i, v, ecc) for i in range(1, v)]

    def _bfs_layers(self, src: int, v: int, ecc: int) -> list[int]:
        """The BFS layers of ``src``. The vertices still unseen once layer
        ecc-1 is built are taken as layer ecc untested; ecc=v never cuts."""
        adj = self.adj
        frontier = 1 << src
        layers = [frontier]
        unseen = ((1 << v) - 1) ^ frontier
        while unseen:
            nxt = 0
            if frontier.bit_count() > unseen.bit_count():
                for low in iter_bits(unseen):
                    if adj[low.bit_length() - 1] & frontier:
                        nxt |= low
            else:
                for low in iter_bits(frontier):
                    nxt |= adj[low.bit_length() - 1]
                nxt &= unseen
            if not nxt:
                raise DomainError("graph is disconnected")  # not reachable in-range
            layers.append(nxt)
            unseen ^= nxt
            frontier = nxt
            if len(layers) == ecc:
                layers.append(unseen)
                break
        return layers


def _adjacency_rows(graph: FamilyGraph, masks: tuple[int, ...]) -> list[int]:
    """Rows from the holder mask of each ground element (keyed by its bit):
    the vertices that contain the element."""
    holders = dict.fromkeys(iter_bits(graph.full_mask), 0)
    for i, m in enumerate(masks):
        for e in iter_bits(m):
            holders[e] |= 1 << i

    def union(elements: int) -> int:
        return reduce(or_, map(holders.__getitem__, iter_bits(elements)), 0)

    def common(elements: int) -> int:
        return reduce(and_, map(holders.__getitem__, iter_bits(elements)))

    everyone = (1 << len(masks)) - 1
    if graph.kind is FamilyKind.KNESER:
        return [everyone ^ union(m) for m in masks]
    if graph.kind is FamilyKind.JOHNSON:
        # the sets that keep all but one element of A, less A itself
        return [reduce(or_, (common(m ^ e) for e in iter_bits(m))) ^ (1 << i)
                for i, m in enumerate(masks)]
    # bipartite: k-sets take the low indices, (n-k)-sets the high ones
    half = len(masks) // 2
    small_side = (1 << half) - 1
    big_side = everyone ^ small_side
    return [big_side & common(m) if i < half
            else small_side & ~union(graph.full_mask ^ m)
            for i, m in enumerate(masks)]


@lru_cache(maxsize=None)
def graph_context(graph: FamilyGraph) -> GraphContext:
    if graph.vertex_count > CONTEXT_VERTEX_CAP:
        raise ConstraintError(
            f"{format_family(graph)} has {graph.vertex_count} vertices; "
            f"materialized search supports at most {CONTEXT_VERTEX_CAP}")
    return GraphContext(graph)
