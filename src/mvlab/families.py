"""The three set-based graph families and their metric structure.

Vertices are k-subsets (and, for the bipartite family, (n-k)-subsets) of
[n] = {1, ..., n}, encoded as bitmasks via :mod:`mvlab.subsets`.

- kneser: vertices are k-subsets, edges join disjoint sets. Supported for
  n >= 2k+1 and k >= 2 (the connected, non-complete regime). For
  n >= 3k-1 the diameter is 2, so distances are 0/1/2 by inspection; for
  2k+1 <= n < 3k-1 distances come from plain BFS.
- bipartite-kneser: vertices are the k-subsets and the (n-k)-subsets,
  edges join comparable pairs (A subset of B). Supported for n >= 2k+1,
  k >= 2; the size classes are then distinct, so the class of a vertex is
  its cardinality. Complementation S -> [n] minus S is an automorphism
  swapping the classes.
- johnson: vertices are k-subsets, edges join pairs with |A cap B| = k-1.
  Supported for n >= k+2, k >= 2. Distance is k - |A cap B|; the BFS
  oracle must and does agree (tested exhaustively on small cases).

Enumeration order is colex within each size class (k-sets first for the
bipartite family), which makes vertex index = colex rank and keeps every
certificate deterministic.

``GraphContext`` builds each adjacency row from the holder masks of the
ground elements (the vertices that contain each one), and runs a BFS that
goes bottom-up once its frontier outnumbers the unseen vertices: on
K(25,2), degree 253 of 300, the last layer takes 46 tests, not 253 ORs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from math import comb
from operator import and_, or_
from typing import Iterator

from .errors import ConstraintError, DomainError
from .subsets import (
    KSubset,
    MAX_GROUND_SET,
    iter_bits,
    k_subset_masks,
    k_subsets_of_mask,
)

# Adjacency bitmask rows and the all-pairs distance table are materialized
# only below this vertex count; larger graphs stay implicit.
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

    def is_vertex(self, v: KSubset) -> bool:
        if not isinstance(v, KSubset) or v.n != self.n:
            return False
        s = v.size
        if self.kind is FamilyKind.BIPARTITE_KNESER:
            return s in (self.k, self.n - self.k)
        return s == self.k

    def _require_vertex(self, v: KSubset) -> None:
        if not self.is_vertex(v):
            raise DomainError(f"{v!r} is not a vertex of {format_family(self)}")

    # ------------------------------------------------------------------
    # adjacency

    def adjacent(self, a: KSubset, b: KSubset) -> bool:
        self._require_vertex(a)
        self._require_vertex(b)
        if a.bits == b.bits:
            return False
        return _adjacent_masks(self, a.bits, b.bits)

    def neighbors(self, a: KSubset) -> Iterator[KSubset]:
        self._require_vertex(a)
        for m in _neighbor_masks(self, a.bits):
            yield KSubset(self.n, m)

    # ------------------------------------------------------------------
    # metric

    def distance(self, a: KSubset, b: KSubset) -> int:
        """Shortest-path distance; BFS-exact on every supported family."""
        self._require_vertex(a)
        self._require_vertex(b)
        if a.bits == b.bits and a.size == b.size:
            return 0
        n, k = self.n, self.k
        if self.kind is FamilyKind.JOHNSON:
            return k - (a.bits & b.bits).bit_count()
        if self.kind is FamilyKind.KNESER and n >= 3 * k - 1:
            # diameter 2: intersecting pairs sit at distance exactly 2
            return 1 if not a.bits & b.bits else 2
        return _bfs_distance(self, a.bits, b.bits, a.size)

    def diameter(self) -> int:
        if self.kind is FamilyKind.KNESER and self.n >= 3 * self.k - 1:
            return 2
        return max(len(layers) for layers in graph_context(self).layers) - 1

    # ------------------------------------------------------------------
    # automorphism

    def complement_automorphism(self, s: KSubset) -> KSubset:
        """Complementation, an automorphism of the bipartite family only."""
        if self.kind is not FamilyKind.BIPARTITE_KNESER:
            raise DomainError(
                "complementation is an automorphism of bipartite-kneser only")
        self._require_vertex(s)
        return KSubset(self.n, self.full_mask ^ s.bits)


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


def _adjacent_masks(graph: FamilyGraph, a: int, b: int) -> bool:
    kind = graph.kind
    if kind is FamilyKind.KNESER:
        return not a & b
    if kind is FamilyKind.JOHNSON:
        return (a & b).bit_count() == graph.k - 1
    # bipartite: comparable pairs from opposite size classes
    sa, sb = a.bit_count(), b.bit_count()
    if sa == sb:
        return False
    small, big = (a, b) if sa < sb else (b, a)
    return small & big == small


def _neighbor_masks(graph: FamilyGraph, a: int) -> Iterator[int]:
    n, k = graph.n, graph.k
    full = graph.full_mask
    kind = graph.kind
    if kind is FamilyKind.KNESER:
        yield from k_subsets_of_mask(full ^ a, k)
    elif kind is FamilyKind.JOHNSON:
        comp = full ^ a
        a_bits = list(iter_bits(a))
        comp_bits = list(iter_bits(comp))
        for out_bit in a_bits:
            base = a ^ out_bit
            for in_bit in comp_bits:
                yield base | in_bit
    else:  # bipartite
        if a.bit_count() == k:
            for extra in k_subsets_of_mask(full ^ a, n - 2 * k):
                yield a | extra
        else:
            yield from k_subsets_of_mask(a, k)


def _bfs_distance(graph: FamilyGraph, a: int, b: int, a_size: int) -> int:
    """BFS over the implicit graph; sets are keyed by (mask, size class)."""
    target = (b, b.bit_count())
    seen = {(a, a_size)}
    frontier = [(a, a_size)]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for m, _ in frontier:
            for nb in _neighbor_masks(graph, m):
                key = (nb, nb.bit_count())
                if key in seen:
                    continue
                if key == target:
                    return d
                seen.add(key)
                nxt.append(key)
        frontier = nxt
    raise DomainError("vertices lie in different components")  # not reachable in-range


# ----------------------------------------------------------------------
# materialized context for the visibility machinery


class GraphContext:
    """Indexed vertices, adjacency bitmask rows and all-pairs distances.

    Vertex i is ``masks[i]``; ``adj[i]`` is a bitmask over vertex indices;
    ``dist[i]`` is a bytearray of distances from vertex i; ``layers[i][d]``
    is the bitmask of the vertices at distance d from vertex i, for d from
    0 (vertex i alone) to the eccentricity of i. The layers are the BFS
    frontiers that ``dist`` is read from, so they partition the vertices.

    A row costs a few big-int operations on the element holder masks. Each
    BFS tests the unseen vertices' rows against the frontier once that is
    the smaller side, else ORs the frontier's rows, and stops once every
    vertex is seen, so its last frontier is never expanded.
    """

    __slots__ = ("graph", "masks", "index", "adj", "dist", "layers")

    def __init__(self, graph: FamilyGraph):
        self.graph = graph
        masks = _vertex_masks(graph)
        self.masks = masks
        # bipartite vertices can repeat a mask only if k == n-k, which the
        # family invariant excludes, so the mask alone is a valid key
        self.index = {m: i for i, m in enumerate(masks)}
        self.adj = _adjacency_rows(graph, masks)
        v = len(masks)
        self.layers = [self._bfs_layers(i, v) for i in range(v)]
        self.dist = [_distance_row(layers, v) for layers in self.layers]

    def _bfs_layers(self, src: int, v: int) -> list[int]:
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


def _distance_row(layers: list[int], v: int) -> bytearray:
    """``dist`` row from BFS layers: each layer's bit string, with '1'
    read as its distance, summed as one big-endian integer per layer."""
    total = 0
    for d in range(1, len(layers)):
        digits = format(layers[d], f"0{v}b").encode()
        total += int.from_bytes(digits.translate(bytes.maketrans(b"01", bytes((0, d)))),
                                "big")
    return bytearray(total.to_bytes(v, "little"))


@lru_cache(maxsize=None)
def graph_context(graph: FamilyGraph) -> GraphContext:
    if graph.vertex_count > CONTEXT_VERTEX_CAP:
        raise ConstraintError(
            f"{format_family(graph)} has {graph.vertex_count} vertices; "
            f"materialized search supports at most {CONTEXT_VERTEX_CAP}")
    return GraphContext(graph)
