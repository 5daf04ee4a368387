"""Visibility sets in graphs and their maximum sizes.

For a graph G and X a set of vertices, two vertices u, v are X-visible
when some shortest u,v-path has no internal vertex in X (endpoints may
lie in X). The supported set properties are:

- mutual:  every pair within X is X-visible
- total:   every pair of vertices of G is X-visible
- dual:    every pair within X and every pair outside X is X-visible
- outer:   every pair with at least one endpoint in X is X-visible
- general-position: no three distinct members of X lie on a common
  shortest path, i.e. dist(u,v) + dist(v,z) > dist(u,z) for all ordered
  triples of distinct members

The X-visibility test walks the distance layers of the graph context,
``layers[s][d]`` being the vertices at distance d from s (the only record
of distances: no distance table is kept). A BFS from s that expands only
through vertices outside X, keeping at step d only ``layers[s][d]``,
reaches a vertex iff some shortest path to it avoids X internally.
``is_visibility_set`` runs it from each source in ascending order, and a
source with no obligated target above it costs one mask test. Whole
layers expand only while targets lie beyond the current one; one
strike-off loop serves the layer that holds all that remain, and leaves s
once none is left. Every target of s is decided, so the lowest one that
the first failing source misses is the lexicographically first blocking
pair. ``clear_path`` walks the same frontiers for one pair and walks back
from the far end to the internal vertices of one clear shortest path;
``pair_visible`` asks whether there is one. Adjacent pairs are always
visible.

The search needs no frontier walk below distance 4. A pair at distance
2 is X-visible iff a common neighbour lies outside X, so each obligation
there is a forbidden vertex set F that X must not contain: the pair and
its common neighbours for mutual, the common neighbours alone for total,
one endpoint and the common neighbours for outer (once per endpoint).
General position is all forbidden sets: the triples {i, j, w} with w
inside an i,j-geodesic, at every distance, so it takes no pair checks.
The index keeps, per vertex, the deduplicated sets that contain it. A
pair i, j at distance 3 is X-visible iff some a outside X, next to i and
two steps from j, has a neighbour outside X next to j; the index keeps
one row of those neighbours per a. Only pairs at distance 4 or more take
``clear_path``, none in the diameter-2 regime (Kneser graphs with
n >= 3k-1, and J(n, 2)) nor in bipartite Kneser graphs of diameter 3.
The search keeps, per pair at distance 3 or more, the internal vertices
of the clear shortest path it last found, and decides the pair again
only once X + v meets them. A kept path is trusted only after that check
against the current X + v, and a clear geodesic proves the pair visible
whichever set it was found for, so the kept paths need no undo when the
search backtracks.

Maximum sizes are found by exact branch and bound for the
subset-monotone variants (mutual, total, outer, general-position:
any subset of a valid set is valid, so an infeasible inclusion prunes
the whole branch). When v joins X, a forbidden set with one member left
outside X forces that member out of every descendant (forward checking),
so the undecided set U holds only vertices that may still join. A valid
X never holds a whole forbidden set, so V - X is a transversal of them,
the bound the source paper proves its Kneser values with. Inside the
search that reads: each forbidden set inside X + U must lose a vertex of
its part in U, so with m such sets whose parts are pairwise disjoint (a
packing, a matching lower bound on the transversal number, as in
``hypergraphs.solve_tau``), no leaf below the node exceeds
|X| + |U| - m. Each node carries its packing and updates it from its
parent's without a rescan. A run that the budget cuts reports as its
upper end the largest bound of any branch it left open.

The value search also branches on orbits (``subsets.MaskOrbits``): the
permutations of [n] that fix each member of X map the undecided set U
to itself at every node, so leaving the picked vertex v out leaves out
v's whole orbit, as an extension holding an orbit member maps to one
holding v, which the include branch searched. All three families are
vertex-transitive, so the root fixes vertex 0 in X.
The dual variant is NOT subset-monotone - removing a vertex from
X moves it outside and creates new obligated pairs - so it is solved by
exhaustive enumeration, which caps the graph size it can handle.
Witnesses are canonicalized to the colex-least optimum by one more
search: with the optimum size known, it decides vertices from the
highest index down, "exclude" first, passes over vertices already forced
out, prunes on the same packing bound, and stops at its first leaf of
that size. It prunes by isomorphism toward that lex-least representative:
once the exclude branch of the highest undecided vertex w holds no
optimum, every optimum below the node holds w's whole orbit under the
permutations that fix each member of X and map the vertices 0..w onto
themselves, so the include branch takes the orbit at once (proof at
``_colex_least_witness``). The canonicalization
runs on the caller's budget; if that runs out first, the optimum the
value search found is returned instead, still exact, and the
certificate records ``witness_canonical=False``.

For Kneser graphs with n >= 3k-1 (diameter 2), X is a total visibility
set iff the k-sets outside X, viewed as a k-uniform hypergraph, have
transversal number at least 2k: a pair of outside edges with a small
transversal would leave some pair of vertices with every common
neighbor inside X. ``kneser_total_mv_check_fast`` implements that
reduction, deciding "tau >= 2k?" with the tau kernel's ceiling rather than
computing tau; the definitional check must and does agree (swept in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable

from . import hypergraphs
from .budget import Budget, BudgetExhausted, IntervalResult, SearchCounters
from .errors import ConstraintError, DomainError, PreconditionError
from .families import FamilyGraph, _vertex_masks, format_family, graph_context, kneser
from .subsets import KSubset, MaskOrbits, bit_indices

# the definitional max search keeps two v x v tables, the index's pair slots
# (``mid``) and each search's kept paths; keep it to graphs where they stay small
SEARCH_VERTEX_CAP = 128


class Variant(str, Enum):
    MUTUAL = "mutual"
    TOTAL = "total"
    DUAL = "dual"
    OUTER = "outer"
    GENERAL_POSITION = "general-position"


# CLI parameter names for the five maximum-size quantities
PARAM_TO_VARIANT = {
    "mu": Variant.MUTUAL,
    "mu-total": Variant.TOTAL,
    "mu-dual": Variant.DUAL,
    "mu-outer": Variant.OUTER,
    "gp": Variant.GENERAL_POSITION,
}
VARIANT_TO_PARAM = {v: p for p, v in PARAM_TO_VARIANT.items()}


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    blocking: tuple[KSubset, ...] | None  # failing pair (or triple for gp)

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class VisibilityCertificate(IntervalResult):
    """The largest visibility set of one variant, as a proven enclosure
    [lo, hi] with a witness of size lo. On an exact result the witness is
    the colex-least optimum, unless ``witness_canonical`` is False: the
    budget ran out while the optimum was being made colex-least. On a cut
    the witness is the largest set found, and ``witness_canonical`` speaks
    only of exact results."""

    graph: FamilyGraph
    variant: Variant
    lo: int
    witness: tuple[KSubset, ...]
    hi: int
    nodes_expanded: int
    witness_canonical: bool = True

    def as_json(self) -> dict:
        out = {
            "family": format_family(self.graph),
            "variant": self.variant.value,
            "value": self.lo,
            "witness": [list(s.members()) for s in self.witness],
            "status": self.status,
            "nodes_expanded": self.nodes_expanded,
        }
        if not self.witness_canonical:
            out["witness_canonical"] = False
        if not self.exact:
            out["bounds"] = [self.lo, self.hi]
        return out


# ----------------------------------------------------------------------
# indexed machinery shared by the predicate and the search

# a pair's slot in the feasibility tables (VisibilityIndex.pairs_through)
Mid = int | tuple[tuple[int, int], ...]


class VisibilityIndex:
    """Vertex-indexed view of a graph and the search's feasibility tables."""

    __slots__ = ("graph", "ctx", "v", "_through", "_forbidden")

    def __init__(self, graph: FamilyGraph):
        self.graph = graph
        self.ctx = graph_context(graph)
        self.v = len(self.ctx.masks)
        self._through: tuple[list[dict[int, int]], list[list[Mid]]] | None = None
        self._forbidden: dict[Variant, list[list[int]]] = {}

    def index_of(self, s: KSubset) -> int:
        try:
            if s.n == self.graph.n:
                return self.ctx.index[s.bits]
        except (AttributeError, KeyError):  # not a KSubset, or not a vertex
            pass
        raise DomainError(f"{s!r} is not a vertex of {format_family(self.graph)}")

    def subset(self, indices: Iterable[int]) -> tuple[KSubset, ...]:
        n = self.graph.n
        return tuple(KSubset(n, self.ctx.masks[i]) for i in sorted(set(indices)))

    def pair_visible(self, iu: int, iv: int, obstacles: int) -> bool:
        """Is some shortest iu,iv-path internally disjoint from obstacles?
        Endpoint bits in ``obstacles`` are ignored (internal vertices only)."""
        return iu == iv or bool(self.ctx.adj[iu] >> iv & 1) or self.clear_path(
            iu, iv, obstacles) != 0

    def clear_path(self, iu: int, iv: int, obstacles: int) -> int:
        """The internal vertices of one shortest iu,iv-path that avoids
        obstacles, as a mask, or 0 if there is none; iu and iv are at
        distance d >= 2, and endpoint bits in ``obstacles`` are ignored.

        The frontier at level l keeps the vertices at distance d - l from
        iv that are adjacent to the frontier at level l - 1; each is then
        exactly l from iu, so the frontiers are the shortest-path DAG. The
        path walks back from iv: the lowest vertex of the last frontier,
        then at each level the lowest one adjacent to the vertex after it."""
        ctx = self.ctx
        to_v = ctx.layers[iv]
        d = _layer_of(to_v, iu)
        adj = ctx.adj
        free = ~obstacles
        frontiers = []
        frontier = adj[iu] & to_v[d - 1] & free
        for level in range(2, d):
            if not frontier:
                return 0
            frontiers.append(frontier)
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & to_v[d - level] & free
        if not frontier:
            return 0
        path = step = frontier & -frontier
        for frontier in reversed(frontiers):
            step = frontier & adj[step.bit_length() - 1]
            step &= -step
            path |= step
        return path

    def pairs_through(self) -> tuple[list[dict[int, int]], list[list[Mid]]]:
        """The search's feasibility tables, built in one pass over the pairs.

        ``mid[i][j]`` (symmetric) holds a pair's slot, which decides it
        without a frontier walk where the distance allows:

        - distance 2: the mask of the common neighbours. The pair is
          X-visible iff ``mid & ~X``; ``forbidden`` turns these masks into
          the variant's forbidden sets.
        - distance 3: a tuple of rows (1 << a, row), one for each a at
          distance 1 from i and 2 from j, where row masks a's neighbours at
          distance 2 from i and 1 from j. The pair is X-visible iff some
          row has ``a_bit & ~X and row & ~X``.
        - any other distance: 0, and the pair takes ``clear_path``.

        The search keeps each far pair's last clear path beside these slots
        (``_MonotoneSearch.paths``) and reads a slot only when X + v meets
        that path. A kept path is checked against X + v before it is
        trusted, so it needs no undo when the search backtracks.

        ``through[w]`` lists the pairs i < j at distance 3 or more whose
        shortest-path DAG contains w as an internal vertex, indexed by
        their lower end: ``through[w][i]`` masks the partners j, and the
        keys come in increasing i, so walking the keys and then each
        mask's bits visits the pairs in (i, j) order. Pairs at distance 2
        are left out: the forbidden sets cover them."""
        if self._through is None:
            v = self.v
            adj, layers = self.ctx.adj, self.ctx.layers
            through: list[dict[int, int]] = [{} for _ in range(v)]
            mid: list[list[Mid]] = [[0] * v for _ in range(v)]
            # no supported graph is complete, and each is vertex-transitive,
            # so every vertex has a layer 2
            for i in range(v):
                li, row = layers[i], mid[i]
                above = -(2 << i)  # the vertices j > i
                for j in bit_indices(li[2] & above):
                    row[j] = mid[j][i] = li[1] & layers[j][1]
                for d in range(3, len(li)):
                    for j in bit_indices(li[d] & above):
                        lj = layers[j]
                        if d == 3:
                            far_side = li[2] & lj[1]
                            row[j] = mid[j][i] = tuple(
                                (1 << a, adj[a] & far_side)
                                for a in bit_indices(li[1] & lj[2]))
                        # the internal vertices: s from i and d - s from j
                        m = 0
                        for s in range(1, d):
                            m |= li[s] & lj[d - s]
                        bit = 1 << j
                        while m:
                            low = m & -m
                            ends = through[low.bit_length() - 1]
                            ends[i] = ends.get(i, 0) | bit
                            m ^= low
            self._through = (through, mid)
        return self._through

    def forbidden(self, variant: Variant) -> list[list[int]]:
        """The variant's distance-2 obligations as forbidden vertex sets,
        one list per vertex: ``forbidden(variant)[w]`` holds each distinct
        F that contains w, as a mask shared by the lists of its members.

        A pair i, j at distance 2 with common neighbours M is X-visible iff
        X does not contain M, so X breaks an obligated pair iff it contains
        a whole F: {i, j} | M for mutual, M for total, and both {i} | M
        and {j} | M for outer. So with X valid, v may join X only if no
        F - {v} lies inside X, and once F - X is a single vertex u, u can
        never join X. A singleton F makes its vertex never addable.

        General position has no pair obligations: X fails iff it holds a
        triple {i, j, w} with w inside an i,j-geodesic, so its sets are
        those triples, at every distance. At distance 2, w ranges over M;
        beyond, (i, j) is listed in ``through[w]``."""
        lists = self._forbidden.get(variant)
        if lists is None:
            through, mid = self.pairs_through()
            layers = self.ctx.layers
            sets: dict[int, None] = {}
            for i in range(self.v):
                row = mid[i]
                for j in bit_indices(layers[i][2] & -(2 << i)):
                    m = row[j]
                    if variant is Variant.MUTUAL:
                        sets[m | 1 << i | 1 << j] = None
                    elif variant is Variant.TOTAL:
                        sets[m] = None
                    elif variant is Variant.OUTER:
                        sets[m | 1 << i] = sets[m | 1 << j] = None
                    else:  # general position
                        for w in bit_indices(m):
                            sets[1 << i | 1 << j | 1 << w] = None
            if variant is Variant.GENERAL_POSITION:
                for w, ends in enumerate(through):
                    for i, js in ends.items():
                        for j in bit_indices(js):
                            sets[1 << i | 1 << j | 1 << w] = None
            lists = [[] for _ in range(self.v)]
            for f in sets:
                for w in bit_indices(f):
                    lists[w].append(f)
            self._forbidden[variant] = lists
        return lists


@lru_cache(maxsize=None)
def visibility_index(graph: FamilyGraph) -> VisibilityIndex:
    return VisibilityIndex(graph)


# ----------------------------------------------------------------------
# predicates


def _blocked_pair(idx: VisibilityIndex, variant: Variant,
                  x_mask: int) -> tuple[int, int] | None:
    """The lexicographically first pair (i, j), i < j, that the variant
    obliges to be X-visible and that is not, or None. One bitset BFS per
    source s: the reach at distance d is N(reach at d - 1, minus X) cut
    to the vertices at distance d from s, and a target is visible iff it
    is reached in its own layer. Adjacent targets are not tested.

    ``above`` masks the vertices after s, so a source with no target left
    costs one mask test. Whole layers expand only while targets lie beyond
    the current one, adding those each misses to ``missed``. One strike-off
    loop serves the layer holding all that remain, the last ring or not,
    and leaves s once none is left. So every target of s is decided, and
    the lowest missed one is the pair that deciding pair by pair gives."""
    adj, layers = idx.ctx.adj, idx.ctx.layers
    above = (1 << idx.v) - 1
    # the partners a source must see when it is in X, and when it is not
    on_x, off_x = {Variant.MUTUAL: (x_mask, 0), Variant.TOTAL: (above, above),
                   Variant.OUTER: (above, x_mask),
                   Variant.DUAL: (x_mask, above & ~x_mask)}[variant]
    free = ~x_mask
    missed = 0  # 0 at each source: a source that misses a target returns
    for s, ring in enumerate(layers):
        above &= above - 1
        remaining = (on_x if x_mask >> s & 1 else off_x) & above & ~ring[1]
        if not remaining:
            continue
        reach = ring[1]
        d = 2
        while remaining & ~(layer := ring[d]):
            f = reach & free
            reach = 0
            while f:
                low = f & -f
                reach |= adj[low.bit_length() - 1]
                f ^= low
            reach &= layer
            missed |= remaining & layer & ~reach
            remaining &= ~layer
            d += 1
        f = reach & free
        while f:
            low = f & -f
            remaining &= ~adj[low.bit_length() - 1]
            if not remaining:
                break
            f ^= low
        missed |= remaining
        if missed:
            return s, (missed & -missed).bit_length() - 1
    return None


def is_visibility_set(graph: FamilyGraph, x_members: Iterable[KSubset],
                      variant: Variant | str) -> CheckResult:
    """Definitional check of the variant property, with a blocking pair
    (or triple, for general-position) on failure. A member that is not a
    vertex of the graph (a foreign ground set or size, or not a KSubset at
    all) raises DomainError."""
    variant = Variant(variant)
    idx = visibility_index(graph)
    x_mask = 0
    for s in x_members:
        x_mask |= 1 << idx.index_of(s)

    if variant is Variant.GENERAL_POSITION:
        # the distances among the members of X, keyed in ascending order
        dist = {i: {j: d for d, layer in enumerate(idx.ctx.layers[i])
                    for j in bit_indices(layer & x_mask)} for i in bit_indices(x_mask)}
        for i, j, k in combinations(dist, 3):
            if (dist[i][j] + dist[j][k] == dist[i][k]
                    or dist[j][i] + dist[i][k] == dist[j][k]
                    or dist[i][k] + dist[k][j] == dist[i][j]):
                return CheckResult(False, idx.subset((i, j, k)))
        return CheckResult(True, None)

    pair = _blocked_pair(idx, variant, x_mask)
    return CheckResult(pair is None, pair and idx.subset(pair))


# ----------------------------------------------------------------------
# maximum visibility numbers


def max_visibility_number(graph: FamilyGraph, variant: Variant | str,
                          budget: Budget | None = None) -> VisibilityCertificate:
    """Largest size of a visibility set of the given variant, by exact
    search; on budget exhaustion the best found so far is returned with
    status "interval". Canonicalizing the witness shares the budget."""
    variant = Variant(variant)
    idx = visibility_index(graph)
    if idx.v > SEARCH_VERTEX_CAP:
        raise ConstraintError(
            f"definitional search supports at most {SEARCH_VERTEX_CAP} vertices; "
            f"{format_family(graph)} has {idx.v}")
    counters = SearchCounters(budget)
    canonical = True

    if variant is Variant.DUAL:
        value, witness_mask, hi = _max_dual_exhaustive(idx, counters)
    else:
        value, witness_mask, hi = _max_monotone_bb(idx, variant, counters)
        if hi == value > 0:
            witness_mask, canonical = _colex_least_witness(
                idx, variant, value, counters, witness_mask)

    witness = idx.subset(i for i in range(idx.v) if (witness_mask >> i) & 1)
    return VisibilityCertificate(
        graph=graph,
        variant=variant,
        lo=value,
        witness=witness,
        hi=hi,
        nodes_expanded=counters.nodes,
        witness_canonical=canonical,
    )


class _MonotoneSearch:
    """Include/exclude DFS for the subset-monotone variants, with forward
    checking (Haralick and Elliott, Artificial Intelligence 1980).

    Feasibility is maintained incrementally: when v joins the candidate
    set, only the constraints that v touches are re-verified. Pairs at
    distance 2, and every general-position triple, are the index's
    forbidden sets (``VisibilityIndex.forbidden``): ``can_add`` scans v's
    list, rejects v when some F - {v} lies inside X, and collects in
    ``forced`` every vertex u with F - X - {v} = {u}, which can join no
    descendant of X + v. For the visibility variants, pairs at distance 3
    or more with v inside (v as a new obstacle) or with v as an endpoint
    (new obligations) are decided from their ``pairs_through`` slots: rows
    at distance 3, ``clear_path`` beyond. One loop walks both: the
    entries of ``through[v]``, then the entry (v, ``partners[v]``), where
    ``partners[w]`` masks the vertices at distance 3 or more from w for
    mutual and outer, and is 0 for total and general position. The
    variant's filter on an entry's first vertex i keeps its obligated
    pairs; v lies in X + v, so the filter keeps ``partners[v]`` inside
    X + v for mutual and all of it for outer.

    Each such pair keeps, in ``paths``, the internal vertices of the clear
    shortest path found when it was last decided, and while X + v misses
    them the pair is visible without reading its slot. The kept path is
    checked against X + v every time and is a geodesic whatever set it was
    found for, so it needs no undo on backtrack: the answers, the blocking
    pair that ``_record_conflict`` records, and so the whole tree, are
    those of deciding every pair afresh.

    The DFS drops forced vertices from the undecided mask U, and each
    node carries a packing: forbidden sets inside X + U whose parts in U
    are pairwise disjoint, with ``covered`` the union of those parts. Each
    set needs a vertex of its part excluded, so no leaf below the node
    exceeds |X| + |U| - m for m sets, and the node is pruned once that is
    at most the incumbent. ``pack`` builds the root's packing greedily,
    and each branch updates its parent's (``pack_include``,
    ``pack_exclude``): an include drops the sets that hold a forced
    vertex and tops up from the sets through v; an exclude drops the one
    set whose part holds v and tops up from the sets through the rest of
    that part. Branch order follows the conflict heuristic: vertices in
    more discovered blocking pairs, and more often forced out, are decided
    first.

    When the budget runs out, each frame whose exclude branch is still
    open raises ``open_hi`` to that branch's bound, capped by its own, and
    the node that could not be expanded raises it to its own bound; so
    max(best, open_hi) bounds every set the search did not reach.

    ``run`` uses root symmetry: the root only includes vertex 0, which
    vertex-transitivity allows (comment in ``run``). Below it each node
    carries the atoms of X, and ``orbits``, the search's own
    ``subsets.MaskOrbits``, refines them on an include and reads off them
    the orbits of G_X, the permutations of [n] that fix each member of X.
    G_X maps U to itself, by induction from the root: the vertices an
    include forces out are determined by X + v and the distances, so
    G_(X+v) maps them to themselves, and an exclude drops a whole G_X
    orbit. So the exclude branch of v drops v's orbit, each vertex through
    ``pack_exclude``: an optimum below the node that holds an orbit member
    has an image under G_X that holds v and lies below the include. A cut
    exclude branch records the bound of dropping v's orbit: a set it did
    not reach that holds an orbit member has an image of the same size
    below the include, which the include's own records bound.

    ``_colex_least_witness`` fixes no vertex at its root and uses the
    orbits the other way round, so canonical witnesses are as without them.
    """

    def __init__(self, idx: VisibilityIndex, variant: Variant,
                 counters: SearchCounters):
        self.idx = idx
        self.variant = variant
        self.counters = counters
        # the vertices the last accepting can_add ruled out of X's supersets
        self.forced = 0
        self.forbid = idx.forbidden(variant)
        through, self.mid = idx.pairs_through()
        # general position obliges no pair: its triples are all forbidden
        self.through = [{}] * idx.v if variant is Variant.GENERAL_POSITION else through
        # partners[w]: the vertices at distance 3 or more from w (the rings
        # are disjoint, so their sum is their union), whose pairs with w
        # become obligated when w joins X; closer partners are adjacent or
        # covered by the forbidden sets. Total obliges w's pairs before w
        # joins, and general position obliges none, so theirs are 0
        full = (1 << idx.v) - 1
        self.partners = ([full & ~sum(ring[:3]) for ring in idx.ctx.layers]
                         if variant in (Variant.MUTUAL, Variant.OUTER) else [0] * idx.v)
        # paths[i][j] (symmetric): the internal vertices of a shortest i,j-path
        # that was clear when can_add last decided the far pair; -1, which no
        # X + v leaves clear, before the first
        self.paths = [[-1] * idx.v for _ in range(idx.v)]
        self.conflicts = [0] * idx.v
        self.orbits = MaskOrbits(idx.ctx.masks, idx.graph.n)
        self.best_size = 0
        self.best_mask = 0
        # the largest bound of a branch that a budget cut left open; |V|
        # until the root is expanded
        self.open_hi = idx.v

    # -- incremental feasibility ---------------------------------------

    def can_add(self, v: int, chosen_mask: int) -> bool:
        idx = self.idx
        variant = self.variant
        new_mask = chosen_mask | (1 << v)

        # the forbidden sets through v; what F leaves outside X + v must
        # not be empty, and a single vertex there is forced out
        outside = ~new_mask
        forced = 0
        for f in self.forbid[v]:
            r = f & outside
            if not r:
                self._record_conflict((v,))
                return False
            if not r & (r - 1):
                forced |= r
        # farther pairs with v as a new internal obstacle, then the pairs
        # (v, u) newly obligated by v's membership: those the variant
        # obliges, in that order. A pair whose kept path X + v leaves clear
        # is visible; any other is decided by its rows (distance 3) or the
        # layered test, which keep the clear path they find
        mid_rows, paths, clear_path = self.mid, self.paths, idx.clear_path
        mutual = variant is Variant.MUTUAL
        for i, js in chain(self.through[v].items(), ((v, self.partners[v]),)):
            if mutual:
                if not new_mask >> i & 1:
                    continue
                js &= new_mask
            elif not new_mask >> i & 1 and variant is Variant.OUTER:
                js &= new_mask
            row_i, kept = mid_rows[i], paths[i]
            while js:
                low = js & -js
                j = low.bit_length() - 1
                js ^= low
                if not kept[j] & new_mask:
                    continue
                mid = row_i[j]
                if mid:
                    for a_bit, row in mid:
                        if a_bit & outside and (r := row & outside):
                            path = a_bit | r & -r
                            break
                    else:
                        self._record_conflict((i, j))
                        return False
                else:
                    path = clear_path(i, j, new_mask)
                    if not path:
                        self._record_conflict((i, j))
                        return False
                kept[j] = paths[j][i] = path
        # each forced vertex counts as one conflict
        self.forced = forced
        conflicts = self.conflicts
        while forced:
            low = forced & -forced
            conflicts[low.bit_length() - 1] += 1
            forced ^= low
        return True

    def _record_conflict(self, vertices: Iterable[int]) -> None:
        for w in vertices:
            self.conflicts[w] += 1

    # -- the packing bound ------------------------------------------------

    def pack(self, alive: int, undecided: int) -> tuple[list[int], int]:
        """A greedy packing for the node with X = alive - undecided: the
        forbidden sets inside ``alive`` whose parts in ``undecided`` are
        pairwise disjoint, and the union of those parts."""
        packing: list[int] = []
        return packing, self._top_up(
            (f for sets in self.forbid for f in sets), packing, 0, ~alive, undecided)

    def pack_include(self, v: int, chosen_mask: int, undecided_mask: int,
                     packing: list[int], covered: int) -> tuple[list[int], int]:
        """The packing after v joined X (``chosen_mask`` holds v) and
        ``can_add`` forced out ``self.forced``. Sets holding a forced vertex
        leave; a set through v keeps a part of two or more vertices, since
        one would have been forced and none rejected v. The sets through v
        then top it up."""
        forced = self.forced
        if covered & forced:
            packing = [f for f in packing if not f & forced]
            covered = 0
            for f in packing:
                covered |= f
        else:
            packing = packing.copy()
        covered &= undecided_mask
        return packing, self._top_up(self.forbid[v], packing, covered,
                                     ~(chosen_mask | undecided_mask), undecided_mask)

    def pack_exclude(self, v: int, chosen_mask: int, undecided_mask: int,
                     packing: list[int], covered: int) -> tuple[list[int], int]:
        """The packing after v left the undecided vertices for good: the
        one set whose part holds v leaves, and the sets through the rest of
        its part top it up."""
        if not covered >> v & 1:
            return packing, covered
        for at, f in enumerate(packing):
            if f >> v & 1:
                break
        packing = packing[:at] + packing[at + 1:]
        covered &= ~f
        blocked = ~(chosen_mask | undecided_mask) | covered
        freed = f & undecided_mask
        forbid = self.forbid
        while freed:
            low = freed & -freed
            freed ^= low
            # the first set that fits covers the freed vertex, and so
            # blocks every later set in its list
            for g in forbid[low.bit_length() - 1]:
                if not g & blocked:
                    packing.append(g)
                    part = g & undecided_mask
                    covered |= part
                    blocked |= part
                    freed &= ~part
                    break
        return packing, covered

    @staticmethod
    def _top_up(sets: Iterable[int], packing: list[int], covered: int,
                dead: int, undecided_mask: int) -> int:
        """Append to ``packing`` each of ``sets`` that holds no dead vertex
        and meets no part so far; return the union of the parts."""
        blocked = dead | covered
        for f in sets:
            if not f & blocked:
                packing.append(f)
                part = f & undecided_mask
                covered |= part
                blocked |= part
        return covered

    # -- search ----------------------------------------------------------

    def run(self) -> tuple[int, int, int]:
        """(size, mask, hi): the best set found and a proven upper bound
        on the optimum, equal to size when the search finished."""
        # Root symmetry. Every family is vertex-transitive: S_n permuting
        # the ground set acts transitively on the vertices of K(n, k) and
        # J(n, k), and on each side of the bipartite Kneser graph, whose
        # complementation A -> [n] \ A swaps the two sides (A is a subset
        # of B iff the complement of B is a subset of that of A). Each
        # variant is defined by distances alone, so an automorphism maps
        # a valid set to a valid set of the same size, and any nonempty
        # optimum has an image that contains vertex 0. The root therefore
        # only includes vertex 0; if that fails, every singleton fails by
        # transitivity and the optimum is the empty set.
        v = self.idx.v
        try:
            self.counters.tick()
            self.open_hi = 0
            if self.can_add(0, 0):
                undecided = ((1 << v) - 2) & ~self.forced
                atoms = self.orbits.refine(((1 << self.orbits.n) - 1,), self.orbits.masks[0])
                self._dfs(1, undecided, *self.pack(undecided | 1, undecided), atoms)
        except BudgetExhausted:
            return self.best_size, self.best_mask, max(self.best_size, self.open_hi)
        return self.best_size, self.best_mask, self.best_size

    def _dfs(self, chosen_mask: int, undecided_mask: int,
             packing: list[int], covered: int, atoms: tuple[int, ...]) -> None:
        size = chosen_mask.bit_count()
        bound = size + undecided_mask.bit_count() - len(packing)
        try:
            self.counters.tick()
        except BudgetExhausted:
            self.open_hi = max(self.open_hi, bound)
            raise
        if size > self.best_size:
            self.best_size = size
            self.best_mask = chosen_mask
        if bound <= self.best_size:
            return
        v = self._pick(undecided_mask)
        # orbital branching: the exclude branch drops v's whole orbit
        orbits = self.orbits
        orbit = orbits.orbit(v, atoms) & undecided_mask
        rest = undecided_mask & ~orbit
        dropped, uncovered = packing, covered
        while orbit:
            low = orbit & -orbit
            orbit ^= low
            dropped, uncovered = self.pack_exclude(low.bit_length() - 1, chosen_mask,
                                                   rest, dropped, uncovered)
        try:
            if self.can_add(v, chosen_mask):
                grown = chosen_mask | (1 << v)
                left = undecided_mask & ~(1 << v | self.forced)
                self._dfs(grown, left,
                          *self.pack_include(v, grown, left, packing, covered),
                          orbits.refine(atoms, orbits.masks[v]))
        except BudgetExhausted:
            # the exclude branch is still open: record what it may reach
            self.open_hi = max(self.open_hi,
                               min(bound, size + rest.bit_count() - len(dropped)))
            raise
        self._dfs(chosen_mask, rest, dropped, uncovered, atoms)

    def _pick(self, undecided_mask: int) -> int:
        """The undecided vertex with the most conflicts, the lowest on ties."""
        conflicts = self.conflicts
        best, most = -1, -1
        m = undecided_mask
        while m:
            low = m & -m
            w = low.bit_length() - 1
            if conflicts[w] > most:
                best, most = w, conflicts[w]
            m ^= low
        return best


def _layer_of(layers: list[int], j: int) -> int:
    """The distance d with vertex j in ``layers[d]``."""
    bit = 1 << j
    d = 0
    while not layers[d] & bit:
        d += 1
    return d


def _max_monotone_bb(idx: VisibilityIndex, variant: Variant,
                     counters: SearchCounters) -> tuple[int, int, int]:
    search = _MonotoneSearch(idx, variant, counters)
    return search.run()


def _colex_least_witness(idx: VisibilityIndex, variant: Variant, target: int,
                         counters: SearchCounters, found_mask: int) -> tuple[int, bool]:
    """Among optimal witnesses, the one whose vertex-index mask is the
    smallest integer (colex-least), found by one depth-first search: it
    decides vertices from the highest index down, tries "exclude" first,
    and stops at its first leaf of size ``target``.

    It carries ``avail``, the undecided vertices that may still join X: an
    include drops the vertices ``can_add`` forced out. It also carries the
    value search's packing of forbidden sets, m of them, whose parts in
    ``avail`` are disjoint. A branch with size + |avail| - m < target is
    pruned, and an unavailable vertex is passed over without a node.

    The include branch of w, the highest available vertex, is taken only
    once its exclude branch has no leaf of size ``target``, and then it
    includes w's whole orbit under H: the permutations of [n] that fix
    each member of X and map the vertices 0..w onto themselves, as
    ``MaskOrbits.cut_by_prefix`` narrows the atoms of X to them. H fixes
    each member of X, so it maps the forced-out vertices, which X
    alone determines, to themselves, and with them ``avail``, which is
    0..w less X and those. So H maps the optima below the node to one
    another. If one of them missed an orbit member u, its image under a
    g in H with g(u) = w would be an optimum that misses w, below the
    exclude branch, which has none. So every optimum below holds the
    orbit, and the branch adds w and then each other member from the
    highest down, one node each, through ``can_add`` and the packing; it
    fails once a member is forced out or rejected.

    Every cut and every skipped branch holds no leaf of size ``target``,
    and the leaves left are visited in increasing mask order, so the first
    leaf is still the colex-least optimum.

    Returns (mask, canonical). When the budget runs out first, the
    optimum ``found_mask`` that the value search returned comes back
    with canonical False."""
    search = _MonotoneSearch(idx, variant, counters)
    tick = counters.tick
    can_add, include, exclude = search.can_add, search.pack_include, search.pack_exclude
    orbits, masks = search.orbits, search.orbits.masks

    def dfs(chosen_mask: int, size: int, avail: int, atoms: tuple[int, ...],
            packing: list[int], covered: int) -> int | None:
        # the vertices outside avail are decided or forced out
        tick()
        if size == target:
            return chosen_mask
        if size + avail.bit_count() - len(packing) < target:
            return None
        w = avail.bit_length() - 1
        rest = avail ^ (1 << w)
        found = dfs(chosen_mask, size, rest, atoms,
                    *exclude(w, chosen_mask, rest, packing, covered))
        if found is not None:
            return found
        orbit = orbits.orbit(w, orbits.cut_by_prefix(atoms, w))
        while orbit:
            u = orbit.bit_length() - 1
            orbit ^= 1 << u
            if u < w:  # w's include is the node below; each other member is one
                tick()
            if not (avail >> u & 1 and can_add(u, chosen_mask)):
                return None
            chosen_mask |= 1 << u
            avail &= ~(1 << u | search.forced)
            packing, covered = include(u, chosen_mask, avail, packing, covered)
            atoms = orbits.refine(atoms, masks[u])
            size += 1
        return dfs(chosen_mask, size, avail, atoms, packing, covered)

    full = (1 << idx.v) - 1
    try:
        return dfs(0, 0, full, ((1 << orbits.n) - 1,), *search.pack(full, full)), True
    except BudgetExhausted:
        return found_mask, False


def _max_dual_exhaustive(idx: VisibilityIndex,
                         counters: SearchCounters) -> tuple[int, int, int]:
    """Dual visibility is not subset-monotone; enumerate all subsets in
    ascending mask order (first optimum found is the colex-least). Returns
    (size, mask, hi), hi being |V| when the budget cut the enumeration."""
    v = idx.v
    best_size, best_mask = 0, 0

    # X = empty set is always dual (no obstacles at all), so best >= 0
    try:
        for mask in range(1 << v):
            counters.tick()
            if (mask.bit_count() > best_size
                    and _blocked_pair(idx, Variant.DUAL, mask) is None):
                best_size, best_mask = mask.bit_count(), mask
    except BudgetExhausted:
        return best_size, best_mask, v
    return best_size, best_mask, best_size


# ----------------------------------------------------------------------
# Kneser total-visibility reduction


def require_reduction_range(n: int, k: int) -> None:
    """PreconditionError unless n >= 3k-1, where the reduction holds."""
    if n < 3 * k - 1:
        raise PreconditionError(
            f"the reduction requires n >= 3k-1 = {3 * k - 1}, got n={n}")


def kneser_total_mv_check_fast(n: int, k: int, x_members: Iterable[KSubset],
                               budget: Budget | None = None) -> bool:
    """Is X a total visibility set of the Kneser graph, via the
    transversal reduction (requires n >= 3k-1, the diameter-2 regime)?

    X qualifies iff the k-sets outside X form a hypergraph with
    transversal number >= 2k. In particular X = all vertices fails for
    n >= 2k+1 (the empty outside family has transversal number 0).

    Only "tau >= 2k?" is asked, so the tau kernel runs with ceiling 2k:
    a greedy matching of 2k outside edges answers True before any node,
    and otherwise the search looks only for transversals below 2k. It runs
    under ``budget`` (``DEFAULT_BUDGET`` when None). A cut search still
    answers False when its upper bound is below 2k; otherwise it cannot
    decide and raises BudgetExhausted.
    """
    graph = kneser(n, k)
    require_reduction_range(n, k)
    x_bits = set()
    for s in x_members:
        if not isinstance(s, KSubset) or s.n != n or s.bits.bit_count() != k:
            raise DomainError(f"{s!r} is not a vertex of {format_family(graph)}")
        x_bits.add(s.bits)
    outside = [m for m in _vertex_masks(graph) if m not in x_bits]
    tau, _, _, complete = hypergraphs.solve_tau(
        outside, SearchCounters(budget), ceiling=2 * k)
    if tau < 2 * k:
        return False
    if not complete:
        raise BudgetExhausted
    return True
