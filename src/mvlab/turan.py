"""Uniform Turan-type searches for suspended 4-cycles and 4-cliques.

A pattern here is a small k-uniform system on an apex set Y of size k-2
plus four extra vertices z1..z4:

- suspended 4-cycle: edges Y+{z1,z2}, Y+{z2,z3}, Y+{z3,z4}, Y+{z4,z1}
- suspended 4-clique: all six edges Y+{zi,zj}

For k = 2 the apex is empty and these are the plain C4 and K4.

Containment of a pattern in a k-uniform system H is decided through link
graphs: fix a candidate apex Y (a (k-2)-subset of [n]); the edges of H
containing Y induce a graph on the remaining vertices (pairs e minus Y),
and the pattern embeds with apex Y iff that link graph contains C4 (some
vertex pair with two common neighbors) resp. K4 (as a subgraph).

ex_uniform(n, k, pattern) is the exact maximum edge count of a
pattern-free k-uniform system on [n], by include/exclude branch and
bound over the colex-ordered candidate edges, pruning a node once
|current| + |remaining candidates| <= incumbent. Since relabeling is a
pattern-automorphism of [n] and the optimum is nonempty, the search
fixes the first candidate edge {1..k} as included (root symmetry
normalization). Each candidate edge gets one table row of its splits
(link dict of the apex, low and high bit of the pair), one link dict per
apex, built the first time the search reaches the edge; testing, adding
and removing an edge at a node read that row and compute nothing else.
A link dict is filled in advance, every vertex bit mapped to 0, so a
test reads any vertex's neighbours directly and adding or removing a
pair is two XORs.

The search also breaks the symmetry of each adjacent swap (m m+1) with a
lex-leader rule (Crawford, Ginsberg, Luks and Roy, KR 1996). The
back-link of a vertex v is the set of rests R with R + {v} included. For
a (k-1)-subset R of [m-1], the candidate R + {m+1} may be included only
if R + {m} is included or the back-links of m and m+1 already differ on
a rest colex-before R; the exclude branch is always explored. Read as a
0/1 word in colex order, a system and its image under the swap first
differ where the back-link of m (the edges with top m) and the back-link
of m+1 on [m-1] first differ, so a system that is not lex-smaller than
its image passes every test for m. Hence the lex-greatest system of each
relabelling orbit satisfies every rule; relabelling keeps
pattern-freeness and edge count, so no optimum is lost. The witness does
not change either: the first maximum system the include-first search
finds is the lex-greatest maximum system, hence the lex-leader of its
orbit, and neither the rule nor a bound prunes it.

For k >= 3 the search also bounds vertex degrees through the link
recursion (Katona, Nemetz and Simonovits 1964; Furedi, "Turan type
problems", 1991): the link of a vertex of a pattern-free k-system is a
pattern-free (k-1)-system on the other n - 1 vertices, so no degree
exceeds D = ex_cap(n - 1, k - 1) and, summing degrees,
ex_k(n) <= floor(n D / k). ``ex_cap`` applies this down to k = 2, where
it takes the exact ex(m, C4) for m <= 10, above that Reiman's bound or
the averaging bound from ex(m - 1, C4) where smaller, and floor(m^2 / 3)
for K4. At a node, vertex y can still reach degree deg_y + rem_y, rem_y
counting the undecided candidates through y, so the node's systems have
at most floor(sum_y min(D, deg_y + rem_y) / k) edges. The search keeps
that sum as n D minus a ``deficit``: passing over a candidate (by
exclusion, the swap rule or a pattern block) adds 1 for each member y
with deg_y + rem_y <= D before the pass, and including one changes no
deg_y + rem_y. A node is pruned once deficit > n D - k (best +
1), so the search ends exact as soon as the incumbent reaches
floor(n D / k). k = 2 has no such bound: its trees are those of the
include/exclude search alone, and it never reads the ex(m, C4) table,
so the table can be re-derived with it.

At k = 3 and n <= 8 a link-completion table sharpens the bound by
Furedi's link recursion applied at every node: a vertex that reaches D
has a link that is a pattern-free graph on n - 1 vertices with D edges.
The candidates through y are y + P for the pairs P of [n] - {y}, and they
come in the colex order of those pairs, since colex compares the largest
element of the symmetric difference and y is in neither set. Relabelling
[n] - {y} onto [n - 1] keeps that order, so once the search has decided
j candidates through y, the link of y is fixed on the first j pairs of
[n - 1] in colex order, and one ``_LinkTable`` over those prefixes serves
every vertex. When no extremal graph has that prefix, y is dead: its
degree stays at most D - 1, and its term in the sum becomes
min(deg_y + rem_y, D - dead_y). Each include or pass looks up the
members y that can still reach D (deg_y + rem_y >= D after it) and were
live before it; one that dies adds 1 to the deficit. A later pass over
a dead y at deg_y + rem_y = D adds nothing, since its term is D - 1
already, and from then on deg_y + rem_y < D bounds it and passes add 1
as usual. No dead flag is stored: while deg_y + rem_y >= D, y is dead
exactly when the table says its current prefix is. The sum stays an
upper bound on the degree sum of every system below the node, so the
existing ``deficit <= limit`` test prunes with it. A table takes
2^(C(n - 1, 2) + 1) bytes: 64 KB at n = 7, 4 MB at n = 8 and 512 MB at
n = 9, so n >= 9 and k != 3 search without one. Its fill is not counted
as nodes (see the budget module), so a tree with the table is the tree
without it minus subtrees that hold no larger system: values, the
witness and every cut lower end at equal node caps stay the same or
improve. With it, ex(7, c4sus_3) = 15 takes 28,096 nodes and
ex(8, k4sus_3) = 40 is exact in 440,603.

On budget exhaustion the result degrades to an interval [best found,
ex_cap(n, k)], for every k. At k = 2 that is the exact ex(n, C4) for
n <= 10 and Reiman's bound floor((n/4)(1 + sqrt(4n - 3))) above (or the
averaging bound, 19 and 22 at n = 11 and 12), or Turan's floor(n^2 / 3)
for K4; only the reported upper end reads the table, never the k = 2
tree. These caps bound the reported interval, and for k >= 3 the
search through D; the n^(k-1/2)/k! asymptotic guide can be reported
alongside but is never a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, isqrt

from .budget import Budget, BudgetExhausted, IntervalResult, SearchCounters
from .errors import ConstraintError, DomainError
from .hypergraphs import Hypergraph, hypergraph
from .subsets import bit_indices, colex_rank, iter_bits, k_subset_masks, members_of


@dataclass(frozen=True)
class Pattern:
    """A suspended pattern: apex of size k-2 plus a 4-vertex pair-graph.

    ``pair_edges`` lists the zi-zj pairs (0-based into z1..z4) completed
    by the apex; ``name`` is the CLI tag (c4sus / k4sus).
    """

    name: str
    k: int
    pair_edges: tuple[tuple[int, int], ...]

    @property
    def apex_size(self) -> int:
        return self.k - 2

    @property
    def vertex_count(self) -> int:
        return self.k + 2

    @property
    def edge_count(self) -> int:
        return len(self.pair_edges)


def build_c4_suspension(k: int) -> Pattern:
    """Four k-edges: the apex completed by the pairs of a 4-cycle."""
    if k < 2:
        raise ConstraintError(f"suspension patterns need k >= 2, got {k}")
    return Pattern("c4sus", k, ((0, 1), (1, 2), (2, 3), (3, 0)))


def build_k4_suspension(k: int) -> Pattern:
    """Six k-edges: the apex completed by all pairs on four vertices."""
    if k < 2:
        raise ConstraintError(f"suspension patterns need k >= 2, got {k}")
    return Pattern("k4sus", k, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def parse_pattern(spec: str) -> Pattern:
    """Parse a pattern spec string such as ``c4sus:k=3`` or ``k4sus:k=2``."""
    parts = spec.strip().split(":")
    if len(parts) != 2 or not parts[1].startswith("k="):
        raise DomainError(f"bad pattern spec {spec!r}; expected c4sus:k=<int> or k4sus:k=<int>")
    try:
        k = int(parts[1][2:])
    except ValueError:
        raise DomainError(f"bad pattern spec {spec!r}") from None
    if parts[0] == "c4sus":
        return build_c4_suspension(k)
    if parts[0] == "k4sus":
        return build_k4_suspension(k)
    raise DomainError(f"unknown pattern {parts[0]!r}; expected c4sus or k4sus")


def format_pattern(p: Pattern) -> str:
    return f"{p.name}:k={p.k}"


# ----------------------------------------------------------------------
# containment


def _link_graph(h: Hypergraph, apex_mask: int) -> dict[int, int]:
    """Adjacency (bit -> neighbor mask) of pairs completing the apex."""
    adj: dict[int, int] = {}
    for e in h.edges:
        if e & apex_mask == apex_mask:
            rest = e ^ apex_mask
            if rest.bit_count() != 2:
                continue
            lo = rest & -rest
            hi = rest ^ lo
            adj[lo] = adj.get(lo, 0) | hi
            adj[hi] = adj.get(hi, 0) | lo
    return adj


def _find_c4(adj: dict[int, int]) -> tuple[int, int, int, int] | None:
    """A 4-cycle (as bits b1-b2-b3-b4-b1) in a link graph, if any."""
    verts = sorted(adj)
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            common = adj[u] & adj[w] & ~u & ~w
            if common.bit_count() >= 2:
                a = common & -common
                b = (common ^ a) & -(common ^ a)
                return u, a, w, b  # cycle u-a-w-b
    return None


def _find_k4(adj: dict[int, int]) -> tuple[int, int, int, int] | None:
    """A K4 (four mutually adjacent bits) in a link graph, if any."""
    for u in sorted(adj):
        nu = adj[u]
        cands = [b for b in sorted(adj) if b > u and nu & b]
        for i, a in enumerate(cands):
            na = adj[a]
            for j in range(i + 1, len(cands)):
                b = cands[j]
                if not na & b:
                    continue
                third = nu & na & adj[b]
                third &= ~(u | a | b)
                if third:
                    c = third & -third
                    return u, a, b, c
    return None


def contains_pattern(h: Hypergraph, pattern: Pattern
                     ) -> tuple[tuple[int, ...], tuple[int, int, int, int]] | None:
    """First embedding of the pattern in H, as (apex members, z members),
    or None. Apexes are scanned in colex order."""
    if h.edges and h.k != pattern.k:
        raise DomainError(
            f"pattern has uniformity {pattern.k}, hypergraph has {h.k or 'mixed'}")
    for apex_mask in k_subset_masks(h.n, pattern.apex_size):
        adj = _link_graph(h, apex_mask)
        if len(adj) < 4:
            continue
        found = _find_c4(adj) if pattern.name == "c4sus" else _find_k4(adj)
        if found is not None:
            zs = tuple(b.bit_length() for b in found)
            return members_of(apex_mask), zs  # type: ignore[return-value]
    return None


# ----------------------------------------------------------------------
# exact extremal search


@dataclass(frozen=True)
class TuranResult(IntervalResult):
    """ex(n, pattern) as a proven enclosure [lo, hi], with a pattern-free
    witness of lo edges. When exact, the witness is the lex-greatest
    maximum system in the colex order of the candidate edges; on a cut it
    is the largest system found so far."""

    n: int
    k: int
    pattern: Pattern
    lo: int
    hi: int
    witness: Hypergraph
    nodes_expanded: int

    def as_json(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "pattern": format_pattern(self.pattern),
            "value": self.bounds.as_json(),
            "status": self.status,
            "witness": [list(m) for m in self.witness.edge_members()],
            "nodes_expanded": self.nodes_expanded,
        }
        if not self.exact:
            out["asymptotic_guide"] = {
                "value": mubayi_asymptote(self.n, self.k),
                "binding": False,
            }
        return out


def _pair_splits(edge: int) -> list[int]:
    """All 2-subsets of an edge (the candidate z-pairs; the rest is apex)."""
    bits = list(iter_bits(edge))
    return [a | b for i, a in enumerate(bits) for b in bits[i + 1:]]


class _SplitRows(dict):
    """Row i of candidate edge i is ``(splits, top, bit, m, degs)``.
    ``splits`` lists its (link, lo, hi) splits, where link is the adjacency
    dict of the apex ``edge ^ (lo | hi)``; every edge through an apex shares
    its one dict, so the splits are all the search needs to test, add and
    remove the edge. The containment test takes the whole list, one call
    per candidate, and the add and remove loop over it. A link is made
    with every vertex bit of [n] mapped to 0, so the search reads
    ``link[x]`` for any vertex x, and adding or removing the pair lo-hi is
    two XORs. ``top`` is the edge's largest
    vertex and ``bit`` is 1 << r, r the colex rank of its rest
    ``edge - {top}``: the edge's place in the back-link of ``top``. ``m``
    is top - 1 when the rest avoids top - 1, so that the swap rule for m
    and m + 1 governs the edge, and 0 otherwise. ``degs`` pairs each member
    y (0-based) with D - rem_y, where D is the degree cap and rem_y the
    number of candidates from i on that contain y; it is empty without a
    cap. With a link table (``linked``) each entry also carries 1 << j,
    where j counts the candidates before i through y: the edge's pair
    e - {y} is pair j of y's link. A row is built when the search first
    reaches its edge, so a budget-cut search on a large [n] builds only
    the rows it visits. The search reaches candidate i + 1 only through
    candidate i, so rows are built in index order and rem_y is a running
    count."""

    def __init__(self, candidates: list[int], n: int, k: int, cap: int | None,
                 linked: bool):
        super().__init__()
        self.candidates = candidates
        self.links: dict[int, dict[int, int]] = {}
        self.vertex_bits = [1 << v for v in range(n)]
        self.cap = cap
        self.linked = linked
        self.per_vertex = comb(n - 1, k - 1)
        # through[y]: candidates through y from the next row to be built on
        self.through = [self.per_vertex] * n

    def __missing__(self, i: int) -> tuple[list[tuple[dict[int, int], int, int]],
                                           int, int, int, tuple[tuple[int, ...], ...]]:
        edge = self.candidates[i]
        links = self.links
        splits = []
        for pair in _pair_splits(edge):
            link = links.get(edge ^ pair)
            if link is None:
                link = links[edge ^ pair] = dict.fromkeys(self.vertex_bits, 0)
            splits.append((link, pair & -pair, pair & (pair - 1)))
        top = edge.bit_length()
        rest = edge ^ 1 << (top - 1)
        m = 0 if rest >> (top - 2) & 1 else top - 1
        degs: tuple[tuple[int, ...], ...] = ()
        if self.cap is not None:
            through = self.through
            ys = bit_indices(edge)
            if self.linked:
                degs = tuple((y, self.cap - through[y], 1 << (self.per_vertex - through[y]))
                             for y in ys)
            else:
                degs = tuple((y, self.cap - through[y]) for y in ys)
            for y in ys:
                through[y] -= 1
        row = self[i] = (splits, top, 1 << colex_rank(rest), m, degs)
        return row


# The containment tests take a candidate's whole ``splits`` row, so the
# search makes one call per candidate: does adding the edge close the
# pattern with some apex? Adding edge e puts the pair lo-hi into the link of
# the apex e - {lo, hi} for each split, and any new embedding uses the new
# edge, so it lies in one of those links and uses its pair lo-hi.


def _completes_c4(splits: list[tuple[dict[int, int], int, int]]) -> bool:
    """Does adding the candidate close a 4-cycle through the pair a-b of
    one of its ``(adj, a, b)`` splits, in that split's link graph?"""
    for adj, a, b in splits:
        na = adj[a] & ~b
        # cycle a-b-x-y-a: x in N(b), y in N(x) cap N(a)
        x = adj[b] & ~a
        while x:
            low = x & -x
            if adj[low] & na & ~low:
                return True
            x ^= low
    return False


def _completes_k4(splits: list[tuple[dict[int, int], int, int]]) -> bool:
    """Does adding the candidate close a K4 through the pair a-b of one of
    its ``(adj, a, b)`` splits? That needs an adjacent pair among the
    common neighbours of a and b in that split's link graph."""
    for adj, a, b in splits:
        common = adj[a] & adj[b] & ~(a | b)
        x = common
        while x:
            low = x & -x
            if adj[low] & common & ~low:
                return True
            x ^= low
    return False


# A link-completion table answers 1 (live) or 2 (dead) per key; 0 is not
# yet known. Tables exist for m <= 7 (4 MB), where 2^(C(m, 2) + 1) bytes
# stay small; m = 8 would take 512 MB
_LIVE, _DEAD = 1, 2
_LINK_TABLE_MAX_M = 7


class _LinkTable:
    """Which prefixes of a pattern-free graph on [m] extend to one with
    D = ex_cap(m, 2, name) edges.

    The pairs of [m] are taken in colex order, pair j being the j-th. The
    key ``L | 1 << j`` stands for the graphs whose pairs among the first
    j are exactly those of the mask L, and ``known[key]`` says whether some
    pattern-free graph on [m] with D edges is among them. ``fill`` decides
    a key by an include-first search over the pairs from j on, and stores
    every key that search decides, so the table fills on demand and each
    key is searched once. The contract covers pattern-free L only: a
    prefix that holds the pattern may be answered live. Its entries depend
    on (m, name) alone; each search makes its own table."""

    def __init__(self, m: int, name: str):
        self.known = bytearray(2 << comb(m, 2))
        self.target = ex_cap(m, 2, name)
        self.find = _completes_c4 if name == "c4sus" else _completes_k4
        self.adj = dict.fromkeys([1 << v for v in range(m)], 0)
        # splits[j]: the containment-test row of pair j alone
        self.splits = [[(self.adj, 1 << a, 1 << b)] for b in range(m) for a in range(b)]

    def fill(self, key: int) -> int:
        """Decide ``key`` (and the keys its search meets); return its entry."""
        known, target, find = self.known, self.target, self.find
        adj, splits = self.adj, self.splits
        pairs = len(splits)

        def reach(key: int, j: int, size: int) -> int:
            entry = known[key]
            if entry:
                return entry
            if size == target:
                entry = _LIVE
            elif size + pairs - j < target:
                entry = _DEAD
            else:
                entry = _DEAD
                split = splits[j]
                if not find(split):
                    _, lo, hi = split[0]
                    adj[lo] |= hi
                    adj[hi] |= lo
                    entry = reach(key | 2 << j, j + 1, size + 1)
                    adj[lo] ^= hi
                    adj[hi] ^= lo
                if entry == _DEAD:
                    entry = reach(key + (1 << j), j + 1, size)
            known[key] = entry
            return entry

        j = key.bit_length() - 1
        link = bit_indices(key ^ 1 << j)
        for r in link:
            _, lo, hi = splits[r][0]
            adj[lo] |= hi
            adj[hi] |= lo
        entry = reach(key, j, len(link))
        for v in adj:
            adj[v] = 0
        return entry


def ex_uniform(n: int, k: int, pattern: Pattern,
               budget: Budget | None = None) -> TuranResult:
    """Exact maximum edges of a pattern-free k-uniform system on [n]."""
    if pattern.k != k:
        raise DomainError(f"pattern uniformity {pattern.k} != k = {k}")
    if n < k:
        return TuranResult(n, k, pattern, 0, 0, hypergraph(n, []), 0)
    candidates = list(k_subset_masks(n, k))
    total = len(candidates)
    if n < pattern.vertex_count:
        # the pattern needs k+2 vertices; everything is pattern-free
        return TuranResult(n, k, pattern, total, total,
                           hypergraph(n, candidates), 0)

    counters = SearchCounters(budget)
    catch_up = counters.catch_up
    find = _completes_c4 if pattern.name == "c4sus" else _completes_k4
    # the degree cap D: each vertex link is pattern-free on the other n - 1
    cap = ex_cap(n - 1, k - 1, pattern.name) if k >= 3 else None
    # at k = 3 the link of y is a graph on n - 1 vertices; for n - 1 <= 7 a
    # link-completion table says when it can no longer reach D edges
    linked = k == 3 and n - 1 <= _LINK_TABLE_MAX_M
    if linked:
        table = _LinkTable(n - 1, pattern.name)
        known, fill = table.known, table.fill
    rows = _SplitRows(candidates, n, k, cap, linked)
    # back[v] holds 1 << rank(R) for each included edge R + {v} with top v
    back = [0] * (n + 1)
    deg = [0] * n
    # lnk[y] holds 1 << j for each included edge through y, j its pair's
    # place in the link of y (kept with a link table only)
    lnk = [0] * n
    edges: list[int] = []

    def dfs() -> None:
        # ``stack`` holds the included candidates below the root, each with
        # the deficit it was included at, so the depth is not bounded by the
        # recursion limit. The exclude branch is the next turn of the loop:
        # it counts its node and tests its bounds, and cannot raise the
        # incumbent (it holds the same edges). Without a cap the deficit
        # and its limit stay 0. Nodes are counted in ``nodes`` up to
        # ``horizon``, and only there through the counters (see the budget
        # module)
        nonlocal best, best_size
        stack: list[tuple[int, int]] = []
        deficit = limit = 0
        if cap is not None:
            limit = n * cap - k * (best_size + 1)
        i = 1
        counters.tick()
        nodes, horizon = counters.nodes, counters.horizon()
        while True:
            size = len(edges)
            if size > best_size:
                best_size = size
                best = list(edges)
                if cap is not None:
                    limit = n * cap - k * (size + 1)
            if i < total and size + (total - i) > best_size and deficit <= limit:
                splits, top, bit, m, degs = rows[i]
                # the swap rule: R + {m+1} goes in only if R + {m} is in or
                # the back-links of m and m+1 differ below R
                if ((not m or back[m] & bit or (back[m] ^ back[m + 1]) & (bit - 1))
                        and not find(splits)):
                    for adj, lo, hi in splits:
                        adj[lo] |= hi
                        adj[hi] |= lo
                    back[top] |= bit
                    edges.append(candidates[i])
                    stack.append((i, deficit))
                    if linked:
                        # a y that can still reach D and was live asks
                        # whether its link lives with the pair in
                        for y, t, jb in degs:
                            deg[y] += 1
                            key = lnk[y] | jb
                            lnk[y] = key
                            if (deg[y] > t and known[key] == _LIVE
                                    and (known[key | jb << 1] or fill(key | jb << 1)) == _DEAD):
                                deficit += 1
                    else:
                        for y, _ in degs:
                            deg[y] += 1
                    i += 1
                    if nodes >= horizon:
                        horizon = catch_up(nodes)
                    nodes += 1
                    continue
            elif stack:
                # lo-hi was absent from each link before the include, so
                # flipping the two bits back restores it exactly
                i, deficit = stack.pop()
                splits, top, bit, _, degs = rows[i]
                for adj, lo, hi in splits:
                    adj[lo] ^= hi
                    adj[hi] ^= lo
                back[top] ^= bit
                if linked:
                    for y, _, jb in degs:
                        deg[y] -= 1
                        lnk[y] ^= jb
                else:
                    for y, _ in degs:
                        deg[y] -= 1
                edges.pop()
            else:
                counters.nodes = nodes
                return
            # pass over candidate i
            if linked:
                # below D, y loses 1; at D, a live y loses 1 and a dead y
                # stays at D - 1; above D, a live y dies (and loses 1) when
                # its link is dead without the pair
                for y, t, jb in degs:
                    if deg[y] < t:
                        deficit += 1
                    else:
                        key = lnk[y] | jb
                        if known[key] == _LIVE and (
                                deg[y] == t or (known[key + jb] or fill(key + jb)) == _DEAD):
                            deficit += 1
            else:
                for y, t in degs:
                    if deg[y] <= t:
                        deficit += 1
            i += 1
            if nodes >= horizon:
                horizon = catch_up(nodes)
            nodes += 1

    # root normalization: some optimum contains {1..k} up to relabeling, so
    # candidate 0 goes in untested and stays in
    splits, top, bit, _, degs = rows[0]
    for adj, lo, hi in splits:
        adj[lo] |= hi
        adj[hi] |= lo
    back[top] |= bit
    for y, *_ in degs:
        deg[y] += 1
    if linked:
        # the root's pair is pair 0 of each member's link. Keys 1 and 3, the
        # empty link before and after it, are the first keys the search
        # reads; both are live (every pair lies in some extremal graph)
        for y, _, jb in degs:
            lnk[y] = jb
        fill(1)
        fill(3)
    edges.append(candidates[0])
    best, best_size = list(edges), 1
    complete = True
    try:
        dfs()
    except BudgetExhausted:
        complete = False

    hi = best_size if complete else ex_cap(n, k, pattern.name)
    return TuranResult(n, k, pattern, best_size, hi, hypergraph(n, best), counters.nodes)


# ----------------------------------------------------------------------
# closed forms and asymptotics


def turan_k4_closed(n: int) -> int:
    """Maximum K4-free edge count on n vertices: floor(n^2 / 3)."""
    if n < 1:
        raise ConstraintError(f"need n >= 1, got {n}")
    return n * n // 3


# ex(m, C4) for m = 0..10: Clapham, Flockhart and Sheehan, "Graphs without
# four-cycles" (JGT 1989)
_C4_FREE_MAX = (0, 0, 1, 3, 4, 6, 7, 9, 11, 13, 16)


def ex_cap(m: int, j: int, name: str) -> int:
    """A proven upper bound on ex_j(m), the most edges of a j-uniform system
    on [m] (j >= 2) free of the suspended pattern ``name``.

    - j = 2, C4: the exact ex(m, C4) for m <= 10. Above the table, the
      smaller of Reiman's bound and the averaging bound
      floor(m ex_cap(m - 1, 2) / (m - 2)) (Katona, Nemetz and Simonovits
      1964): deleting a vertex leaves a C4-free graph on m - 1 vertices,
      and each edge survives the m - 2 deletions that miss it, so
      (m - 2) e <= m ex(m - 1, C4). Up to m = 79 it is the smaller only
      at m = 11 and 12 (19 and 22, against Reiman's 20 and 23).
    - j = 2, K4: Turan's floor(m^2 / 3).
    - j >= 3: the link recursion floor(m ex_cap(m - 1, j - 1) / j).

    Every j = 2 value is at most C(m, 2), and
    floor(m C(m - 1, j - 1) / j) = C(m, j), so no value passes the
    candidate count."""
    if m < j:
        return 0
    if j == 2:
        if name == "k4sus":
            return turan_k4_closed(m)
        if m < len(_C4_FREE_MAX):
            return _C4_FREE_MAX[m]
        cap = _C4_FREE_MAX[-1]
        for size in range(len(_C4_FREE_MAX), m + 1):
            cap = min(reiman_c4_bound(size), size * cap // (size - 2))
        return cap
    return m * ex_cap(m - 1, j - 1, name) // j


def reiman_c4_bound(n: int) -> int:
    """Reiman's bound on C4-free graphs with n vertices:
    floor((n/4)(1 + sqrt(4n - 3))), computed in integers."""
    if n < 1:
        raise ConstraintError(f"need n >= 1, got {n}")
    return (n + isqrt(n * n * (4 * n - 3))) // 4


def mubayi_asymptote(n: int, k: int) -> float:
    """The non-binding asymptotic guide n^(k - 1/2) / k! for the maximum
    suspended-4-cycle-free edge count."""
    if n < 1 or k < 1:
        raise ConstraintError(f"need n, k >= 1, got n={n}, k={k}")
    return float(n ** (k - 0.5) / factorial(k))
