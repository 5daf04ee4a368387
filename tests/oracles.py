"""Independent brute-force oracles for pinning expected values.

Everything here is rebuilt from the definitions with networkx and
itertools and deliberately shares no code with the package under test:
graphs come from fresh generators, visibility is decided by enumerating
the internal-vertex sets of all geodesics, and optima come from subset
enumeration. Exponential in instance size; callers keep instances tiny.

Three references are exceptions. ``reference_solve_tau`` is the package's
former transversal kernel, plain branching without sibling bans, kept to
pin that the banned kernel returns the same optimum and witness.
``reference_ex_uniform`` is the package's former Turan search, without
the swap rule, kept to pin that the rule changes neither the optimum nor
the witness and never lowers a budget-cut lower end. The
reference visibility predicate at the end takes the package's adjacency
rows as input (the families tests check those against the generators
here), takes distances from networkx, and decides each pair on its own.
``benchmark_random_masks`` is no oracle: it rebuilds the benchmark's
seeded tau inputs for the tests that pin the kernel on them.
"""

from __future__ import annotations

import functools
import itertools
import random

import networkx as nx

# Values pinned by the tests; each is checked there against a brute-force
# oracle below or against a closed form.
# ex(n, C4) for n = 8..10 is from Clapham, Flockhart and Sheehan, "Graphs
# without four-cycles" (JGT 1989)
C4_FREE_MAX = {4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13, 10: 16}  # ex(n, C4)
K4_FREE_MAX = {4: 5, 5: 8, 6: 12, 7: 16}  # ex(n, K4)
COVERING_NUMBERS = [(7, 5, 3, 5), (8, 6, 3, 4), (7, 5, 4, 9), (6, 4, 3, 6), (6, 3, 2, 6)]


def kneser_nx(n: int, k: int) -> nx.Graph:
    g = nx.Graph()
    vs = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    g.add_nodes_from(vs)
    for a, b in itertools.combinations(vs, 2):
        if not a & b:
            g.add_edge(a, b)
    return g


def johnson_nx(n: int, k: int) -> nx.Graph:
    g = nx.Graph()
    vs = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    g.add_nodes_from(vs)
    for a, b in itertools.combinations(vs, 2):
        if len(a & b) == k - 1:
            g.add_edge(a, b)
    return g


def bipartite_kneser_nx(n: int, k: int) -> nx.Graph:
    g = nx.Graph()
    lo = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    hi = [frozenset(c) for c in itertools.combinations(range(1, n + 1), n - k)]
    g.add_nodes_from(lo)
    g.add_nodes_from(hi)
    for a in lo:
        for b in hi:
            if a < b:
                g.add_edge(a, b)
    return g


def _pair_geodesic_masks(g: nx.Graph) -> tuple[list, list[tuple[int, int, list[int]]]]:
    """For each vertex pair, bitmasks of the internal vertices of every
    geodesic. A pair is X-visible iff some mask misses X entirely."""
    nodes = list(g)
    idx = {v: i for i, v in enumerate(nodes)}
    pairs = []
    for u, v in itertools.combinations(nodes, 2):
        masks = []
        for path in nx.all_shortest_paths(g, u, v):
            m = 0
            for w in path[1:-1]:
                m |= 1 << idx[w]
            masks.append(m)
        pairs.append((1 << idx[u], 1 << idx[v], masks))
    return nodes, pairs


def _collinear_triple_masks(g: nx.Graph) -> list[int]:
    nodes = list(g)
    idx = {v: i for i, v in enumerate(nodes)}
    dist = dict(nx.all_pairs_shortest_path_length(g))
    out = []
    for u, v in itertools.combinations(nodes, 2):
        for w in nodes:
            if w is u or w is v:
                continue
            if dist[u][w] + dist[w][v] == dist[u][v]:
                out.append((1 << idx[u]) | (1 << idx[v]) | (1 << idx[w]))
    return out


# is a pair obligated to be X-visible, given whether each endpoint is in X?
_OBLIGED = {
    "mutual": lambda a, b: a and b,
    "total": lambda a, b: True,
    "dual": lambda a, b: a == b,
    "outer": lambda a, b: a or b,
}
_PARAM_VARIANT = {"mu": "mutual", "mu-total": "total", "mu-dual": "dual",
                  "mu-outer": "outer"}

# the subset-monotone properties: every subset of a valid set is valid
MONOTONE_PARAMS = ("mu", "mu-total", "mu-outer", "gp")


def oracle_predicate(g: nx.Graph, param: str):
    """(vertex count, is_valid) where is_valid(x) decides whether the
    vertex bitmask x (in ``list(g)`` order) has the property: a
    visibility parameter ("mu", "mu-total", "mu-dual", "mu-outer") or "gp"
    for general position."""
    if param == "gp":
        triples = _collinear_triple_masks(g)
        return len(g), lambda x: all(t & x != t for t in triples)
    needs = _OBLIGED[_PARAM_VARIANT[param]]
    nodes, pairs = _pair_geodesic_masks(g)

    def is_valid(x: int) -> bool:
        for bu, bv, masks in pairs:
            if (needs(bu & x != 0, bv & x != 0)
                    and not any(m & x == 0 for m in masks)):
                return False
        return True

    return len(nodes), is_valid


def _largest_valid(count: int, is_valid, monotone: bool) -> int:
    """The largest size of a valid vertex set, by subsets of increasing
    size. Only existence matters at each size, so a size ends at its first
    valid set. For a subset-monotone property no set of size s + 1 is
    valid once none of size s is, so the walk stops there; otherwise
    every size is tried."""
    bits = [1 << i for i in range(count)]
    best = 0
    for size in range(1, count + 1):
        if any(is_valid(sum(c)) for c in itertools.combinations(bits, size)):
            best = size
        elif monotone:
            break
    return best


def brute_parameter(g: nx.Graph, variant: str) -> int:
    """Maximum size of a visibility set, by subset enumeration. mu,
    mu-total and mu-outer are subset-monotone, so the enumeration stops
    at the first size with no valid set; mu-dual is not, and tries every
    size."""
    return _largest_valid(*oracle_predicate(g, variant), variant in MONOTONE_PARAMS)


def brute_gp(g: nx.Graph) -> int:
    """Maximum size of a general-position set, by subsets of increasing
    size up to the first size with none: general position is
    subset-monotone."""
    return _largest_valid(*oracle_predicate(g, "gp"), True)


def brute_tau(edges: list[tuple[int, ...]], n: int) -> int:
    """Minimum hitting set by growing-size subset enumeration."""
    masks = [sum(1 << x for x in e) for e in edges]
    bits = [1 << x for x in range(1, n + 1)]
    for size in range(0, n + 1):
        for cand in itertools.combinations(bits, size):
            hit = sum(cand)
            for e in masks:
                if not hit & e:
                    break
            else:
                return size
    raise AssertionError("unreachable: the full ground set hits everything")


def reference_solve_tau(edges: list[int]) -> tuple[int, int]:
    """(tau, witness mask) of bitmask edges by plain
    branching: drop superset edges, sort by (size, mask), start from a
    max-degree greedy transversal, branch on the first uncovered edge's
    vertices in ascending order, and prune on |chosen| + (greedy matching
    over the uncovered edges) >= |best|."""
    minimal: list[int] = []
    for e in sorted(set(edges)):
        if not any(f & e == f for f in minimal):
            minimal.append(e)
    if not minimal:
        return 0, 0
    minimal.sort(key=lambda e: (e.bit_count(), e))

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low
            mask ^= low

    best_mask, remaining = 0, list(minimal)
    while remaining:
        counts: dict[int, int] = {}
        for e in remaining:
            for low in bits(e):
                counts[low] = counts.get(low, 0) + 1
        pick = max(counts, key=lambda b: (counts[b], -b))
        best_mask |= pick
        remaining = [e for e in remaining if not e & pick]
    best_size = best_mask.bit_count()

    stack = [(minimal, 0)]
    while stack:
        uncovered, chosen = stack.pop()
        size = chosen.bit_count()
        if not uncovered:
            if size < best_size:
                best_size, best_mask = size, chosen
            continue
        used = matching = 0
        for e in uncovered:
            if not e & used:
                used |= e
                matching += 1
        if size + matching >= best_size:
            continue
        for bit in reversed(list(bits(uncovered[0]))):
            stack.append(([e for e in uncovered if not e & bit], chosen | bit))
    return best_size, best_mask


def benchmark_random_masks(seed: int) -> list[list[int]]:
    """The 12 random 4-uniform hypergraphs on 24 vertices with 100 edges
    each, relabelled by ``seed``, of the extremal benchmark workload
    (``random_hypergraph_texts`` in ``perfbench/workloads.py``), as edge
    masks."""
    base, relabel = random.Random(2024), random.Random(seed)
    out = []
    for _ in range(12):
        edges: set[tuple[int, ...]] = set()
        while len(edges) < 100:
            edges.add(tuple(sorted(base.sample(range(1, 25), 4))))
        perm = list(range(1, 25))
        relabel.shuffle(perm)
        out.append(sorted(sum(1 << (perm[v - 1] - 1) for v in e) for e in edges))
    return out


def brute_covering(n: int, k: int, t: int) -> int:
    """Minimum number of k-blocks covering all t-subsets of [n].

    Depth-first: branch on the first uncovered t-subset over the blocks
    containing it, bounded by the best solution found so far.
    """
    tsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), t)]
    blocks = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    best = [len(tsets)]

    def rec(chosen: list, covered: set) -> None:
        if len(chosen) >= best[0]:
            return
        missing = next((ts for ts in tsets if ts not in covered), None)
        if missing is None:
            best[0] = len(chosen)
            return
        for b in blocks:
            if missing <= b:
                gained = {ts for ts in tsets if ts <= b and ts not in covered}
                chosen.append(b)
                rec(chosen, covered | gained)
                chosen.pop()

    rec([], set())
    return best[0]


def _graph_has_c4(adj: dict[int, set[int]]) -> bool:
    for u, v in itertools.combinations(adj, 2):
        if len(adj[u] & adj[v]) >= 2:
            return True
    return False


def _graph_has_k4(adj: dict[int, set[int]]) -> bool:
    for quad in itertools.combinations(adj, 4):
        if all(b in adj[a] for a, b in itertools.combinations(quad, 2)):
            return True
    return False


def brute_graph_turan(n: int, pattern: str) -> int:
    """Max edges of a C4-free or K4-free graph on n vertices, by
    enumerating all edge subsets. Only feasible through n = 6."""
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    check = _graph_has_c4 if pattern == "c4" else _graph_has_k4
    best = 0
    for x in range(1 << len(all_edges)):
        if x.bit_count() <= best:
            continue
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for i, (a, b) in enumerate(all_edges):
            if x >> i & 1:
                adj[a].add(b)
                adj[b].add(a)
        if not check(adj):
            best = x.bit_count()
    return best


def pattern_free_graphs(m: int, pattern: str) -> list[int]:
    """Every C4-free or K4-free graph on [m], as a mask over the pairs of
    [m] in colex order ({1,2}, {1,3}, {2,3}, {1,4}, ...), by enumerating
    all of them. Only feasible through m = 6."""
    pairs = [(a, b) for b in range(1, m + 1) for a in range(1, b)]
    check = _graph_has_c4 if pattern == "c4" else _graph_has_k4
    free = []
    for x in range(1 << len(pairs)):
        adj: dict[int, set[int]] = {v: set() for v in range(1, m + 1)}
        for i, (a, b) in enumerate(pairs):
            if x >> i & 1:
                adj[a].add(b)
                adj[b].add(a)
        if not check(adj):
            free.append(x)
    return free


def _has_c4_suspension(edges: list[frozenset], k: int) -> bool:
    verts = set().union(*edges) if edges else set()
    for apex in itertools.combinations(sorted(verts), k - 2):
        aset = set(apex)
        link: dict[int, set[int]] = {}
        for e in edges:
            if aset <= e:
                rest = sorted(e - aset)
                if len(rest) == 2:
                    link.setdefault(rest[0], set()).add(rest[1])
                    link.setdefault(rest[1], set()).add(rest[0])
        if _graph_has_c4(link):
            return True
    return False


def brute_uniform_turan_c4sus(n: int, k: int) -> int:
    """Max edges of a k-uniform hypergraph on [n] with no suspended C4."""
    all_edges = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    best = 0
    for x in range(1 << len(all_edges)):
        if x.bit_count() <= best:
            continue
        chosen = [e for i, e in enumerate(all_edges) if x >> i & 1]
        if not _has_c4_suspension(chosen, k):
            best = x.bit_count()
    return best


class _Cut(Exception):
    pass


def reference_ex_uniform(n: int, k: int, pattern: str, max_nodes: int = 10_000_000
                         ) -> tuple[int, int, list[tuple[int, ...]], int]:
    """(lo, hi, witness, nodes) for the largest k-uniform system on [n]
    (n >= k + 2) free of the suspended ``pattern``, "c4sus" or "k4sus".

    The package's former search: include-first branch and bound over the
    colex-ordered k-sets, backtracking when |current| + |remaining| <=
    incumbent, with {1..k} fixed as included and no other symmetry
    breaking. Nodes are counted as the package counts them: one for the
    root, then one per include or exclude step. A run that would pass
    ``max_nodes`` stops, and its hi is the number of k-sets."""
    cands = sorted(itertools.combinations(range(1, n + 1), k), key=lambda c: c[::-1])
    total = len(cands)
    links: dict[tuple[int, ...], dict[int, set[int]]] = {}
    # the (link graph of the apex, a, b) splits of each k-set
    rows = [[(links.setdefault(tuple(x for x in e if x != a and x != b), {}), a, b)
             for a, b in itertools.combinations(e, 2)] for e in cands]
    for row in rows:
        for link, a, b in row:
            link[a], link[b] = set(), set()

    def closes(link, a, b):
        # the pair a-b is not yet in the link graph
        na, nb = link[a], link[b]
        if pattern == "c4sus":   # a-b-x-y-a
            return any(link[x] & na for x in nb)
        common = na & nb          # a, b, x, y mutually adjacent
        return any(link[x] & common for x in common)

    def toggle(i):
        for link, a, b in rows[i]:
            link[a] ^= {b}
            link[b] ^= {a}

    edges = [cands[0]]
    toggle(0)
    best = list(edges)
    nodes = 0

    def tick():
        nonlocal nodes
        if nodes >= max_nodes:
            raise _Cut
        nodes += 1

    def dfs(i):
        nonlocal best
        if len(edges) > len(best):
            best = list(edges)
        if i == total or len(edges) + total - i <= len(best):
            return
        if not any(closes(link, a, b) for link, a, b in rows[i]):
            edges.append(cands[i])
            toggle(i)
            tick()
            dfs(i + 1)
            toggle(i)
            edges.pop()
        tick()
        dfs(i + 1)

    try:
        tick()
        dfs(1)
        hi = len(best)
    except _Cut:
        hi = total
    return len(best), hi, best, nodes


# ----------------------------------------------------------------------
# reference visibility predicate, one pair at a time


def graph_from_rows(adj: list[int]) -> nx.Graph:
    """The graph on vertices 0..len(adj)-1 whose adjacency bitmask rows
    are ``adj``."""
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((i, j) for i, row in enumerate(adj)
                     for j in range(i + 1, len(adj)) if row >> j & 1)
    return g


@functools.lru_cache(maxsize=None)
def _nx_distances(adj: tuple[int, ...]) -> dict[int, dict[int, int]]:
    return dict(nx.all_pairs_shortest_path_length(graph_from_rows(adj)))


def reference_pair_visible(adj: list[int], u: int, v: int, x_mask: int) -> bool:
    """Layered reachability on the shortest u,v-path DAG: level s holds
    the w with dist(u, w) = s and dist(u, w) + dist(w, v) = dist(u, v),
    with networkx's distances; the walk from u keeps, level by level, the
    DAG vertices outside X adjacent to the previous level, and must end
    next to v."""
    dist = _nx_distances(tuple(adj))
    d = dist[u][v]
    if d <= 1:
        return True
    levels = [0] * d
    for w in range(len(adj)):
        s = dist[u][w]
        if 0 < s < d and s + dist[w][v] == d:
            levels[s] |= 1 << w
    frontier = 1 << u
    for s in range(1, d):
        reach = 0
        for w in range(len(adj)):
            if frontier >> w & 1:
                reach |= adj[w]
        frontier = reach & levels[s] & ~x_mask
    return any(frontier >> w & 1 and adj[w] >> v & 1 for w in range(len(adj)))


def reference_blocking_pair(adj: list[int], variant: str,
                            x_mask: int) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in lexicographic order that the
    variant obliges to be X-visible and that is not, or None."""
    obliged = _OBLIGED[variant]
    v = len(adj)
    for i in range(v):
        for j in range(i + 1, v):
            if (obliged(x_mask >> i & 1, x_mask >> j & 1)
                    and not reference_pair_visible(adj, i, j, x_mask)):
                return i, j
    return None
