"""Hypergraphs on [n], transversal numbers and the text exchange format.

A Hypergraph is an immutable set system: ground set [n] (isolated
vertices allowed), edges stored as deduplicated, colex-sorted bitmasks.
``k`` is the uniform edge size, or 0 for mixed edge sizes (allowed
internally; every quantity of interest here is defined on uniform
systems, but the transversal solver does not care).

Text format (used by the CLI to exchange hypergraphs):

    n k
    e11 e12 ... e1k
    ...

First line: ground set size and uniformity (0 if mixed); one edge per
line as space-separated ascending 1-based vertex indices. Writing is
canonical (edges colex-sorted), so write -> read -> write is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .budget import Budget, BudgetExhausted, SearchCounters
from .errors import DomainError, MvlabError
from .subsets import KSubset, MAX_GROUND_SET, iter_bits, mask_of, members_of

# name of the tau kernel below; perfbench records it with each run and
# refuses to compare runs whose kernels differ
ACTIVE_KERNEL = "python"


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[int, ...]  # bitmasks, deduplicated, colex-sorted

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise DomainError(f"ground set size {self.n} outside 1..{MAX_GROUND_SET}")
        seen = set()
        for e in self.edges:
            # members_of would never end on a negative mask
            if e < 0:
                raise DomainError(f"edge mask {e} is negative")
            if e == 0:
                raise DomainError("the empty set cannot be an edge")
            if e >> self.n:
                raise DomainError(f"edge {members_of(e)} exceeds ground set [1..{self.n}]")
            if e in seen:
                raise DomainError(f"duplicate edge {members_of(e)}")
            seen.add(e)
        if list(self.edges) != sorted(self.edges):
            raise DomainError("edges must be colex-sorted; use hypergraph()")

    @property
    def k(self) -> int:
        """Uniform edge size, or 0 when edge sizes are mixed or no edges."""
        sizes = {e.bit_count() for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return 0

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_members(self) -> list[tuple[int, ...]]:
        return [members_of(e) for e in self.edges]


def hypergraph(n: int, edges: Iterable[Sequence[int] | int]) -> Hypergraph:
    """Build a Hypergraph from member tuples or masks, normalizing order.
    An edge that is neither an int mask nor an iterable of ints is a
    DomainError."""
    masks = set()
    for e in edges:
        if isinstance(e, int):
            masks.add(e)
            continue
        try:
            # iterating, comparing or shifting a non-int member raises here
            masks.add(mask_of(e, n))
        except TypeError:
            raise DomainError(
                f"edge {e!r} is neither an int mask nor an iterable of ints") from None
    return Hypergraph(n, tuple(sorted(masks)))


# ----------------------------------------------------------------------
# transversal number
#
# Exact branch and bound for the minimum transversal (hitting set) of a
# hypergraph given as bitmask edges over a ground set of at most 64
# elements. Edges that are supersets of other edges are dropped up front
# (hitting the smaller edge hits them too). The rest are sorted once by
# (size, mask) and numbered in that order, and a node holds its uncovered
# edges as one int over those numbers: ``hit[v]`` is the set of edges
# through vertex bit v, so the child that takes v keeps
# ``uncovered & ~hit[v]``, and the branch edge is the lowest uncovered
# edge. The incumbent starts from a max-degree greedy transversal.
#
# Siblings are disjoint: a node branches on the unbanned vertices
# b1 < b2 < ... of its branch edge, and the child that takes b_i also bans
# b1..b_(i-1), so a transversal holding both b_i and an elder b_j is only
# searched under b_j. A node prunes on |chosen| + (greedy matching lower
# bound over the unbanned parts e & ~banned of its uncovered edges) >= |best|,
# and dies at once when some uncovered edge is wholly banned.
#
# The matching takes the lowest remaining edge and drops every edge that
# meets its unbanned part e & ~banned with one AND: the part table maps a
# vertex set to the complement of the union of its ``hit[v]``, filled the
# first time the matching meets it. The entry depends on the set alone, not
# on the edge or node that met it, so all share it; ``hit`` numbers this
# call's edges, so the table lives only as long as the call. An edge meets
# the parts matched so far iff it holds one of their vertices, so this
# takes the same edges, in the same order, as a scan that keeps the union
# of the matched parts. A wholly banned edge has part 0 and holds no
# unbanned vertex, so it is never dropped: the matching reaches it and stops.
#
# The bans cut whole subtrees but leave tau and the witness as they were
# without them. Unless the greedy start is already optimal (then both
# searches return it), the witness is L*, the first leaf of size tau in the
# unbanned tree's depth-first order. If the bans cut L*, it took some b_j
# while an elder sibling b_i also lies in L*; then the b_i subtree, whose
# every branch edge L* hits, holds a leaf inside L* of size tau that comes
# earlier. So L* survives, and it is still the first optimum found. Only
# ``nodes_expanded`` differs; a budget-cut run may stop at another (still
# valid) transversal.


def greedy_cover(sets: dict[int, int], todo: int) -> list[int]:
    """Max-coverage greedy: until every bit of ``todo`` is covered, take
    the key whose set in ``sets`` covers the most bits still uncovered,
    the lowest key on ties. Returns the keys in the order taken; raises
    MvlabError when the sets cannot cover ``todo``."""
    taken = []
    while todo:
        key = max(sets, key=lambda x: ((sets[x] & todo).bit_count(), -x), default=None)
        if not sets.get(key, 0) & todo:
            raise MvlabError("the sets cannot cover every bit")
        taken.append(key)
        todo &= ~sets[key]
    return taken


def solve_tau(edges, counters: SearchCounters, ceiling: int | None = None):
    """Exact minimum transversal of bitmask edges.

    Returns (tau, witness_mask, nodes_expanded, complete). Every node
    counts on ``counters``, so a call inside another search shares that
    search's budget; ``nodes_expanded`` counts this call's nodes only.
    ``complete`` is False only when the budget stopped the search, in
    which case tau is the best known upper bound and witness_mask attains
    it.

    Each branch bans the vertices its elder siblings took (see the comment
    above).

    With a ``ceiling`` the search only looks for transversals smaller
    than it, which decides "tau < ceiling?":
    - a greedy matching of ``ceiling`` minimal edges proves tau >= ceiling
      before any node, and the call returns (ceiling, 0, 0, True);
    - else the incumbent starts at min(greedy, ceiling), with mask 0 when
      the greedy transversal is larger;
    - a complete result below the ceiling is tau, with the witness of the
      call without one, after no more nodes: the ceiling only prunes
      subtrees whose leaves all reach it, so the incumbent below it moves
      as without it;
    - a complete result at the ceiling only proves tau >= ceiling.
    """
    # dedupe, order by (size, mask) with a stable sort by size, and drop
    # superset edges: distinct edges of one size never contain one another,
    # so each edge is checked only against the kept edges of smaller sizes
    uniq = sorted(set(map(int, edges)))
    uniq.sort(key=int.bit_count)
    if uniq and not uniq[0]:
        raise ValueError("empty edge has no transversal")
    minimal: list[int] = []
    shorter: list[int] = []
    size = 0
    for e in uniq:
        if e.bit_count() != size:
            size, shorter = e.bit_count(), minimal.copy()
        for f in shorter:
            if f & e == f:
                break
        else:
            minimal.append(e)
    if not minimal:
        return 0, 0, 0, True

    if ceiling is not None:
        used = matched = 0
        for e in minimal:
            if not e & used:
                used |= e
                matched += 1
        if matched >= ceiling:
            return ceiling, 0, 0, True

    # hit[v]: the edges through vertex bit v. ``apart`` is the part table (see
    # above); it starts with every single vertex, which the children read
    hit: dict[int, int] = {}
    for i, e in enumerate(minimal):
        for v in iter_bits(e):
            hit[v] = hit.get(v, 0) | 1 << i
    apart = {v: ~through for v, through in hit.items()}
    every = (1 << len(minimal)) - 1

    # a max-degree greedy transversal: hit's keys are single bits
    best_mask = sum(greedy_cover(hit, every))
    best_size = best_mask.bit_count()
    if ceiling is not None and best_size > ceiling:
        best_size, best_mask = ceiling, 0
    # nodes are counted in ``nodes`` up to ``horizon``, and only there
    # through the counters (see the budget module)
    start = nodes = counters.nodes
    horizon = counters.horizon()
    catch_up = counters.catch_up
    complete = True

    # iterative stack: (uncovered edge indices, chosen mask, banned mask)
    stack = [(every, 0, 0)]
    try:
        while stack:
            if nodes >= horizon:
                horizon = catch_up(nodes)
            nodes += 1
            uncovered, chosen, banned = stack.pop()
            size = chosen.bit_count()
            if not uncovered:
                if size < best_size:
                    best_size = size
                    best_mask = chosen
                continue
            # greedy matching over the unbanned parts: prune once it holds
            # best_size - size edges, or reaches a wholly banned edge
            room = best_size - size
            keep = ~banned
            rest = uncovered
            while rest:
                part = minimal[(rest & -rest).bit_length() - 1] & keep
                away = apart.get(part)
                if away is None:
                    if not part:
                        break
                    away = -1
                    for v in iter_bits(part):
                        away &= apart[v]
                    apart[part] = away
                rest &= away
                room -= 1
                if room <= 0:
                    break
            else:
                # push in descending bit order so the stack pops ascending
                # bits first; each child bans its elder siblings' (lower) bits
                left = minimal[(uncovered & -uncovered).bit_length() - 1] & keep
                while left:
                    bit = 1 << (left.bit_length() - 1)
                    left ^= bit
                    stack.append((uncovered & apart[bit], chosen | bit, banned | left))
        counters.nodes = nodes
    except BudgetExhausted:
        complete = False

    return best_size, best_mask, counters.nodes - start, complete


@dataclass(frozen=True)
class TransversalCertificate:
    """Minimum transversal with witness: the first optimum in the kernel's
    depth-first order. ``exact`` is False only when a budget stopped the
    search, in which case tau is an upper bound."""

    hypergraph: Hypergraph
    tau: int
    transversal: KSubset
    exact: bool
    nodes_expanded: int

    def as_json(self) -> dict:
        return {
            "n": self.hypergraph.n,
            "k": self.hypergraph.k,
            "edge_count": self.hypergraph.edge_count,
            "tau": self.tau,
            "transversal": list(self.transversal.members()),
            "optimal": self.exact,
            "nodes_expanded": self.nodes_expanded,
        }


def transversal_number(h: Hypergraph,
                       budget: Budget | None = None) -> TransversalCertificate:
    """Exact minimum transversal via ``solve_tau``, within ``budget``
    (``DEFAULT_BUDGET`` when None).

    Every edge is nonempty by construction, so a transversal always
    exists; tau = 0 iff there are no edges.
    """
    tau, mask, nodes, complete = solve_tau(list(h.edges), SearchCounters(budget))
    return TransversalCertificate(
        hypergraph=h,
        tau=tau,
        transversal=KSubset(h.n, mask),
        exact=complete,
        nodes_expanded=nodes,
    )


def is_transversal(h: Hypergraph, vertex_mask: int) -> bool:
    return all(e & vertex_mask for e in h.edges)


# ----------------------------------------------------------------------
# independent cross-check route for 2-uniform systems (Gallai: tau + alpha = n)


def independence_number(h: Hypergraph) -> int:
    """Max independent set of a 2-uniform hypergraph (a simple graph).

    Deliberately a different algorithm family than the transversal
    kernel (vertex branching on a max-degree vertex, alpha(G) =
    max(alpha(G - v), 1 + alpha(G - N[v]))), so tau + alpha = n serves as
    a genuine two-route consistency check in tests. Isolated vertices of
    [n] count toward alpha.
    """
    adj = {}
    for e in h.edges:
        if e.bit_count() != 2:
            raise DomainError("independence_number needs 2-uniform edges")
        lo = e & -e
        hi = e ^ lo
        adj[lo] = adj.get(lo, 0) | hi
        adj[hi] = adj.get(hi, 0) | lo

    isolated = h.n - len(adj)

    def alpha(active: int) -> int:
        # pick a max-degree active vertex; on degree 0, all active are free
        best_bit, best_deg = 0, -1
        for low in iter_bits(active):
            deg = (adj[low] & active).bit_count()
            if deg > best_deg:
                best_bit, best_deg = low, deg
        if best_deg <= 0:
            return active.bit_count()
        without = alpha(active ^ best_bit)
        with_v = 1 + alpha(active & ~(adj[best_bit] | best_bit))
        return max(without, with_v)

    covered = 0
    for bit in adj:
        covered |= bit
    return isolated + alpha(covered)


# ----------------------------------------------------------------------
# text format


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.k}"]
    for e in h.edges:
        lines.append(" ".join(str(x) for x in members_of(e)))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise DomainError(f"bad header {lines[0]!r}; expected 'n k'")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise DomainError(f"bad header {lines[0]!r}; expected integers") from None
    if k < 0:
        raise DomainError(f"bad header {lines[0]!r}; uniformity must be 0 or more")
    edges = []
    for ln in lines[1:]:
        try:
            members = [int(x) for x in ln.split()]
        except ValueError:
            raise DomainError(f"bad edge line {ln!r}") from None
        if members != sorted(members) or len(set(members)) != len(members):
            raise DomainError(f"edge {ln!r} must list distinct ascending vertices")
        if k > 0 and len(members) != k:
            raise DomainError(f"edge {ln!r} has size {len(members)}, expected {k}")
        edges.append(members)
    return hypergraph(n, edges)
